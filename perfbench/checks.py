"""Reference checks the benchmark applies to every answer.

Nothing here calls into ordex: graphs are read through their plain
fields (flavor, part sizes, edge tuple), CLI output is read as text or
JSON, and the brute-force oracles come from the test suite's
``tests/oracles.py``, which trusts only the graph value type.
"""

from __future__ import annotations


def embedding_ok(host, pattern, u_map, v_map=()) -> bool:
    """True when the maps are an injective, order-preserving and
    edge-preserving image of pattern in host.

    Bipartite maps preserve the order within each part.  Cyclic maps
    preserve the circular order: read around the pattern, the images
    descend exactly once.
    """
    u_map, v_map = tuple(u_map), tuple(v_map)
    if host.flavor != pattern.flavor or len(u_map) != pattern.n_u:
        return False
    edges = set(host.edges)
    if pattern.flavor == "bipartite":
        if len(v_map) != pattern.n_v:
            return False
        for image, size in ((u_map, host.n_u), (v_map, host.n_v)):
            if any(not 1 <= h <= size for h in image):
                return False
            if any(a >= b for a, b in zip(image, image[1:])):
                return False
        return all((u_map[a - 1], v_map[b - 1]) in edges for a, b in pattern.edges)
    if v_map or any(not 1 <= h <= host.n_u for h in u_map):
        return False
    if len(set(u_map)) != len(u_map):
        return False
    k = len(u_map)
    descents = sum(u_map[i] > u_map[(i + 1) % k] for i in range(k))
    if pattern.flavor == "ordered":
        if any(a >= b for a, b in zip(u_map, u_map[1:])):
            return False
    elif k > 1 and descents != 1:
        return False
    for a, b in pattern.edges:
        x, y = sorted((u_map[a - 1], u_map[b - 1]))
        if (x, y) not in edges:
            return False
    return True


def power_edges(n: int, base: int) -> tuple:
    """Sorted edges (i, i + d) of the distance-power construction, d = base**k < n."""
    edges, d = [], 1
    while d < n:
        edges += [(i, i + d) for i in range(1, n - d + 1)]
        d *= base
    return tuple(sorted(edges))


def turan_edge_count(n: int, r: int) -> int:
    """Edges of the complete r-partite graph with near-equal classes."""
    base, extra = divmod(n, r)
    sizes = [base + (c < extra) for c in range(r)]
    return (n * n - sum(s * s for s in sizes)) // 2


def read_graph_text(text: str):
    """(flavor, n_u, n_v, edges) from the native text encoding."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    head = rows[0]
    flavor = head[0]
    n_u = int(head[1])
    n_v = int(head[2]) if flavor == "bipartite" else 0
    edges = tuple(sorted((int(a), int(b)) for a, b in rows[1:]))
    return flavor, n_u, n_v, edges


def witness_ok(graph_type, text: str, pattern, value: int, oracles) -> bool:
    """A solver witness: the stated edge count, and brute force finds no copy."""
    flavor, n_u, n_v, edges = read_graph_text(text)
    witness = graph_type(flavor, n_u, n_v, edges)
    return len(edges) == value and oracles.brute_force_embedding(witness, pattern) is None
