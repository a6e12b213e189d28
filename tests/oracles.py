"""Independent brute-force oracles the fast paths are checked against.

Everything here enumerates exhaustively and trusts nothing from the
package beyond the PatternGraph value type, so agreement with these
routines is meaningful evidence.
"""

import itertools
import math

from ordex.graphs import BIPARTITE, ORDERED, PatternGraph


def brute_force_embedding(host: PatternGraph, pattern: PatternGraph):
    """Search all order-preserving injections; None if the host avoids."""
    host_edges = set(host.edges)
    if pattern.flavor == BIPARTITE:
        for uc in itertools.combinations(range(1, host.n_u + 1), pattern.n_u):
            for vc in itertools.combinations(range(1, host.n_v + 1), pattern.n_v):
                if all((uc[u - 1], vc[v - 1]) in host_edges
                       for u, v in pattern.edges):
                    return uc, vc
        return None
    k, n = pattern.n_u, host.n_u
    if pattern.flavor == ORDERED:
        for combo in itertools.combinations(range(1, n + 1), k):
            if all((combo[a - 1], combo[b - 1]) in host_edges
                   for a, b in pattern.edges):
                return combo
        return None
    # Cyclic: an injection preserves the circular order exactly when it is
    # a rotation of an increasing tuple.
    for combo in itertools.combinations(range(1, n + 1), k):
        for r in range(k):
            rot = combo[r:] + combo[:r]
            good = True
            for a, b in pattern.edges:
                x, y = rot[a - 1], rot[b - 1]
                if x > y:
                    x, y = y, x
                if (x, y) not in host_edges:
                    good = False
                    break
            if good:
                return rot
    return None


def brute_force_interval_chromatic(g: PatternGraph) -> int:
    """Minimum over all partitions of the order into edge-free intervals."""
    n = g.n_u
    if n == 0:
        return 1
    edges = set(g.edges)

    def interval_ok(lo, hi):
        return not any(lo <= a and b <= hi for a, b in edges)

    best = n
    # Cut points encoded as subsets of the n-1 gaps.
    for mask in range(1 << (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        parts = len(bounds) - 1
        if parts >= best:
            continue
        if all(interval_ok(bounds[i] + 1, bounds[i + 1])
               for i in range(parts)):
            best = parts
    return best


def brute_force_max_edges(flavor: str, n: int, m: int, pattern: PatternGraph,
                          contains_fn) -> int:
    """Maximum avoiding subgraph of the complete host, largest size first.

    Walks candidate subsets in decreasing size, so the first avoiding
    subset found is the exact maximum.  Uses the provided containment
    test, so pair it with brute_force_embedding for full independence.
    """
    if flavor == BIPARTITE:
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
    else:
        cells = list(itertools.combinations(range(1, n + 1), 2))
    for size in range(len(cells), -1, -1):
        for combo in itertools.combinations(cells, size):
            host = PatternGraph(flavor, n, m if flavor == BIPARTITE else 0, combo)
            if contains_fn(host, pattern) is None:
                return size
    return 0


def brute_force_avoider_count(n: int, pattern: PatternGraph, contains_fn) -> int:
    """Count avoiding n-by-n hosts by full enumeration of all 2^(n*n)."""
    cells = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    count = 0
    for mask in range(1 << len(cells)):
        edges = tuple(c for i, c in enumerate(cells) if mask >> i & 1)
        host = PatternGraph(BIPARTITE, n, n, edges)
        if contains_fn(host, pattern) is None:
            count += 1
    return count


def permutation_contains(sigma, pi) -> bool:
    k = len(pi)
    for combo in itertools.combinations(range(len(sigma)), k):
        values = [sigma[i] for i in combo]
        ranks = sorted(range(k), key=lambda t: values[t])
        if ranks == sorted(range(k), key=lambda t: pi[t]):
            return True
    return False


def brute_force_perm_avoiders(n: int, pi) -> int:
    return sum(1 for sigma in itertools.permutations(range(1, n + 1))
               if not permutation_contains(sigma, pi))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def find_k_cycle(g: PatternGraph, k: int) -> bool:
    """Exhaustive check for a simple cycle of length exactly k."""
    adj = [set() for _ in range(g.n_u + 1)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)

    def dfs(start, current, depth, on_path):
        if depth == k:
            return start in adj[current]
        for nxt in adj[current]:
            if nxt > start and nxt not in on_path:
                on_path.add(nxt)
                if dfs(start, nxt, depth + 1, on_path):
                    return True
                on_path.discard(nxt)
        return False

    return any(dfs(s, s, 1, {s}) for s in range(1, g.n_u + 1))


def brute_force_edges_on_k_cycles(n: int, edges, k: int) -> set:
    """Edges of every simple k-cycle, found by listing vertex sequences.

    A cycle is listed once: its least vertex first, then the direction
    whose second vertex is below its last.
    """
    adjacent = set(edges) | {(b, a) for a, b in edges}
    bad = set()
    for first in range(1, n + 1):
        for rest in itertools.permutations(range(first + 1, n + 1), k - 1):
            if rest[0] > rest[-1]:
                continue
            cycle = (first,) + rest
            pairs = [(cycle[i - 1], cycle[i]) for i in range(k)]
            if all(p in adjacent for p in pairs):
                bad.update((min(p), max(p)) for p in pairs)
    return bad


def enumerate_tree_patterns(max_edges: int):
    """All bipartite patterns whose underlying graph is a tree, deduplicated
    by the full symmetry group, in canonical order."""
    from ordex.graphs import bipartite_graph, canonical_variant, connected_components

    seen = set()
    out = []
    for e in range(1, max_edges + 1):
        total = e + 1
        for a in range(1, total):
            b = total - a
            cells = [(u, v) for u in range(1, a + 1) for v in range(1, b + 1)]
            for combo in itertools.combinations(cells, e):
                g = bipartite_graph(a, b, combo)
                if len(connected_components(g)) != 1:
                    continue
                canon = canonical_variant(g)
                if canon not in seen:
                    seen.add(canon)
                    out.append(canon)
    return out
