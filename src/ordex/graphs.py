"""Vertex-ordered graph values and their structural measures.

Three flavors share one immutable representation:

* ``ordered``   -- a single linearly ordered vertex set 1..n, edges are
  pairs (i, j) with i < j.
* ``bipartite`` -- two linearly ordered parts U (1..n_u) and V (1..n_v),
  edges are pairs (u, v) across the parts.  Equivalently a 0-1 matrix
  with rows = U and columns = V.
* ``cyclic``    -- vertices 1..n in convex position, edges stored like
  the ordered flavor but read cyclically.

Indices are 1-based in every public API.  Edges are stored as a sorted
tuple, so equal graphs compare, hash and serialize identically.

``variants`` is the one table of a bipartite pattern's eight images
under row reversal, column reversal and part swap, which the bound
engine searches and the record cache probes.  Every op is an
involution, so ``ops[::-1]`` undoes ``ops``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

ORDERED = "ordered"
BIPARTITE = "bipartite"
CYCLIC = "cyclic"
FLAVORS = (ORDERED, BIPARTITE, CYCLIC)


class GraphValueError(ValueError):
    """Raised when a graph value would violate a structural invariant."""


@dataclass(frozen=True)
class PatternGraph:
    """An immutable flavored graph, usable as host or forbidden pattern.

    ``n_u`` is the size of the first (or only) part; ``n_v`` is the size
    of the second part and is 0 unless the flavor is bipartite.
    """

    flavor: str
    n_u: int
    n_v: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise GraphValueError(f"unknown flavor {self.flavor!r}")
        if self.n_u < 0 or self.n_v < 0:
            raise GraphValueError("negative part size")
        if self.flavor != BIPARTITE and self.n_v != 0:
            raise GraphValueError(f"{self.flavor} graphs have a single part")
        normalized = tuple(sorted((int(a), int(b)) for a, b in self.edges))
        object.__setattr__(self, "edges", normalized)
        seen = set()
        for a, b in normalized:
            if self.flavor == BIPARTITE:
                if not (1 <= a <= self.n_u and 1 <= b <= self.n_v):
                    raise GraphValueError(f"vertex index out of range in edge ({a}, {b})")
            else:
                if a == b:
                    raise GraphValueError(f"loop edge ({a}, {b})")
                if not (1 <= a < b <= self.n_u):
                    raise GraphValueError(f"vertex index out of range in edge ({a}, {b})")
        for e in normalized:
            if e in seen:
                raise GraphValueError(f"duplicate edge {e}")
            seen.add(e)

    @property
    def n_vertices(self) -> int:
        return self.n_u + self.n_v

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        if self.flavor != BIPARTITE and a > b:
            a, b = b, a
        i = bisect_left(self.edges, (a, b))
        return i < len(self.edges) and self.edges[i] == (a, b)

    def degrees(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Degree sequences, one tuple per part (second empty unless bipartite)."""
        du = [0] * self.n_u
        dv = [0] * self.n_v
        for a, b in self.edges:
            if self.flavor == BIPARTITE:
                du[a - 1] += 1
                dv[b - 1] += 1
            else:
                du[a - 1] += 1
                du[b - 1] += 1
        return tuple(du), tuple(dv)

    def __str__(self):
        if self.flavor == BIPARTITE:
            size = f"{self.n_u}x{self.n_v}"
        else:
            size = str(self.n_u)
        return f"{self.flavor} {size} with {len(self.edges)} edges"


def ordered_graph(n: int, edges) -> PatternGraph:
    """Build an ordered graph on n vertices; edge pairs may come in any order."""
    return PatternGraph(ORDERED, n, 0, _normalize_pairs(edges))


def cyclic_graph(n: int, edges) -> PatternGraph:
    """Build a cyclic (convex position) graph on n vertices."""
    return PatternGraph(CYCLIC, n, 0, _normalize_pairs(edges))


def bipartite_graph(n_u: int, n_v: int, edges) -> PatternGraph:
    """Build an ordered bipartite graph; edges are (row, column) pairs."""
    return PatternGraph(BIPARTITE, n_u, n_v, tuple((int(u), int(v)) for u, v in edges))


def _normalize_pairs(edges):
    out = []
    for a, b in edges:
        a, b = int(a), int(b)
        if a > b:
            a, b = b, a
        out.append((a, b))
    return tuple(out)


def variant_key(g: PatternGraph):
    """Total order key used to pick canonical representatives."""
    return (g.n_u, g.n_v, g.edges)


# ---------------------------------------------------------------------------
# Interval and circular chromatic numbers
# ---------------------------------------------------------------------------

def interval_chromatic_number(g: PatternGraph) -> int:
    """Minimum number of consecutive intervals with no internal edge.

    Left-to-right greedy sweep: start a new interval exactly when the
    next vertex already has a neighbor inside the current one.  The
    greedy count equals the true minimum because the first interval of
    any optimal partition can be extended to the greedy one without
    increasing the count.
    """
    if g.flavor != ORDERED:
        raise GraphValueError("interval chromatic number is defined on ordered graphs")
    if g.n_u == 0:
        return 1
    nbrs = _underlying_adjacency(g)
    count = 1
    start = 1
    for v in range(2, g.n_u + 1):
        if any(start <= w < v for w in nbrs[v]):
            count += 1
            start = v
    return count


def circular_chromatic_number(g: PatternGraph) -> int:
    """Minimum number of circular intervals with no internal edge (exact).

    Any optimal circular partition has an interval boundary, and cutting
    the circle there turns it into a linear partition; therefore the
    minimum over all n rotations of the greedy linear sweep is exact.
    """
    if g.flavor != CYCLIC:
        raise GraphValueError("circular chromatic number is defined on cyclic graphs")
    n = g.n_u
    if n == 0 or not g.edges:
        return 1
    best = n
    for r in range(n):
        rotated = rotate_cyclic(g, r)
        linear = PatternGraph(ORDERED, n, 0, rotated.edges)
        best = min(best, interval_chromatic_number(linear))
    return best


def rotate_cyclic(g: PatternGraph, r: int) -> PatternGraph:
    """Relabel a cyclic graph so that vertex r+1 becomes vertex 1."""
    n = g.n_u
    edges = []
    for a, b in g.edges:
        na = (a - 1 - r) % n + 1
        nb = (b - 1 - r) % n + 1
        edges.append((na, nb) if na < nb else (nb, na))
    return PatternGraph(CYCLIC, n, 0, tuple(edges))


# ---------------------------------------------------------------------------
# Bipartite symmetries
# ---------------------------------------------------------------------------

def reverse_rows(g: PatternGraph) -> PatternGraph:
    """Reverse the order of the first part."""
    _require_bipartite(g)
    e = tuple((g.n_u + 1 - u, v) for u, v in g.edges)
    return PatternGraph(BIPARTITE, g.n_u, g.n_v, e)


def reverse_columns(g: PatternGraph) -> PatternGraph:
    """Reverse the order of the second part."""
    _require_bipartite(g)
    e = tuple((u, g.n_v + 1 - v) for u, v in g.edges)
    return PatternGraph(BIPARTITE, g.n_u, g.n_v, e)


def swap_parts(g: PatternGraph) -> PatternGraph:
    """Exchange the two parts (matrix transpose)."""
    _require_bipartite(g)
    e = tuple((v, u) for u, v in g.edges)
    return PatternGraph(BIPARTITE, g.n_v, g.n_u, e)


_VARIANT_OPS = {"ru": reverse_rows, "rv": reverse_columns, "swap": swap_parts}

# Op sequences generating the full symmetry group of a bipartite pattern.
VARIANT_SEQUENCES: tuple[tuple[str, ...], ...] = (
    (),
    ("ru",),
    ("rv",),
    ("ru", "rv"),
    ("swap",),
    ("swap", "ru"),
    ("swap", "rv"),
    ("swap", "ru", "rv"),
)


def apply_variant(g: PatternGraph, ops: tuple[str, ...]) -> PatternGraph:
    for op in ops:
        g = _VARIANT_OPS[op](g)
    return g


@lru_cache(maxsize=4096)
def variants(g: PatternGraph) -> tuple[tuple[tuple[str, ...], PatternGraph], ...]:
    """The eight ``(ops, image)`` pairs of g in ``VARIANT_SEQUENCES``
    order, repeated images kept; each has g's extremal function.  Shared
    between callers, which is safe because every part is immutable."""
    _require_bipartite(g)
    # Each sequence extends an earlier one by its last op.
    images = {(): g}
    for ops in VARIANT_SEQUENCES[1:]:
        images[ops] = _VARIANT_OPS[ops[-1]](images[ops[:-1]])
    return tuple(images.items())


@lru_cache(maxsize=4096)
def bipartite_variants(g: PatternGraph) -> tuple[PatternGraph, ...]:
    """The distinct images of ``variants(g)``, sorted by the canonical key."""
    return tuple(sorted({h for _, h in variants(g)}, key=variant_key))


def canonical_variant(g: PatternGraph) -> PatternGraph:
    """The least variant under the canonical key; used for caching and search."""
    return bipartite_variants(g)[0]


def _require_bipartite(g: PatternGraph):
    if g.flavor != BIPARTITE:
        raise GraphValueError(f"operation requires a bipartite graph, got {g.flavor}")


# ---------------------------------------------------------------------------
# Vertex deletion, components, underlying cycles
# ---------------------------------------------------------------------------

def remove_isolated_vertices(g: PatternGraph) -> tuple[PatternGraph, tuple[int, int]]:
    """Drop degree-0 vertices, keeping the relative order of survivors.

    Returns the reindexed graph and the number of removed vertices per
    part (second count 0 unless bipartite).
    """
    du, dv = g.degrees()
    keep_u = [i + 1 for i in range(g.n_u) if du[i] > 0]
    removed_u = g.n_u - len(keep_u)
    if g.flavor == BIPARTITE:
        keep_v = [j + 1 for j in range(g.n_v) if dv[j] > 0]
        removed_v = g.n_v - len(keep_v)
        return induced_subgraph(g, keep_u, keep_v), (removed_u, removed_v)
    return induced_subgraph(g, keep_u), (removed_u, 0)


def induced_subgraph(g: PatternGraph, u_keep, v_keep=None) -> PatternGraph:
    """Induced subgraph on the given (1-based) vertices, reindexed from 1."""
    u_keep = sorted(u_keep)
    u_pos = {v: i + 1 for i, v in enumerate(u_keep)}
    if g.flavor == BIPARTITE:
        v_keep = sorted(v_keep if v_keep is not None else range(1, g.n_v + 1))
        v_pos = {v: i + 1 for i, v in enumerate(v_keep)}
        e = tuple((u_pos[u], v_pos[v]) for u, v in g.edges if u in u_pos and v in v_pos)
        return PatternGraph(BIPARTITE, len(u_keep), len(v_keep), e)
    e = tuple((u_pos[a], u_pos[b]) for a, b in g.edges if a in u_pos and b in u_pos)
    return PatternGraph(g.flavor, len(u_keep), 0, e)


def _underlying_adjacency(g: PatternGraph) -> list[list[int]]:
    """Neighbor lists of the underlying graph on vertices 1..n_u+n_v; a
    bipartite graph's second part is numbered after its first."""
    shift = g.n_u if g.flavor == BIPARTITE else 0
    adj = [[] for _ in range(g.n_u + g.n_v + 1)]
    for a, b in g.edges:
        adj[a].append(b + shift)
        adj[b + shift].append(a)
    return adj


def connected_components(g: PatternGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Components of the underlying graph as (u-vertices, v-vertices) pairs.

    For ordered and cyclic graphs the second tuple is always empty.
    Isolated vertices each form their own component.
    """
    adj = _underlying_adjacency(g)
    total = g.n_u + g.n_v
    seen = [False] * (total + 1)
    out = []
    for s in range(1, total + 1):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comp.sort()
        out.append((tuple(x for x in comp if x <= g.n_u),
                    tuple(x - g.n_u for x in comp if x > g.n_u)))
    return out


def underlying_shortest_cycle(g: PatternGraph) -> int | None:
    """Girth of the underlying order-forgotten simple graph, or None for a forest.

    For bipartite graphs the underlying graph is the union graph on
    n_u + n_v vertices.
    """
    adj = _underlying_adjacency(g)
    total = g.n_u + g.n_v
    best = None
    # BFS from every vertex; a non-tree edge at depths d1, d2 closes a
    # cycle of length d1 + d2 + 1 through the root.
    for root in range(1, total + 1):
        dist = [-1] * (total + 1)
        parent = [0] * (total + 1)
        dist[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y and dist[y] >= dist[x]:
                    length = dist[x] + dist[y] + 1
                    if best is None or length < best:
                        best = length
    return best
