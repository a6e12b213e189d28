"""Deterministic generators for the named pattern families.

Every generator returns a validated PatternGraph, so malformed indices
fail loudly at construction time rather than deep inside a search.
"""

from __future__ import annotations

from .graphs import (BIPARTITE, CYCLIC, ORDERED, GraphValueError, PatternGraph,
                     bipartite_graph, cyclic_graph, ordered_graph)


def as_permutation(values) -> tuple[int, ...]:
    """Validate that values is a bijection on {1..k}, k >= 1; return it as a tuple."""
    pi = tuple(int(v) for v in values)
    if not pi:
        raise GraphValueError("permutation patterns need at least one entry")
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise GraphValueError(f"not a permutation of 1..{len(pi)}: {pi}")
    return pi


def generalized_matching(m: int, pi, flavor: str = BIPARTITE) -> PatternGraph:
    """Matching pattern whose left vertices own blocks of m consecutive
    right vertices, blocks arranged by the permutation pi.

    Ordered flavor: (m+1)k vertices with edges from vertex j to vertex
    k + i + m(pi(j)-1) for i in 1..m.  Bipartite flavor: k rows, m*k
    columns, row j joined to the pi(j)-th block of m columns.  Cyclic
    flavor: the ordered construction read around a circle.  With m = 1
    and bipartite flavor this is the matrix encoding of pi.
    """
    if m < 1:
        raise GraphValueError("block size m must be at least 1")
    pi = as_permutation(pi)
    k = len(pi)
    if flavor == BIPARTITE:
        edges = [(j, i + m * (pi[j - 1] - 1))
                 for j in range(1, k + 1) for i in range(1, m + 1)]
        return bipartite_graph(k, m * k, edges)
    edges = [(j, k + i + m * (pi[j - 1] - 1))
             for j in range(1, k + 1) for i in range(1, m + 1)]
    if flavor == ORDERED:
        return ordered_graph((m + 1) * k, edges)
    if flavor == CYCLIC:
        return cyclic_graph((m + 1) * k, edges)
    raise GraphValueError(f"unknown flavor {flavor!r}")


def permutation_matching(pi) -> PatternGraph:
    """The ordered bipartite matching encoding a permutation (one edge per row)."""
    return generalized_matching(1, pi, BIPARTITE)


def keszegh_h(k: int) -> PatternGraph:
    """The k-th member of Keszegh's family of non-linear bipartite patterns.

    Both parts have 3k+4 vertices and there are 3k+5 edges: five fixed
    edges at the two ends plus a triple of edges for each i in 1..k.
    """
    if k < 1:
        raise GraphValueError("family index k must be at least 1")
    n = 3 * k + 4
    edges = [(4, 1), (1, 2), (1, 3), (3 * k + 3, 3 * k + 4), (3 * k + 2, 3 * k + 4)]
    for i in range(1, k + 1):
        edges.append((3 * i + 4, 3 * i + 1))
        edges.append((3 * i - 1, 3 * i + 3))
        edges.append((3 * i, 3 * i + 2))
    return bipartite_graph(n, n, edges)


def sailboat() -> PatternGraph:
    """The six-edge bipartite tree pattern with three rows and four columns.

    Fixed by reversing both parts simultaneously.  Its extremal function
    is the subject of the subexponential-factor upper bound handled as a
    special case by the bound engine.
    """
    return bipartite_graph(3, 4, [(1, 1), (2, 1), (3, 2), (1, 3), (2, 4), (3, 4)])


def ordered_turan(n: int, r: int) -> PatternGraph:
    """Complete r-partite ordered graph whose classes are consecutive intervals.

    Class sizes differ by at most one; the larger classes come first.
    The edge count equals the classical extremal count for r+1 cliques.
    """
    if r < 1:
        raise GraphValueError("class count r must be at least 1")
    if n < r:
        raise GraphValueError("need at least r vertices")
    base, extra = divmod(n, r)
    bounds = []
    start = 1
    for c in range(r):
        size = base + (1 if c < extra else 0)
        bounds.append((start, start + size - 1))
        start += size
    edges = []
    for ci in range(r):
        for cj in range(ci + 1, r):
            for a in range(bounds[ci][0], bounds[ci][1] + 1):
                for b in range(bounds[cj][0], bounds[cj][1] + 1):
                    edges.append((a, b))
    return ordered_graph(n, edges)


def complete_ordered(n: int) -> PatternGraph:
    """Complete ordered graph on n vertices."""
    return ordered_turan(n, n) if n >= 1 else ordered_graph(0, [])
