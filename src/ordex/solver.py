"""Exact extremal values and avoider counts at desk scale.

The central routine maximizes the edge count of a host avoiding a
pattern by branch and bound over candidate edges in lexicographic
order.  Each branch decides the next candidate in or out; including an
edge triggers a containment check restricted to embeddings through that
edge, which is sound because the parent host was avoidance-certified.
The first leaf reached by the include-first walk is the greedy
saturation, which seeds the best value so far.

A branch is cut when no leaf below it can beat that value.  Besides
the count of cells left, two suffix bounds in the manner of Füredi and
Hajnal (1992) cap a branch at candidate (a, b): every sub-host of an
avoiding host avoids the pattern, so the cells after row a hold at
most ex(n-a) edges, and rows a..n, with the edges row a already has,
hold at most ex(n-a+1).  The ex values of smaller instances come from
the same search, memoised per (flavor, size, m, pattern) for
top-level solves and sub-searches alike.  Every bound holds for every
leaf below the branch and a cut needs it to be no better than the best
so far, so the first leaf of the include-first walk that reaches the
optimum is never cut.  Because subsets are visited in lexicographic
order, the witness kept for the optimum is the lexicographically least
one, and values and witnesses are reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .catalog import as_permutation
from .config import DEFAULT_CAPS, SolverCaps
from .containment import HostIndex, contains, pattern_index, uses_edge
from .graphs import BIPARTITE, ORDERED, GraphValueError, PatternGraph


class SizeCapError(ValueError):
    """A requested instance exceeds the configured solver caps."""


@dataclass(frozen=True)
class ExtremalRecord:
    """One solved instance: the exact optimum and a witness attaining it."""

    flavor: str
    pattern: PatternGraph
    n: int
    m: int
    value: int
    witness: PatternGraph

    def witness_ok(self) -> bool:
        """The witness is an n x m host of the flavor with ``value`` edges
        that avoids the pattern."""
        w = self.witness
        return ((w.flavor, w.n_u, w.n_v) == (self.flavor, self.n, self.m)
                and w.n_edges == self.value
                and contains(w, self.pattern) is None)


def _candidate_edges(flavor: str, n: int, m: int) -> list[tuple[int, int]]:
    if flavor == BIPARTITE:
        return [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
    return list(itertools.combinations(range(1, n + 1), 2))


def max_edges_avoiding(flavor: str, n: int, pattern: PatternGraph,
                       m: int | None = None,
                       caps: SolverCaps = DEFAULT_CAPS) -> ExtremalRecord:
    """Exact maximum edge count of an avoiding host, with witness.

    For bipartite instances m gives the second part size and must be
    present; for the other flavors it must be omitted.  Raises
    SizeCapError beyond the configured caps and validates the witness
    before returning it.
    """
    if not pattern.edges:
        raise GraphValueError("pattern graphs need at least one edge")
    if flavor != pattern.flavor:
        raise GraphValueError(
            f"pattern flavor {pattern.flavor} does not match host flavor {flavor}")
    if flavor == BIPARTITE:
        if m is None:
            raise GraphValueError("bipartite instances need both part sizes")
    elif m is not None:
        raise GraphValueError("only bipartite instances take a second size")
    _check_size_cap(flavor, n, m, caps)
    m = m or 0
    if n < 0 or m < 0:
        raise GraphValueError("negative part size")

    value, edges = _search(flavor, n, m, pattern)
    rec = ExtremalRecord(flavor, pattern, n, m, value,
                         PatternGraph(flavor, n, m, tuple(edges)))
    if not rec.witness_ok():
        raise AssertionError("solver produced an invalid witness")
    return rec


def _check_size_cap(flavor: str, n: int, m: int | None, caps: SolverCaps):
    """Refuse an n-vertex (n x m bipartite) instance beyond its flavor's cap."""
    cap = {BIPARTITE: caps.bipartite, ORDERED: caps.ordered}.get(flavor, caps.cyclic)
    size = f"{n}x{m}" if flavor == BIPARTITE else str(n)
    if n > cap or (flavor == BIPARTITE and m > cap):
        raise SizeCapError(f"size cap exceeded: {size} over {flavor} cap {cap}")


@lru_cache(maxsize=4096)
def _search(flavor, n, m, pattern):
    """Include-first DFS with incremental containment checks.

    One host index serves every flavor; a cyclic one covers all
    rotations of the host (see ``HostIndex``).  Every inclusion is
    checked only for embeddings through the new edge, which is sound
    because the parent host avoids the pattern.

    Candidates run row by row, so at candidate (a, b) every undecided
    edge lies in the rest of row a or in the sub-host on rows (vertices)
    a+1..n, and rows a..n hold row a's chosen edges too.  Those
    sub-hosts avoid the pattern, so a branch is cut when neither

        chosen + min(cells left, row rest + ex(n-a))
        chosen before row a + ex(n-a+1)

    can beat the best leaf so far (``_suffix_value`` gives ex).  Both are
    upper bounds on every leaf below, so the first include-first leaf
    reaching the optimum is never cut and the witness stays the
    lexicographically least.

    Results are memoised per (flavor, n, m, pattern) and shared between
    top-level solves and the sub-searches behind the suffix bounds, so a
    growth table ascending n solves each size once.
    """
    candidates = _candidate_edges(flavor, n, m)
    total = len(candidates)
    width = m if flavor == BIPARTITE else n
    P = pattern_index(pattern)
    H = HostIndex(flavor, n, m)
    chosen = []
    best = -1
    best_edges = ()
    # Per row a: (ex(n-a), ex(n-a+1)), filled the first time a branch in
    # the row could be cut (a leaf exists), with total standing in for
    # the whole host's own value, which is what this search computes.
    row_bounds = [None] * (n + 1)

    def walk(i, base):
        nonlocal best, best_edges
        c = len(chosen)
        if c + total - i <= best:
            return
        if i == total:
            best, best_edges = c, tuple(chosen)
            return
        e = candidates[i]
        a, b = e
        if best >= 0:
            bounds = row_bounds[a]
            if bounds is None:
                bounds = row_bounds[a] = (
                    _suffix_value(flavor, n - a, m, pattern),
                    _suffix_value(flavor, n - a + 1, m, pattern) if a > 1 else total)
            if c + width - b + 1 + bounds[0] <= best or base + bounds[1] <= best:
                return
        row_ends = b == width
        H.add_edge(e)
        if not uses_edge(P, H, e):
            chosen.append(e)
            walk(i + 1, c + 1 if row_ends else base)
            chosen.pop()
        H.remove_edge(e)
        walk(i + 1, c if row_ends else base)

    walk(0, 0)
    return best, best_edges


def _suffix_value(flavor, k, m, pattern):
    """Exact maximum on k rows (k x m bipartite) or k vertices.

    Fewer rows or vertices than the pattern's first part cannot hold a
    copy, so every cell counts; otherwise the memoised ``_search`` solves
    the smaller instance, itself pruned by smaller values.
    """
    if k < pattern.n_u:
        return k * m if flavor == BIPARTITE else k * (k - 1) // 2
    return _search(flavor, k, m, pattern)[0]


def count_avoiders(n: int, pattern: PatternGraph,
                   caps: SolverCaps = DEFAULT_CAPS) -> int:
    """Number of n-by-n bipartite hosts avoiding the pattern, exactly.

    Exhaustive over all 2^(n^2) hosts, but a subtree is skipped as soon
    as a partial host contains the pattern, since containment is
    monotone under adding edges.  n = 0 counts the empty host; negative
    n is refused.
    """
    if pattern.flavor != BIPARTITE:
        raise GraphValueError("avoider counting is over bipartite hosts")
    if not pattern.edges:
        raise GraphValueError("pattern graphs need at least one edge")
    if n < 0:
        raise GraphValueError("host size n must be non-negative")
    if n > caps.avoiders:
        raise SizeCapError(f"size cap exceeded: {n} over avoider cap {caps.avoiders}")
    cells = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    P = pattern_index(pattern)
    H = HostIndex(BIPARTITE, n, n)

    def walk(i):
        if i == len(cells):
            return 1
        total = walk(i + 1)
        e = cells[i]
        H.add_edge(e)
        if not uses_edge(P, H, e):
            total += walk(i + 1)
        H.remove_edge(e)
        return total

    return walk(0)


def count_avoiding_permutations(n: int, pi,
                                caps: SolverCaps = DEFAULT_CAPS) -> int:
    """Number of n-permutations avoiding the permutation pattern pi.

    Backtracking over prefixes; a prefix is abandoned as soon as its
    last entry completes an occurrence of the pattern, so only avoiding
    prefixes are ever extended.  The pattern must be non-empty and n
    non-negative.
    """
    pi = as_permutation(pi)
    k = len(pi)
    if k == 0:
        raise GraphValueError("permutation patterns need at least one entry")
    if n < 0:
        raise GraphValueError("permutation length n must be non-negative")
    if n > caps.permutations:
        raise SizeCapError(
            f"size cap exceeded: {n} over permutation cap {caps.permutations}")
    if k > n:
        # Too short to ever contain the pattern.
        return math.factorial(n)
    prefix = []
    # The pattern's positions in value order: k entries form an
    # occurrence when their values, read in this order, increase.
    by_value = sorted(range(k), key=lambda t: pi[t])

    def last_completes_occurrence():
        last = prefix[-1]
        for combo in itertools.combinations(prefix[:-1], k - 1):
            values = combo + (last,)
            prev = 0
            for t in by_value:
                if values[t] < prev:
                    break
                prev = values[t]
            else:
                return True
        return False

    used = [False] * (n + 1)

    def walk():
        if len(prefix) == n:
            return 1
        total = 0
        for v in range(1, n + 1):
            if used[v]:
                continue
            used[v] = True
            prefix.append(v)
            if not last_completes_occurrence():
                total += walk()
            prefix.pop()
            used[v] = False
        return total

    return walk()


@dataclass(frozen=True)
class GrowthRow:
    n: int
    value: int
    per_n: float
    per_n_log_n: float | None


def growth_table(pattern: PatternGraph, flavor: str, n_range,
                 caps: SolverCaps = DEFAULT_CAPS, cache=None) -> list[GrowthRow]:
    """Exact values over a range of sizes with linear and n log n ratios.

    Logarithms are binary.  The n log n ratio is None at n = 1.  A cache
    (see ordex.cache) is consulted and filled when provided.  Sizes below
    1 or beyond the caps are refused before anything is solved.
    """
    sizes = list(n_range)
    if any(n < 1 for n in sizes):
        raise GraphValueError("growth tables need sizes of at least 1")
    for n in sizes:
        _check_size_cap(flavor, n, n, caps)
    rows = []
    for n in sizes:
        m = n if flavor == BIPARTITE else None
        if cache is not None:
            rec = cache.fetch(flavor, pattern, n, m, caps=caps)
        else:
            rec = max_edges_avoiding(flavor, n, pattern, m=m, caps=caps)
        denom = n * math.log2(n) if n > 1 else None
        rows.append(GrowthRow(n, rec.value, rec.value / n,
                              rec.value / denom if denom else None))
    return rows
