"""Exact extremal values and avoider counts at desk scale.

The central routine maximizes the edge count of a host avoiding a
pattern by branch and bound over candidate edges in lexicographic
order.  Each branch decides the next candidate in or out; including an
edge triggers a containment check restricted to embeddings through that
edge, which is sound because the parent host was avoidance-certified.
The first leaf reached by the include-first walk is the greedy
saturation, which seeds the bound, and because subsets are visited in
lexicographic order the witness kept for the optimum is the
lexicographically least one.  Values and witnesses are therefore
reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .catalog import as_permutation
from .containment import HostIndex, contains, pattern_index, uses_edge
from .graphs import BIPARTITE, ORDERED, GraphValueError, PatternGraph


class SizeCapError(ValueError):
    """A requested instance exceeds the configured solver caps."""


@dataclass(frozen=True)
class SolverCaps:
    """Per-flavor instance size guards; exceeding one is a refusal, not a clamp."""

    ordered: int = 12
    bipartite: int = 8
    cyclic: int = 12
    avoiders: int = 4
    permutations: int = 10

    def __post_init__(self):
        for name in ("ordered", "bipartite", "cyclic", "avoiders", "permutations"):
            if getattr(self, name) < 1:
                raise GraphValueError(f"cap {name} must be positive")


DEFAULT_CAPS = SolverCaps()


@dataclass(frozen=True)
class ExtremalRecord:
    """One solved instance: the exact optimum and a witness attaining it."""

    flavor: str
    pattern: PatternGraph
    n: int
    m: int
    value: int
    witness: PatternGraph


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
        cap = caps.bipartite
        if n > cap or m > cap:
            raise SizeCapError(
                f"size cap exceeded: {n}x{m} over bipartite cap {cap}")
    else:
        if m is not None:
            raise GraphValueError("only bipartite instances take a second size")
        cap = caps.ordered if flavor == ORDERED else caps.cyclic
        if n > cap:
            raise SizeCapError(f"size cap exceeded: {n} over {flavor} cap {cap}")
        m = 0

    value, edges = _search(flavor, n, m, pattern)
    witness = PatternGraph(flavor, n, m, tuple(edges))
    if witness.n_edges != value or contains(witness, pattern) is not None:
        raise AssertionError("solver produced an invalid witness")
    return ExtremalRecord(flavor, pattern, n, m, value, witness)


def _search(flavor, n, m, pattern):
    """Include-first DFS with incremental containment checks.

    One host index serves every flavor; a cyclic one covers all
    rotations of the host (see ``HostIndex``).  Every inclusion is
    checked only for embeddings through the new edge, which is sound
    because the parent host avoids the pattern.
    """
    candidates = _candidate_edges(flavor, n, m)
    total = len(candidates)
    P = pattern_index(pattern)
    H = HostIndex(flavor, n, m)
    chosen = []
    best = {"value": -1, "edges": ()}

    def walk(i):
        if len(chosen) + (total - i) <= best["value"]:
            return
        if i == total:
            best["value"] = len(chosen)
            best["edges"] = tuple(chosen)
            return
        e = candidates[i]
        H.add_edge(e)
        if not uses_edge(P, H, e):
            chosen.append(e)
            walk(i + 1)
            chosen.pop()
        H.remove_edge(e)
        walk(i + 1)

    walk(0)
    return best["value"], best["edges"]


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
    pattern_ranks = sorted(range(k), key=lambda t: pi[t])

    def last_completes_occurrence():
        i = len(prefix) - 1
        for combo in itertools.combinations(range(i), k - 1):
            positions = list(combo) + [i]
            values = [prefix[p] for p in positions]
            ranks = sorted(range(k), key=lambda t: values[t])
            if ranks == pattern_ranks:
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
    1 are refused before anything is solved.
    """
    sizes = list(n_range)
    if any(n < 1 for n in sizes):
        raise GraphValueError("growth tables need sizes of at least 1")
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
