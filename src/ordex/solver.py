"""Exact extremal values and avoider counts at desk scale.

Bipartite hosts are solved by one row-transfer DP (the transfer-matrix
method, Stanley, *Enumerative Combinatorics* vol. 1, §4.7).  Host rows
are chosen top to bottom, each one of the 2^m column masks.  The state
after some rows is the set of partial embeddings that later rows could
still complete: an item (j, g) says pattern rows 1..j sit on earlier
host rows, and g holds the images of the kept columns, those a later
pattern row touches and the nearest placed column on each side of every
unplaced one (its anchors).  A mask that completes an item at j = k is
forbidden, and items that cannot finish in the rows left are dropped.
Two cuts drop items whose completions another item's include: the
Pareto cut, where an item of the same level agrees on every column but
the anchors that bound on one side only and leaves at least as much
room there, and the growth cut, where everything an item can grow into
next is already in the state.  The maximum and the avoider count are
recurrences over (rows left, state), memoised per (pattern, m) and
shared by every n.  The maximum tries masks largest first and stops
once a mask plus the optimum of the rows below cannot beat the best so
far.  The witness is rebuilt row by row, each row the first mask that
still reaches the optimum in the order that makes the sorted edge tuple
the lexicographically least among optimal hosts.

Ordered and cyclic hosts are solved by branch and bound over candidate
edges in lexicographic order.  Each branch decides the next candidate
in or out; including an edge triggers a containment check restricted
to embeddings through that edge, which is sound because the parent host
was avoidance-certified.  The first leaf reached by the include-first
walk is the greedy saturation, which seeds the best value so far.  A
branch is cut when no leaf below it can beat that value: besides the
count of cells left, two suffix bounds in the manner of Füredi and
Hajnal (1992) cap a branch at candidate (a, b) by the values ex(k) of
the same search on fewer vertices, since every sub-host of an avoiding
host avoids the pattern.  Because subsets are visited in lexicographic
order, the witness kept for the optimum is the lexicographically least
one here too, and values and witnesses are reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache

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

    if flavor != BIPARTITE:
        value, edges = _search(flavor, n, pattern)
    elif pattern.n_u > n or pattern.n_v > m:
        # No copy fits, so the full host is the least optimal one.
        value, edges = n * m, [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
    else:
        value, edges = _row_table(pattern, m)[0](n)
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


@lru_cache(maxsize=256)
def _row_table(pattern, m):
    """The row-transfer DP of a bipartite pattern on hosts with m columns.

    Returns ``(optimum, count)``: ``optimum(n)`` is the maximum edge
    count of an avoiding n x m host with its least witness edges, and
    ``count(n)`` the number of avoiding n x m hosts.  Host column h is
    bit h - 1 of a row mask.  An item is the flat tuple (j, *g) and a
    state the bit set of its items, each item's bit given out on first
    sight.

    Pattern row j + 1 extends an item by giving its new columns images
    inside their order gaps; each image leaves room for the unplaced
    columns between it and its neighbours, so the isolated columns fit
    once every row is placed.  Every memo is a ``functools`` cache in
    the returned closures, so clearing this ``lru_cache`` drops them
    all.
    """
    k, l = pattern.n_u, pattern.n_v
    masks = range(1 << m)
    sizes = [bin(S).count("1") for S in masks]
    by_size = sorted(masks, key=sizes.__getitem__, reverse=True)
    # A longer row with the same prefix sorts first: its sorted edge
    # tuple continues in this row, the shorter one in a later row.
    by_witness = sorted(masks, key=lambda S: [h for h in range(1, m + 1)
                                              if S >> (h - 1) & 1] + [m + 1])
    # The first and last pattern row touching each column; an isolated
    # column is never placed, and the sentinels 0 and l + 1 always are.
    first, last = [k + 1] * (l + 2), [0] * (l + 2)
    for a, b in pattern.edges:
        first[b] = min(first[b], a)
        last[b] = a
    first[0] = first[l + 1] = 0
    # Per level j, the kept columns and their roles (positions in an
    # item): a column is fixed when a later row touches it or it anchors
    # unplaced columns on both sides; an anchor of the unplaced columns
    # after it only (low) is better smaller, before it only (high) larger.
    kept, roles = [], []
    for j in range(k + 1):
        cols, fixed, low, high = [], [], [], []
        for c in range(1, l + 1):
            left, right = first[c + 1] > j, first[c - 1] > j
            if first[c] <= j and (last[c] > j or left or right):
                cols.append(c)
                (fixed if last[c] > j or left == right else low if left else high
                 ).append(len(cols))
        kept.append(cols)
        roles.append((fixed, low, high))
    # Per pattern row j + 1: the item positions of its placed columns,
    # its new columns with their neighbouring placed columns (0 and
    # l + 1 for none) and their positions, and where each kept column
    # of level j + 1 comes from in the item followed by the new images.
    steps = []
    for j, cols in enumerate(kept[:-1]):
        row = [b for a, b in pattern.edges if a == j + 1]
        new = [c for c in row if first[c] == j + 1]
        gaps = []
        for c in new:
            a, b = c - 1, c + 1
            while first[a] > j:
                a -= 1
            while first[b] > j:
                b += 1
            gaps.append((c, a, cols.index(a) if a else None,
                         b, cols.index(b) if b <= l else None))
        steps.append(([cols.index(c) for c in row if first[c] <= j], gaps,
                      [len(cols) + new.index(c) if c in new else cols.index(c)
                       for c in kept[j + 1]]))

    # Items by bit, with their class keys and the coordinates where
    # smaller is better; the items of each level and up, those with
    # such coordinates and those that can grow, as bit sets.
    items, ids, vectors, at_least = [], {}, [], [0] * (k + 1)
    free = growing = 0

    def ident(item):
        """The bit of ``item`` in a state, given out on first sight."""
        nonlocal free, growing
        if item not in ids:
            i = ids[item] = len(items)
            items.append(item)
            fixed, low, high = roles[item[0]]
            vectors.append(((item[0],) + tuple(item[p] for p in fixed),
                            tuple(item[p] for p in low) + tuple(-item[p] for p in high)))
            for j in range(item[0] + 1):
                at_least[j] |= 1 << i
            free |= bool(low or high) << i
            growing |= (item[0] + 1 < k) << i
        return ids[item]

    @cache
    def moves(i):
        """The masks that complete item i as a bit set, or else per mask
        the state of the items it grows into."""
        j, g = items[i][0], items[i][1:]
        old, gaps, src = steps[j]
        found = []

        def walk(t, prev_c, prev_h, need, images):
            if t == len(gaps):
                both = g + images
                found.append((need, (j + 1,) + tuple(both[s] for s in src)))
                return
            c, a, pa, b, pb = gaps[t]
            lo = prev_h + c - prev_c if prev_c > a else (g[pa] if a else 0) + c - a
            hi = (g[pb] if b <= l else m + 1) - (b - c)
            for h in range(lo, hi + 1):
                walk(t + 1, c, h, need | 1 << (h - 1), images + (h,))

        walk(0, 0, 0, sum(1 << (g[p] - 1) for p in old), ())
        if j + 1 == k:
            return sum(1 << S for S in masks
                       if any(need & S == need for need, _ in found)), None
        table = [0] * len(masks)
        for need, nxt in found:
            bit = 1 << ident(nxt)
            for S in masks:
                if need & S == need:
                    table[S] |= bit
        return 0, table

    def bits(state):
        while state:
            low = state & -state
            yield low.bit_length() - 1
            state ^= low

    @cache
    def reduce(state):
        """Drop items whose completions another item's include: the Pareto
        cut within a class, then items whose every next-level item is
        present or cut (the state already holds what they would grow
        into, and it outlives them)."""
        fronts = {}
        for key, vec, i in sorted(vectors[i] + (i,) for i in bits(state & free)):
            front = fronts.setdefault(key, [])
            if any(all(x <= y for x, y in zip(f, vec)) for f in front):
                state ^= 1 << i
            else:
                front.append(vec)

        def dominated(i):
            key, vec = vectors[i]
            return any(all(x <= y for x, y in zip(f, vec)) for f in fronts.get(key, ()))

        out = state
        for i in bits(state & growing):
            missing = moves(i)[1][-1] & ~state
            if not missing & ~free and all(map(dominated, bits(missing))):
                out ^= 1 << i
        return out

    def expand(state, left):
        """The masks a state forbids and its successor after a row with
        mask S, ``left`` rows still to come."""
        lowest = k - left  # the lowest level that can still finish
        banned, grow = 0, []
        for i in bits(state):
            forbid, table = moves(i)
            banned |= forbid
            if table and items[i][0] + 1 >= lowest:
                grow.append(table)
        stay = state & at_least[max(lowest, 0)]

        def successor(S):
            out = stay
            for table in grow:
                out |= table[S]
            return reduce(out)

        return banned, successor

    origin = 1 << ident((0,))

    def start(r):
        return origin if k <= r and l <= m else 0

    @cache
    def best(r, state):
        """The optimum of ``state`` with r rows left."""
        if r == 0:
            return 0
        banned, successor = expand(state, r - 1)
        # No state with r - 1 rows left beats the start state's optimum.
        bound = best(r - 1, start(r - 1))
        top = -math.inf
        for S in by_size:
            if banned >> S & 1:
                continue
            if sizes[S] + bound <= top:
                break
            top = max(top, sizes[S] + best(r - 1, successor(S)))
        return top

    @cache
    def count(r, state):
        if r == 0:
            return 1
        banned, successor = expand(state, r - 1)
        return sum(count(r - 1, successor(S)) for S in masks if not banned >> S & 1)

    def optimum(n):
        state = start(n)
        value = target = best(n, state)
        edges = []
        for r in range(n, 0, -1):
            banned, successor = expand(state, r - 1)
            bound = best(r - 1, start(r - 1))
            for S in by_witness:
                if banned >> S & 1 or sizes[S] + bound < target:
                    continue
                nxt = successor(S)
                if sizes[S] + best(r - 1, nxt) == target:
                    break
            edges += [(n - r + 1, h) for h in range(1, m + 1) if S >> (h - 1) & 1]
            target -= sizes[S]
            state = nxt
        return value, edges

    return optimum, lambda n: count(n, start(n))


@lru_cache(maxsize=4096)
def _search(flavor, n, pattern):
    """Include-first DFS with incremental containment checks on ordered
    and cyclic hosts.

    One host index serves both flavors; a cyclic one covers all
    rotations of the host (see ``HostIndex``).  Every inclusion is
    checked only for embeddings through the new edge, which is sound
    because the parent host avoids the pattern.

    Candidates run row by row, so at candidate (a, b) every undecided
    edge lies in the rest of row a or in the sub-host on vertices
    a+1..n, and vertices a..n hold row a's chosen edges too.  Those
    sub-hosts avoid the pattern, so a branch is cut when neither

        chosen + min(cells left, row rest + ex[n-a])
        chosen before row a + ex[n-a+1]

    can beat the best leaf so far.  ``ex[k]`` for k < n is this same
    memoised search on k vertices, so a sub-host too small for a copy
    comes back full.  ``ex[n]`` is the cell count, standing in for the
    value being computed.  Both are upper bounds on every leaf below,
    so the first include-first leaf reaching the optimum is never cut
    and the witness stays the lexicographically least; before any leaf
    (best = -1) neither test can hold.

    Results are memoised per (flavor, n, pattern) and shared between
    top-level solves and the sub-searches behind ``ex``, so a growth
    table ascending n solves each size once.
    """
    candidates = list(itertools.combinations(range(1, n + 1), 2))
    total = len(candidates)
    ex = [_search(flavor, k, pattern)[0] for k in range(n)] + [total]
    P = pattern_index(pattern)
    H = HostIndex(flavor, n, 0)
    chosen = []
    best = -1
    best_edges = ()

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
        if c + n - b + 1 + ex[n - a] <= best or base + ex[n - a + 1] <= best:
            return
        row_ends = b == n
        H.add_edge(e)
        if not uses_edge(P, H, e):
            chosen.append(e)
            walk(i + 1, c + 1 if row_ends else base)
            chosen.pop()
        H.remove_edge(e)
        walk(i + 1, c if row_ends else base)

    walk(0, 0)
    return best, best_edges


def count_avoiders(n: int, pattern: PatternGraph,
                   caps: SolverCaps = DEFAULT_CAPS) -> int:
    """Number of n-by-n bipartite hosts avoiding the pattern, exactly.

    The row-transfer DP of ``max_edges_avoiding`` sums over the allowed
    row masks instead of maximising.  n = 0 counts the empty host;
    negative n is refused.
    """
    if pattern.flavor != BIPARTITE:
        raise GraphValueError("avoider counting is over bipartite hosts")
    if not pattern.edges:
        raise GraphValueError("pattern graphs need at least one edge")
    if n < 0:
        raise GraphValueError("host size n must be non-negative")
    if n > caps.avoiders:
        raise SizeCapError(f"size cap exceeded: {n} over avoider cap {caps.avoiders}")
    return _row_table(pattern, n)[1](n)


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
