"""Exact extremal values and avoider counts at desk scale.

Every flavor is solved by one row-transfer DP (the transfer-matrix
method, Stanley, *Enumerative Combinatorics* vol. 1, §4.7).  Host rows
are chosen top to bottom, each one a mask: row a of a bipartite host
holds its edges to the m columns, and row a of an ordered host is
vertex a's right neighbourhood, a mask over the later vertices.  The
state after some rows is the set of partial embeddings that later rows
could still complete.  An item says that pattern rows (vertices) 1..j
sit on earlier host rows and holds the images that still matter.  On a
row mask an item moves in three ways:

* it stays, placing nothing on this row;
* it grows by placing row j + 1 here: the images of that row's placed
  neighbours must be bits of the mask, and its new neighbours get
  images among the mask's bits inside their order gaps, each leaving
  room for the unplaced rows between;
* it completes the pattern, which forbids the mask.

The flavors differ only in those moves, in the mask width and in the
host labels of a row's edges:

* bipartite: masks have m bits.  An item holds the kept column images,
  those a later pattern row touches and the nearest placed column on
  each side of every unplaced one (its anchors).  Images are absolute,
  so a staying item is unchanged.  Placing the last pattern row
  completes the pattern.
* ordered: with r rows left the mask has r - 1 bits.  An item holds an
  offset from the current row for every unplaced vertex with a placed
  neighbour (a commitment).  A staying item shifts every offset down by
  one, so the next vertex can take a row only when it is uncommitted or
  committed to offset 0.  Placing the last vertex with a later
  neighbour completes the pattern.  Offsets are relative, so one table
  serves every n.
* cyclic: a host avoids a pattern exactly when its linear reading
  avoids every rotation of it (``graphs.rotate_cyclic``) read as an
  ordered pattern, so a cyclic solve is the ordered DP over the set of
  distinct rotations.

Items that cannot finish in the rows left are dropped.  For bipartite
hosts two cuts drop items whose completions another item's include:
the Pareto cut, where an item of the same level agrees on every column
but the anchors that bound on one side only and leaves at least as much
room there, and the growth cut, where everything an item can grow into
next is already in the state.  The maximum and the avoider count are
recurrences over (rows left, state), memoised per table and shared by
every n.  The maximum tries masks largest first and stops once a mask
plus the optimum of the rows below cannot beat the best so far.  The
witness is rebuilt row by row, each row the first mask that still
reaches the optimum in the order that makes the sorted edge tuple the
lexicographically least among optimal hosts, so values and witnesses
are reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache

from .catalog import as_permutation
from .config import DEFAULT_CAPS, SolverCaps
from .containment import contains
from .graphs import (BIPARTITE, CYCLIC, ORDERED, GraphValueError, PatternGraph,
                     rotate_cyclic)


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

    if flavor == CYCLIC:
        # A cyclic host avoids the pattern exactly when its linear
        # reading avoids every rotation of it as an ordered pattern.
        patterns = tuple(dict.fromkeys(rotate_cyclic(pattern, s)
                                       for s in range(pattern.n_u)))
    else:
        patterns = (pattern,)
    value, edges = _row_table(patterns, m if flavor == BIPARTITE else None)[0](n)
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


@cache
def _mask_orders(w):
    """Row masks of width w: their sizes, largest first, and in witness
    order.  A longer row with the same prefix sorts first in witness
    order: its sorted edge tuple continues in this row, the shorter one
    in a later row."""
    masks = range(1 << w)
    sizes = [bin(S).count("1") for S in masks]
    by_size = sorted(masks, key=sizes.__getitem__, reverse=True)
    by_witness = sorted(masks, key=lambda S: [h for h in range(1, w + 1)
                                              if S >> (h - 1) & 1] + [w + 1])
    return sizes, by_size, by_witness


def _column_steps(pattern):
    """The bipartite stages: stage j places pattern row j + 1.

    Returns ``(k, steps, roles, origins)`` in the form ``_row_table``
    reads (see ``_vertex_steps``).  An item holds the kept column
    images: a column is kept while a later row touches it or it anchors
    unplaced columns (it is the nearest placed column on a side of
    one).  ``roles[j]`` names the positions of level j's kept columns:
    fixed when a later row touches it or it anchors on both sides, low
    when it anchors only the unplaced columns after it (better smaller)
    and high when only those before it (better larger).  Row j + 1's
    new columns get images inside their order gaps, each leaving room
    for the unplaced columns between it and its neighbours, so the
    isolated columns fit once every row is placed.
    """
    k, l = pattern.n_u, pattern.n_v
    # The first and last pattern row touching each column; an isolated
    # column is never placed, and the sentinels 0 and l + 1 always are.
    first, last = [k + 1] * (l + 2), [0] * (l + 2)
    for a, b in pattern.edges:
        first[b] = min(first[b], a)
        last[b] = a
    first[0] = first[l + 1] = 0
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
        steps.append((j, None, [cols.index(c) for c in row if first[c] <= j], gaps,
                      [len(cols) + new.index(c) if c in new else cols.index(c)
                       for c in kept[j + 1]], j + 1 == k, 0))
    return k, steps, roles, [0]


def _vertex_steps(patterns):
    """The ordered stages of a set of patterns on k vertices each.

    Returns ``(k, steps, roles, origins)``.  A pattern's stage j places
    vertex v = j + 1 on the current row; ``origins`` lists each
    pattern's stage 0 and stage s + 1 follows stage s.  An item of stage
    j holds an offset from the current row for each committed vertex,
    an unplaced vertex with a placed neighbour, in vertex order.
    ``steps[s]`` is ``(j, at, old, gaps, src, done, tight)``:

    * ``at``: v's position among the committed (0) when v is committed;
      v takes the row only at offset 0;
    * ``old``: positions of v's committed later neighbours, whose
      offsets must be bits of the mask;
    * ``gaps``: per uncommitted later neighbour q, ascending, ``(q, a,
      pa, b, pb)``: its nearest placed or committed vertices a before
      it (v itself at offset 0, ``pa`` None) and b after it (the
      sentinel k + 1 one past the mask, ``pb`` None), each with its
      position; q's offset leaves room for the vertices between;
    * ``src``: where each offset of the next stage comes from, in the
      committed offsets followed by the new ones;
    * ``done``: v is the pattern's last vertex with a later neighbour,
      so placing it completes the pattern;
    * ``tight``: staying shifts every offset down by one, which leaves
      room for the unplaced vertices before the first committed one
      only while its offset is at least ``tight``.

    ``roles`` is None per stage: the Pareto and growth cuts are
    bipartite only.
    """
    k = patterns[0].n_u
    steps, origins = [], []
    for pattern in patterns:
        later = [[] for _ in range(k + 1)]
        first = [k + 1] * (k + 1)
        for a, b in pattern.edges:
            later[a].append(b)
            first[b] = min(first[b], a)
        origins.append(len(steps))
        for j in range(pattern.edges[-1][0]):
            v = j + 1
            held = [q for q in range(v, k + 1) if first[q] <= j]
            new = [q for q in later[v] if first[q] == v]
            gaps = []
            for q in new:
                a = max([c for c in held if c < q], default=v)
                b = min([c for c in held if c > q], default=k + 1)
                gaps.append((q, a, None if a == v else held.index(a),
                             b, held.index(b) if b <= k else None))
            nxt = [q for q in range(v + 1, k + 1) if first[q] <= v]
            steps.append((j, 0 if held and held[0] == v else None,
                          [held.index(q) for q in later[v] if q in held], gaps,
                          [held.index(q) if q in held else len(held) + new.index(q)
                           for q in nxt],
                          v == pattern.edges[-1][0], held[0] - j if held else 0))
    return k, steps, [None] * len(steps), origins


@lru_cache(maxsize=256)
def _row_table(patterns, m):
    """The row-transfer DP of hosts avoiding every pattern of ``patterns``.

    ``m`` is the column count of bipartite hosts (one pattern), or None
    for ordered hosts.  Returns ``(optimum, count)``: ``optimum(n)`` is
    the maximum edge count of an avoiding n-row host with its least
    witness edges, and ``count(n)`` the number of avoiding n-row hosts.
    Bit t - 1 of a row mask is host column t, or the t-th vertex after
    the row's own.  An item is the flat tuple (stage, *g), g its images
    (columns, or offsets from the current row), and a state the bit set
    of its items, each item's bit given out on first sight.  Every memo
    is a ``functools`` cache in the returned closures, so clearing this
    ``lru_cache`` drops them all.
    """
    if m is None:
        k, steps, roles, origin_stages = _vertex_steps(patterns)
        fits, shift = True, 1
    else:
        k, steps, roles, origin_stages = _column_steps(patterns[0])
        fits, shift = patterns[0].n_v <= m, 0

    # Items by bit, with their levels, class keys and the coordinates
    # where smaller is better; the items of each level and up, those
    # with such coordinates and those that can grow, as bit sets.
    items, ids, levels, vectors, at_least = [], {}, [], [], [0] * (k + 1)
    free = growing = 0

    def ident(item):
        """The bit of ``item`` in a state, given out on first sight."""
        nonlocal free, growing
        if item not in ids:
            i = ids[item] = len(items)
            items.append(item)
            j = steps[item[0]][0]
            levels.append(j)
            for x in range(j + 1):
                at_least[x] |= 1 << i
            if roles[item[0]]:
                fixed, low, high = roles[item[0]]
                vectors.append(((j,) + tuple(item[p] for p in fixed),
                                tuple(item[p] for p in low) + tuple(-item[p] for p in high)))
                free |= bool(low or high) << i
                growing |= (j + 1 < k) << i
            else:
                vectors.append(None)
        return ids[item]

    @cache
    def moves(i, w):
        """On a row mask of width w: the masks that complete item i as a
        bit set, the bit of what it becomes when it stays (0 if it
        cannot), and per mask the state of the items it grows into (None
        if it cannot grow)."""
        stage, g = items[i][0], items[i][1:]
        _, at, old, gaps, src, done, tight = steps[stage]
        found = []

        def walk(t, prev_c, prev_h, need, images):
            if t == len(gaps):
                both = g + images
                found.append((need, (stage + 1,) + tuple(both[s] - shift for s in src)))
                return
            c, a, pa, b, pb = gaps[t]
            lo = prev_h + c - prev_c if prev_c > a else (0 if pa is None else g[pa]) + c - a
            hi = (w + 1 if pb is None else g[pb]) - (b - c)
            for h in range(lo, hi + 1):
                walk(t + 1, c, h, need | 1 << (h - 1), images + (h,))

        if at is None or g[at] == 0:
            walk(0, 0, 0, sum(1 << (g[p] - 1) for p in old), ())
        if not shift:
            keep = 1 << i
        elif g and g[0] < tight:
            keep = 0
        else:
            keep = 1 << ident((stage,) + tuple(x - 1 for x in g))
        masks = range(1 << w)
        if done:
            return sum(1 << S for S in masks
                       if any(need & S == need for need, _ in found)), keep, None
        if not found:
            return 0, keep, None
        table = [0] * len(masks)
        for need, nxt in found:
            bit = 1 << ident(nxt)
            for S in masks:
                if need & S == need:
                    table[S] |= bit
        return 0, keep, table

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
            table = moves(i, m)[2]  # None for an item that can never grow
            missing = (table[-1] if table else 0) & ~state
            if not missing & ~free and all(map(dominated, bits(missing))):
                out ^= 1 << i
        return out

    def expand(state, r):
        """The width of a row with r rows left (this one included), the
        masks the state forbids there and its successor after the row
        with mask S."""
        w = r - 1 if m is None else m
        lowest = k - r + 1  # the lowest level that can still finish
        banned = stay = 0
        grow = []
        for i in bits(state):
            forbid, keep, table = moves(i, w)
            banned |= forbid
            stay |= keep
            if table and levels[i] + 1 >= lowest:
                grow.append(table)
        stay &= at_least[max(lowest, 0)]

        def successor(S):
            out = stay
            for table in grow:
                out |= table[S]
            return reduce(out) if out & (free | growing) else out

        return w, banned, successor

    origin = sum(1 << ident((s,)) for s in origin_stages)

    def start(r):
        return origin if k <= r and fits else 0

    @cache
    def best(r, state):
        """The optimum of ``state`` with r rows left."""
        if r == 0:
            return 0
        w, banned, successor = expand(state, r)
        sizes, by_size, _ = _mask_orders(w)
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
        w, banned, successor = expand(state, r)
        return sum(count(r - 1, successor(S)) for S in range(1 << w)
                   if not banned >> S & 1)

    def optimum(n):
        state = start(n)
        value = target = best(n, state)
        edges = []
        for r in range(n, 0, -1):
            w, banned, successor = expand(state, r)
            sizes, _, by_witness = _mask_orders(w)
            bound = best(r - 1, start(r - 1))
            for S in by_witness:
                if banned >> S & 1 or sizes[S] + bound < target:
                    continue
                nxt = successor(S)
                if sizes[S] + best(r - 1, nxt) == target:
                    break
            # Row a's edges: to column t, or to the t-th vertex after a.
            a = n - r + 1
            base = a if m is None else 0
            edges += [(a, base + t) for t in range(1, w + 1) if S >> (t - 1) & 1]
            target -= sizes[S]
            state = nxt
        return value, edges

    return optimum, lambda n: count(n, start(n))


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
    return _row_table((pattern,), n)[1](n)


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
