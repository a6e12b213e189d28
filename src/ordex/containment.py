"""Order-preserving pattern containment testing.

The searcher places pattern vertices one at a time, in an order chosen
when the pattern is compiled (``PatternIndex``): a part's vertices need
not be placed left to right.  A partial placement is fully described by
the images of a small boundary: the placed vertices that still have an
unplaced pattern neighbor, or that bound the window of an unplaced
vertex of their part (as the nearest placed vertex on its left or on
its right).  Partial placements with the same boundary images are
interchangeable, so the search runs as a layered dynamic program over
deduplicated boundary states instead of a tree.  A state lists the
images of the boundary vertices a step keeps, in their previous order,
and then the image of the vertex just placed, so a child state is its
parent's projection plus one image.  The host is one int bitmask of
neighbors per vertex, so a state's candidates are its two-sided window
ANDed with the host neighborhoods of its placed pattern neighbors.

On top of deduplication, a boundary vertex kept only as a window bound
is a pure coordinate, with a direction.  What is left to place
constrains it only through windows: as a left bound it gives the
vertices on its right a lower bound, so a smaller image allows every
completion a larger one allows; as a right bound, mirrored, a larger
image does.  A vertex that bounds windows on both sides is not pure.
So a step whose boundary has a pure coordinate keeps only the
Pareto-best states it produces, class by class of equal other
coordinates.  This keeps avoidance proofs on large structured hosts
cheap, where plain backtracking revisits equivalent partial maps
exponentially often.  Which steps cut, and how, depends on the pattern
alone and is compiled into its plan (see ``PatternIndex`` and
``find_embedding``).

A host full of copies needs only a few states per step, so the search
first runs with every layer truncated to its first ``PROBE_WIDTH``
states.  Only when that pass was truncated and found nothing does the
exhaustive search run, resumed from the first truncated layer.

Cyclic containment is the same search run once per distinct rotation
of the pattern (``graphs.rotations``), shift 0 first: cutting the host
circle at vertex 1 turns a cyclic copy into an increasing copy of one
rotation read as an ordered pattern, and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import itemgetter, le
from typing import Callable, NamedTuple

from .graphs import BIPARTITE, ORDERED, GraphValueError, PatternGraph, rotations


# Placed sets kept per round of the placement-order search, ranked by
# their (peak, total) estimate.
ORDER_BEAM = 8
_SCORE = itemgetter(0, 1)
# States per layer the bounded first pass of ``find_embedding`` expands.
PROBE_WIDTH = 4


class FlavorMismatchError(GraphValueError):
    """Host and pattern flavors differ."""


class EdgelessPatternError(GraphValueError):
    """Containment is defined only for patterns with at least one edge."""


@dataclass(frozen=True)
class Embedding:
    """An order-preserving injective vertex map witnessing containment.

    ``u_map[i-1]`` is the host vertex playing pattern vertex i of the
    first part; ``v_map`` is empty unless the flavor is bipartite.
    """

    u_map: tuple[int, ...]
    v_map: tuple[int, ...] = ()

    def as_dict(self):
        d = {"u_map": list(self.u_map)}
        if self.v_map:
            d["v_map"] = list(self.v_map)
        return d


class _Step(NamedTuple):
    """One compiled step of a placement order (see ``PatternIndex``)."""

    part: int
    lo_pos: int | None
    lo_gap: int
    hi_pos: int | None
    hi_gap: int
    get_rest: Callable
    pending: tuple
    need_deg: int
    pick: int
    reduce: tuple
    cut_inline: bool
    injective: bool


class PatternIndex:
    """Pattern preprocessed for the searcher.

    Vertices get flat ids 0..n-1 (first part, then second part).  The
    placement order may take the vertices of a part in any order
    (``_search_order`` picks it), and each step of it is compiled once
    by ``_compile`` into a ``_Step`` holding everything the searcher
    needs about it.  The placed vertex's window is two-sided: with L and
    R the nearest placed vertices of its part on the left and on the
    right, its image lies in [img(L) + lo_gap, img(R) - hi_gap], the gaps
    being the index distances, so the vertices between have room.
    ``lo_pos``/``hi_pos`` are where L and R sit in the previous boundary
    tuple, or None when there is no such vertex: the window then runs
    from ``lo_gap`` (the vertex's index) or to the host part's size minus
    ``hi_gap``.  ``pending`` lists (part, position) of the placed
    pattern neighbors and ``need_deg`` is the degree the image needs.
    A step's boundary is the coordinates it keeps, in their previous
    order (``get_rest`` projects onto them), followed by the vertex it
    places, so a child state is its parent's projection plus one image.
    A placed vertex stays in the boundary while it has an unplaced
    pattern neighbor or is a window bound of an unplaced vertex, that is
    while the next vertex of its part on either side is unplaced.

    A boundary vertex with every pattern neighbor placed is kept only as
    a window bound.  If it bounds unplaced vertices on its right only, a
    smaller image allows every completion a larger one allows; if on its
    left only, a larger one does: it is a *pure* coordinate with
    direction 1 or -1.  A vertex bounding on both sides is not pure.
    The vertex just placed is always kept, for the walk back; if it has
    no role at all it is pure with direction 1.  Pure coordinates are
    listed as (position, direction) pairs in pattern-vertex order: that
    order fixes how a Pareto pass sorts a class, and so which witness is
    found first.

    - ``pick``: the direction of the placed vertex if it is pure, else
      0.  A step with a pick expands each parent by its least (1) or
      greatest (-1) image.
    - ``reduce``: the pure coordinates its Pareto cut reduces, or none
      where each class holds one state, so the cut would keep the layer
      as it is, in order.  On a picking step whose only pure coordinate
      is the placed vertex, each parent's projection is its class.  On
      an injective step whose one pure coordinate other than the placed
      vertex is that of the step before, in the same direction, the
      step before left one state per class, and two states in one class
      would have parents in one class.  (With two or more such
      coordinates the states of a class are incomparable but may be
      several, and a pass would sort them.)
    - ``cut_inline``: the cut has one coordinate, not the placed vertex,
      and runs while the step walks (``_cut_walk_layer``).
    - ``injective``: the step keeps every coordinate of the previous
      boundary, so distinct parents have distinct children.
    """

    __slots__ = ("n", "part", "idx", "nbrs", "deg", "part_count", "order", "plan",
                 "_nbr_mask", "_role_mask")

    def __init__(self, pattern: PatternGraph):
        pu = pattern.n_u
        pv = pattern.n_v
        self.n = pu + pv
        self.part = [0] * pu + [1] * pv
        self.idx = list(range(1, pu + 1)) + list(range(1, pv + 1))
        self.part_count = (pu, pv)
        self.nbrs = [[] for _ in range(self.n)]
        second = pu if pattern.flavor == BIPARTITE else 0
        nbr_mask = [0] * self.n
        for a, b in pattern.edges:
            x, y = a - 1, second + b - 1
            self.nbrs[x].append(y)
            self.nbrs[y].append(x)
            nbr_mask[x] |= 1 << y
            nbr_mask[y] |= 1 << x
        self.deg = [len(x) for x in self.nbrs]
        self._nbr_mask = nbr_mask
        # A placed vertex stays in the boundary while one of its pattern
        # neighbors or of the vertices next to it in its part is unplaced.
        role = nbr_mask[:]
        for first, last in ((0, pu - 1), (pu, pu + pv - 1)):
            for q in range(first, last):
                role[q] |= 1 << q + 1
                role[q + 1] |= 1 << q
        self._role_mask = role
        self._compile(self._search_order())

    def _search_order(self):
        """A placement order of low estimated peak and total state count.

        The estimated log of the state count once a set of vertices is
        placed sums a weight per boundary vertex: 2 for one with a
        placed pattern neighbor, which ranges over a host neighborhood,
        and 8 for one without, which ranges over a window of the host.
        Placing p changes only the weights of p and of the placed
        vertices whose role it ends or changes.  A beam search over
        placed sets extends the ``ORDER_BEAM`` best sets by one vertex
        each per round, scoring a path by the largest and then the
        summed estimate over its prefixes.  Ties keep the path found
        first, from the better set and the smaller vertex, so the order
        is deterministic.  Polynomial in the number n of pattern
        vertices: n rounds of at most ``ORDER_BEAM * n`` extensions.
        """
        n = self.n
        nbr_mask, role_mask = self._nbr_mask, self._role_mask
        beam = [(0, 0, 0, 0, ())]
        for _ in range(n):
            grown = {}
            for peak, total, cost, placed, order in beam:
                for p in range(n):
                    bit = 1 << p
                    if placed & bit:
                        continue
                    after = placed | bit
                    free = ~after
                    c = cost
                    if role_mask[p] & free:
                        c += 2 if nbr_mask[p] & placed else 8
                    # Each placed vertex touched had p as an unplaced
                    # reason to stay, so it weighed in before.
                    touched = role_mask[p] & placed
                    while touched:
                        low = touched & -touched
                        touched ^= low
                        q = low.bit_length() - 1
                        nb = nbr_mask[q]
                        c -= 2 if nb & placed else 8
                        if role_mask[q] & free:
                            c += 2 if nb & after else 8
                    top = c if c > peak else peak
                    cur = grown.get(after)
                    if (cur is None or top < cur[0]
                            or top == cur[0] and total + c < cur[1]):
                        grown[after] = (top, total + c, c, after, order + (p,))
            beam = sorted(grown.values(), key=_SCORE)[:ORDER_BEAM]
        return list(beam[0][4])

    def _compile(self, order):
        """Set ``order`` and compile each of its steps into ``plan``.

        Sound for any order of the vertices: the window bounds, the
        placed neighbors and the pure coordinates are all read off the
        set placed so far.
        """
        part, idx, part_count = self.part, self.idx, self.part_count
        nbr_mask, role_mask = self._nbr_mask, self._role_mask
        self.order = list(order)
        self.plan = []
        placed = 0
        old_boundary = ()
        old_pure = ()
        for p in order:
            pt = part[p]
            first = p - idx[p] + 1
            last = first + part_count[pt] - 1
            old_pos = {q: k for k, q in enumerate(old_boundary)}
            # The nearest placed vertices of the part on either side bound
            # p's window, so they are in the previous boundary.
            below = placed & (1 << p) - (1 << first)
            above = placed & (2 << last) - (2 << p)
            lo_pos, lo_gap = None, idx[p]
            if below:
                lo = below.bit_length() - 1
                lo_pos, lo_gap = old_pos[lo], p - lo
            hi_pos, hi_gap = None, last - p
            if above:
                hi = (above & -above).bit_length() - 1
                hi_pos, hi_gap = old_pos[hi], hi - p
            pending = tuple((part[q], old_pos[q])
                            for q in self.nbrs[p] if placed >> q & 1)
            placed |= 1 << p
            free = ~placed
            kept = tuple(k for k, q in enumerate(old_boundary) if role_mask[q] & free)
            boundary = tuple(old_boundary[k] for k in kept) + (p,)
            pos = {q: k for k, q in enumerate(boundary)}
            pure = []
            pick = 0
            for q in sorted(boundary):
                if nbr_mask[q] & free:
                    continue
                left = idx[q] > 1 and free >> q - 1 & 1
                right = idx[q] < part_count[part[q]] and free >> q + 1 & 1
                if left and right:
                    continue
                d = -1 if left else 1
                if q == p:
                    pick = d
                else:
                    pure.append((q, d))
            injective = len(kept) == len(old_boundary)
            # ``pure`` holds the pure coordinates other than p here.
            skip = ((injective and len(pure) == 1 and pure == old_pure)
                    or (pick and not pure))
            if pick:
                pure.append((p, pick))
                pure.sort()
            reduce = () if skip else tuple((pos[q], d) for q, d in pure)
            self.plan.append(_Step(
                pt, lo_pos, lo_gap, hi_pos, hi_gap, _tuple_getter(kept), pending,
                self.deg[p], pick, reduce, len(reduce) == 1 and not pick, injective))
            old_boundary = boundary
            old_pure = pure


@lru_cache(maxsize=512)
def pattern_index(pattern: PatternGraph) -> PatternIndex:
    return PatternIndex(pattern)


class HostIndex:
    """Host adjacency as one int bitmask per vertex.

    Bit h of ``adj[part][x]`` is set when host vertex h is a neighbor of
    vertex x of that part; the neighbors live on the opposite part for
    bipartite hosts.  ``deg[part][x]`` is the degree of x in the host.
    Single-part hosts alias both entries of ``sizes``, ``adj`` and
    ``deg`` to one vertex set, so the edge loop needs no part branch.
    A cyclic host is held as its linear reading.
    """

    __slots__ = ("sizes", "adj", "deg")

    def __init__(self, g: PatternGraph):
        n_u, n_v = g.n_u, g.n_v
        if g.flavor == BIPARTITE:
            self.sizes = (n_u, n_v)
            adj_u, adj_v = [0] * (n_u + 1), [0] * (n_v + 1)
        else:
            self.sizes = (n_u, n_u)
            adj_u = adj_v = [0] * (n_u + 1)
        for a, b in g.edges:
            adj_u[a] |= 1 << b
            adj_v[b] |= 1 << a
        self.adj = (adj_u, adj_v)
        deg_u = [m.bit_count() for m in adj_u]
        self.deg = (deg_u, deg_u if adj_v is adj_u else [m.bit_count() for m in adj_v])


def find_embedding(P: PatternIndex, H: HostIndex) -> list[int] | None:
    """Run the layered search; returns flat images (vertex id -> host)
    or None.

    The pattern and the host are both read linearly, a cyclic one from
    vertex 1 (``contains`` searches the rotations).  A state's
    candidates for the next vertex are one bitmask: its window, from the
    image of the nearest placed vertex of the part on the left plus the
    index gap (or from the vertex's index) up to that of the nearest one
    on the right minus the gap (or to the end of the host part, less
    room for the vertices after it), ANDed with the host neighborhood of
    each placed pattern neighbor.  Its set bits are walked in ascending
    order and kept if their degree is high enough.

    Every step whose boundary has a pure coordinate keeps only the
    Pareto-best states it produces, and the plan fixes how:

    - when the placed vertex is itself pure, every state one parent
      produces has that parent's projection and differs only in the
      image, so the cut keeps at most the parent's least or greatest
      candidate, as its direction says: the step is expanded once per
      parent by that image (``_extreme_image_layer``);
    - when its one pure coordinate is another vertex, the plain walk
      keeps only the best child of each class as it goes
      (``_cut_walk_layer``), so the children the cut drops are never
      stored;
    - otherwise the plain walk runs, and ``_pareto_reduce`` then cuts
      the layer along the step's ``reduce`` pairs, if any.

    The cut is sound: it decides only which embedding is found first.

    Each parent walks its own candidate mask, and an injective step
    stores its children without a duplicate test.  No window is empty.
    By induction, placed vertices a < b of one part have images at least
    b - a apart, and each image leaves room for its part's vertices
    before and after it in the host part.  So the window of the next
    vertex, between its nearest placed vertices L < R of the part (or
    the part's ends), holds img(R) - img(L) - (R - L) + 1 >= 1 vertices,
    as ``_layers`` returns no layer for a host part smaller than the
    pattern's.

    The search runs twice at most.  A bounded first pass expands only
    the first ``PROBE_WIDTH`` states of each layer, after its cut, so a
    host full of copies answers after a few states per step.  If it
    reaches the last step its embedding is valid; if no layer exceeded
    the width it was the exhaustive search, and an empty layer proves
    that the host avoids the pattern.  Otherwise the exhaustive search
    resumes from the first layer the width truncated, which the bounded
    pass built whole from whole layers, and reuses the layers before it.

    Deterministic: the placement order is a function of the pattern,
    layers are expanded in insertion order and candidates ascend, so the
    first witness found is always the same.
    """
    trail = _layers(P, H, PROBE_WIDTH)
    if len(trail) < len(P.plan):
        cut = next((t for t, layer in enumerate(trail) if len(layer) > PROBE_WIDTH),
                   None)
        if cut is None:
            return None
        trail = _layers(P, H, 0, trail[:cut + 1])
        if len(trail) < len(P.plan):
            return None
    # Walk parents back to recover the embedding: step t placed its
    # vertex last in the state it produced.
    img = [0] * P.n
    key = next(iter(trail[-1]))
    for t in range(len(P.order) - 1, -1, -1):
        img[P.order[t]] = key[-1]
        key = trail[t][key]
    return img


def _layers(P: PatternIndex, H: HostIndex, width: int = 0,
            trail: list | tuple = ()) -> list[dict]:
    """The search's layers in plan order, each a dict from state to parent
    state, up to the first empty one; none if the host is too small.

    Each layer is stored whole, after its cut.  With a ``width``, only
    the first ``width`` states of a layer, in insertion order, are
    expanded into the next one, so the layers after the first one
    holding more than ``width`` states are built from truncated parents.
    A ``trail`` of whole layers already built resumes the search after
    its last layer, expanded in full.
    """
    part_count = P.part_count
    sizes = H.sizes
    if part_count[0] > sizes[0] or part_count[1] > sizes[1]:
        return []
    adj = H.adj
    trail = list(trail)

    # states: boundary image tuples to expand, in insertion order
    states = trail[-1] if trail else {(): None}
    for (pt, lo_pos, lo_gap, hi_pos, hi_gap, get_rest, pending_pos, need_deg,
         pick, reduce, cut_inline, injective) in P.plan[len(trail):]:
        hi_end = sizes[pt] - hi_gap
        if pick:
            new_states = _extreme_image_layer(
                states, lo_pos, lo_gap, hi_pos, hi_gap, hi_end, pending_pos, adj,
                get_rest, pick < 0)
        elif cut_inline:
            new_states = _cut_walk_layer(
                states, lo_pos, lo_gap, hi_pos, hi_gap, hi_end, pending_pos, adj,
                get_rest, H.deg[pt], need_deg, reduce[0])
        else:
            degs = H.deg[pt]
            new_states = {}
            for key in states:
                lo = key[lo_pos] + lo_gap if lo_pos is not None else lo_gap
                hi = key[hi_pos] - hi_gap if hi_pos is not None else hi_end
                cand = (2 << hi) - (1 << lo)
                for qt, qp in pending_pos:
                    cand &= adj[qt][key[qp]]
                if not cand:
                    continue
                rest = get_rest(key)
                while cand:
                    low = cand & -cand
                    cand ^= low
                    h = low.bit_length() - 1
                    if degs[h] >= need_deg:
                        new_key = rest + (h,)
                        if injective or new_key not in new_states:
                            new_states[new_key] = key
        if not new_states:
            return trail
        if reduce and not cut_inline:
            new_states = _pareto_reduce(new_states, reduce)
        trail.append(new_states)
        states = new_states
        if width and len(states) > width:
            states = list(islice(states, width))
    return trail


def _cut_walk_layer(states, lo_pos, lo_gap, hi_pos, hi_gap, hi_end, pending_pos,
                    adj, get_rest, degs, need_deg, pure):
    """The plain walk of a step with one pure coordinate, not the placed
    vertex, cut as it goes.

    The coordinate sits at position k of ``get_rest(key)`` with
    direction d, and a child's class is the rest of its parent's
    projection plus its image.  Each class keeps the child whose
    coordinate is best, the first one found among equals, and classes
    keep the order they first appear in: the layer is the plain walk's
    cut by ``_pareto_reduce``, without storing the children the cut
    drops.
    """
    k, d = pure
    # class -> (signed coordinate, child, parent)
    best = {}
    for key in states:
        lo = key[lo_pos] + lo_gap if lo_pos is not None else lo_gap
        hi = key[hi_pos] - hi_gap if hi_pos is not None else hi_end
        cand = (2 << hi) - (1 << lo)
        for qt, qp in pending_pos:
            cand &= adj[qt][key[qp]]
        if not cand:
            continue
        rest = get_rest(key)
        base = rest[:k] + rest[k + 1:]
        v = rest[k] * d
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            if degs[h] >= need_deg:
                cls = base + (h,)
                cur = best.get(cls)
                if cur is None or v < cur[0]:
                    best[cls] = (v, rest + (h,), key)
    return {child: parent for _, child, parent in best.values()}


def _extreme_image_layer(states, lo_pos, lo_gap, hi_pos, hi_gap, hi_end,
                         pending_pos, adj, get_rest, greatest):
    """The Pareto-cut layer of a step placing a pure coordinate.

    Every state one parent produces has that parent's projection
    ``get_rest(key)`` and differs only in the image, so per projection
    class the cut keeps the best candidate, the least one or, when
    ``greatest``, the greatest, with the first parent giving it, in the
    order the classes first appear, and each class ends with one state.
    The placed vertex is pure, so all its pattern neighbors are placed
    and each candidate lies in the host neighborhoods of their distinct
    images: its degree is always high enough, and the best candidate is
    the lowest or the highest bit.  On an injective step each parent is
    its own class.
    """
    best = {}
    for key in states:
        lo = key[lo_pos] + lo_gap if lo_pos is not None else lo_gap
        hi = key[hi_pos] - hi_gap if hi_pos is not None else hi_end
        cand = (2 << hi) - (1 << lo)
        for qt, qp in pending_pos:
            cand &= adj[qt][key[qp]]
        if not cand:
            continue
        h = cand.bit_length() - 1 if greatest else (cand & -cand).bit_length() - 1
        rest = get_rest(key)
        cur = best.get(rest)
        if cur is None or (h > cur[0] if greatest else h < cur[0]):
            best[rest] = (h, key)
    return {rest + (h,): parent for rest, (h, parent) in best.items()}


def _tuple_getter(indices):
    """Tuple projection onto fixed positions, C-level where it counts."""
    if not indices:
        return lambda key: ()
    if len(indices) == 1:
        i = indices[0]
        return lambda key: (key[i],)
    return itemgetter(*indices)


def _pareto_reduce(states: dict, pure: tuple) -> dict:
    """Keep only states whose pure coordinates are Pareto-best within
    each class of equal non-pure coordinates.

    ``pure`` lists (position, direction) pairs in pattern-vertex order;
    direction 1 means smaller is better and -1 larger.  A class sorted
    by its signed pure coordinates in that order keeps a state exactly
    when no state kept before it is at least as good in every one: with
    two coordinates, when its second is better than that of every state
    kept before it.  Classes keep the order they first appear in, and a
    layer of one state is its own cut.  One coordinate takes the general
    loop: no plan asks for it, as such a step cuts while it walks.
    """
    if len(states) < 2:
        return states
    width = len(next(iter(states)))
    positions = {k for k, _ in pure}
    get_class = _tuple_getter([k for k in range(width) if k not in positions])
    groups = {}
    for key in states:
        groups.setdefault(get_class(key), []).append(key)
    out = {}
    if len(pure) == 2:
        (k0, d0), (k1, d1) = pure
        by_both, by_k0, by_k1 = itemgetter(k0, k1), itemgetter(k0), itemgetter(k1)
        for keys in groups.values():
            if len(keys) > 1:
                # Keys of a class differ in their pure coordinates, so
                # the signed order is total; the sort with ``reverse`` is
                # stable, so two sorts give the mixed-direction order.
                if d0 == d1:
                    keys.sort(key=by_both, reverse=d0 < 0)
                else:
                    keys.sort(key=by_k1, reverse=d1 < 0)
                    keys.sort(key=by_k0, reverse=d0 < 0)
            least = None
            for key in keys:
                second = key[k1] * d1
                if least is None or second < least:
                    least = second
                    out[key] = states[key]
        return out
    for keys in groups.values():
        kept = []
        for vec, key in sorted((tuple(key[k] * d for k, d in pure), key) for key in keys):
            if not any(all(map(le, w, vec)) for w in kept):
                kept.append(vec)
                out[key] = states[key]
    return out


def _check_pair(host: PatternGraph, pattern: PatternGraph):
    if host.flavor != pattern.flavor:
        raise FlavorMismatchError(
            f"host is {host.flavor}, pattern is {pattern.flavor}")
    if not pattern.edges:
        raise EdgelessPatternError("pattern graphs need at least one edge")


def contains(host: PatternGraph, pattern: PatternGraph) -> Embedding | None:
    """Embedding of pattern in host, or None if the host avoids it.

    The pattern must have at least one edge; host and pattern flavors
    must agree.  The search runs once per rotation of the pattern, and
    the returned embedding refers to the pattern's own labeling.
    """
    _check_pair(host, pattern)
    H = HostIndex(host)
    for s, rotated in rotations(pattern):
        img = find_embedding(pattern_index(rotated), H)
        if img is not None:
            # Rotated vertex i is pattern vertex i + s (mod k): turn the
            # images back by s, a no-op at s = 0 (every other flavor).
            img = img[-s:] + img[:-s]
            return Embedding(tuple(img[:pattern.n_u]), tuple(img[pattern.n_u:]))
    return None


def embedding_is_valid(host: PatternGraph, pattern: PatternGraph,
                       emb: Embedding) -> bool:
    """Check every Embedding invariant against concrete host and pattern."""
    if host.flavor != pattern.flavor:
        return False
    u_map, v_map = emb.u_map, emb.v_map
    if len(u_map) != pattern.n_u or len(v_map) != pattern.n_v:
        return False
    host_edges = set(host.edges)
    if pattern.flavor == BIPARTITE:
        for m, size in ((u_map, host.n_u), (v_map, host.n_v)):
            if any(not 1 <= h <= size for h in m):
                return False
            if any(m[i] >= m[i + 1] for i in range(len(m) - 1)):
                return False
        return all((u_map[u - 1], v_map[v - 1]) in host_edges
                   for u, v in pattern.edges)
    if v_map:
        return False
    if any(not 1 <= h <= host.n_u for h in u_map):
        return False
    if len(set(u_map)) != len(u_map):
        return False
    if pattern.flavor == ORDERED:
        if any(u_map[i] >= u_map[i + 1] for i in range(len(u_map) - 1)):
            return False
    else:
        k = len(u_map)
        descents = sum(1 for i in range(k) if u_map[i] > u_map[(i + 1) % k])
        if k > 1 and descents != 1:
            return False
    for a, b in pattern.edges:
        x, y = u_map[a - 1], u_map[b - 1]
        if x > y:
            x, y = y, x
        if (x, y) not in host_edges:
            return False
    return True
