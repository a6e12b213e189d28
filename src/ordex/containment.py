"""Order-preserving pattern containment testing.

The searcher places pattern vertices in a fixed merged order that walks
both parts left to right, so a partial placement is fully described by
the images of a small boundary: vertices that still have unplaced
pattern neighbors, plus the most recently placed vertex of each part
(which pins the window for the next one).  Partial placements with the
same boundary images are interchangeable, so the search runs as a
layered dynamic program over deduplicated boundary states instead of a
tree.  On top of deduplication, a boundary vertex kept only for its
window role is a pure coordinate: it is monotone (smaller images allow
strictly more completions), so a step expanding a layer of more than
REDUCE_ABOVE states keeps only the Pareto-minimal states it produces.
This keeps avoidance proofs on large structured hosts cheap, where
plain backtracking revisits equivalent partial maps exponentially
often.  The host is one int bitmask of neighbors per vertex, so a
state's candidates are its window ANDed with the host neighborhoods of
its placed pattern neighbors.  When the placed vertex is itself pure,
the cut leaves each parent only its least candidate, so such a step
expands each parent once, by its least image (see ``find_embedding``).
A step that keeps the whole boundary and the parent step's one pure
coordinate, placing a vertex that is not pure, skips the Pareto pass
after a cut parent layer: two of its states in one class come from one
parent with one image, so the pass would keep every state, in order.

Cyclic containment is the same search run once per distinct rotation
of the pattern (``graphs.rotations``), shift 0 first: cutting the host
circle at vertex 1 turns a cyclic copy into an increasing copy of one
rotation read as an ordered pattern, and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .graphs import BIPARTITE, ORDERED, GraphValueError, PatternGraph, rotations


# A step expanding a layer of more DP states than this keeps only the
# Pareto-minimal states it produces.  Part of the witness contract: which
# states a layer keeps decides which embedding is found first, so
# changing the threshold changes witnesses.
REDUCE_ABOVE = 64


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


class PatternIndex:
    """Pattern preprocessed for the searcher.

    Vertices get flat ids 0..n-1 (first part, then second part).  The
    placement order merges the two index-ordered part sequences along a
    minimax path that keeps the boundary as small as possible.  Each
    step of that order is compiled once into a plan tuple holding
    everything the searcher needs about it: the part, where the window
    anchor and the placed neighbors sit in the previous boundary tuple,
    how to project the previous boundary onto the next one (before and
    after the placed vertex, and both together), the degree the image
    needs, the Pareto-reducible coordinates, whether the placed vertex
    is one of them, the three flags below and the offset of the upper
    window bound from the end of the host part.  ``self_pos[t]`` is
    where step t's placed vertex sits in the boundary after it.

    - ``injective``: the step keeps every coordinate of the previous
      boundary, so distinct parents have distinct children.
    - ``inherited``: the step is injective, its placed vertex is not
      pure, and its one pure coordinate is the same vertex as the
      parent step's one pure coordinate.
    - ``shared``: the step is window-only (no pattern neighbor of the
      placed vertex is placed yet) and the previous boundary holds more
      than its window anchor, so parents with one anchor image share
      one candidate mask, a whole window.

    A pure (Pareto-reducible) coordinate has all its pattern neighbors
    placed, so it stays in the boundary only as the last placed vertex
    of its part: a step has at most two pure coordinates, and at most
    one for a single-part pattern.
    """

    __slots__ = ("n", "part", "idx", "nbrs", "deg", "part_count", "order", "plan",
                 "self_pos")

    def __init__(self, pattern: PatternGraph):
        pu = pattern.n_u
        pv = pattern.n_v
        self.n = pu + pv
        self.part = [0] * pu + [1] * pv
        self.idx = list(range(1, pu + 1)) + list(range(1, pv + 1))
        self.part_count = (pu, pv)
        self.nbrs = [[] for _ in range(self.n)]
        second = pu if pattern.flavor == BIPARTITE else 0
        for a, b in pattern.edges:
            x, y = a - 1, second + b - 1
            self.nbrs[x].append(y)
            self.nbrs[y].append(x)
        self.deg = [len(x) for x in self.nbrs]
        self._build_order()

    def _boundary_at(self, i, j):
        """Vertices with a neighbor beyond prefix (i, j), given flat ids."""
        out = []
        for p in range(self.n):
            if self.part[p] == 0 and self.idx[p] > i:
                continue
            if self.part[p] == 1 and self.idx[p] > j:
                continue
            for q in self.nbrs[p]:
                beyond = self.idx[q] > (i if self.part[q] == 0 else j)
                if beyond:
                    out.append(p)
                    break
        return out

    def _prefix_cost(self, i, j):
        """Estimated log of the state count at prefix (i, j).

        A boundary vertex with no placed pattern neighbor ranges over a
        window of the host, one with a placed neighbor over a host
        neighborhood, so they are weighted very differently.
        """
        def placed(q):
            return self.idx[q] <= (i if self.part[q] == 0 else j)

        total = 0
        for p in self._boundary_at(i, j):
            if any(placed(q) for q in self.nbrs[p]):
                total += 2
            else:
                total += 8
        return total

    def _build_order(self):
        """Minimax merge of the two part sequences by estimated state count."""
        pu, pv = self.part_count
        INF = (float("inf"),) * 2
        c = self._prefix_cost(0, 0)
        best = {(0, 0): (c, c)}
        choice = {}
        for i in range(pu + 1):
            for j in range(pv + 1):
                if (i, j) == (0, 0):
                    continue
                up = best.get((i - 1, j), INF)
                left = best.get((i, j - 1), INF)
                step = 0 if up <= left else 1
                prev = left if step else up
                c = self._prefix_cost(i, j)
                best[i, j] = (max(prev[0], c), prev[1] + c)
                choice[i, j] = step
        # Walk the choices back from the full prefix, recording the
        # vertex each step placed.
        order = []
        i, j = pu, pv
        while (i, j) != (0, 0):
            if choice[i, j] == 0:
                i -= 1
                order.append(i)
            else:
                j -= 1
                order.append(pu + j)
        order.reverse()
        self.order = order
        self.plan = []
        self.self_pos = []
        placed = set()
        old_boundary = ()
        old_pure = []
        lasts = [None, None]
        prefix = [0, 0]
        for p in order:
            pt = self.part[p]
            old_pos = {q: k for k, q in enumerate(old_boundary)}
            prev_same = lasts[pt]
            anchor = old_pos[prev_same] if prev_same is not None else None
            pending = tuple((self.part[q], old_pos[q])
                            for q in self.nbrs[p] if q in placed)
            placed.add(p)
            lasts[pt] = p
            prefix[pt] += 1
            keep = set(self._boundary_at(*prefix))
            for last in lasts:
                if last is not None:
                    keep.add(last)
            boundary = tuple(sorted(q for q in keep if q in placed))
            # Positions of retained coordinates in the old/new boundary
            # tuples.  The placed vertex is always the current last of its
            # part, so it appears in the new boundary exactly once.
            kept = tuple(old_pos[q] for q in boundary if q != p)
            self_pos = boundary.index(p)
            # Coordinates kept only as window anchors: all their pattern
            # neighbors are placed, so smaller images dominate.
            pure = [k for k, q in enumerate(boundary)
                    if all(r in placed for r in self.nbrs[q])]
            pure_vertices = [boundary[k] for k in pure]
            injective = len(kept) == len(old_boundary)
            self.plan.append((
                pt,
                anchor,
                _tuple_getter(kept[:self_pos]),
                _tuple_getter(kept[self_pos:]),
                _tuple_getter(kept),
                pending,
                self.deg[p],
                pure,
                self_pos in pure,
                injective,
                injective and len(pure) == 1 and self_pos not in pure
                and pure_vertices == old_pure,
                not pending and len(old_boundary) > (anchor is not None),
                self.part_count[pt] - self.idx[p],
            ))
            self.self_pos.append(self_pos)
            old_boundary = boundary
            old_pure = pure_vertices


@lru_cache(maxsize=512)
def pattern_index(pattern: PatternGraph) -> PatternIndex:
    return PatternIndex(pattern)


class HostIndex:
    """Host adjacency as one int bitmask per vertex.

    Bit h of ``adj[part][x]`` is set when host vertex h is a neighbor of
    vertex x of that part; the neighbors live on the opposite part for
    bipartite hosts.  ``deg[part][x]`` is the degree of x in the host.
    Single-part hosts alias both entries of ``sizes``, ``adj`` and
    ``deg`` to one vertex set, so adding an edge needs no part branch.
    A cyclic host is held as its linear reading.  Edges are given in
    host labels, a single-part edge lower end first.
    """

    __slots__ = ("sizes", "adj", "deg")

    def __init__(self, flavor: str, n_u: int, n_v: int, edges=()):
        if flavor == BIPARTITE:
            self.sizes = (n_u, n_v)
            self.adj = ([0] * (n_u + 1), [0] * (n_v + 1))
            self.deg = ([0] * (n_u + 1), [0] * (n_v + 1))
        else:
            adj = [0] * (n_u + 1)
            deg = [0] * (n_u + 1)
            self.sizes = (n_u, n_u)
            self.adj = (adj, adj)
            self.deg = (deg, deg)
        for e in edges:
            self._add(e)

    @classmethod
    def of(cls, g: PatternGraph) -> "HostIndex":
        return cls(g.flavor, g.n_u, g.n_v, g.edges)

    def _add(self, e):
        a, b = e
        adj, deg = self.adj, self.deg
        adj[0][a] |= 1 << b
        adj[1][b] |= 1 << a
        deg[0][a] += 1
        deg[1][b] += 1


def find_embedding(P: PatternIndex, H: HostIndex) -> list[int] | None:
    """Run the layered search; returns flat images (vertex id -> host)
    or None.

    The pattern and the host are both read linearly, a cyclic one from
    vertex 1 (``contains`` searches the rotations).  A state's
    candidates for the next vertex are one bitmask: the step's pool (the
    window up to the vertex's upper bound) with the bits below the
    window anchor cleared, ANDed with the host neighborhood of each
    placed pattern neighbor.  Its set bits are walked in ascending order
    and kept if their degree is high enough.

    The cut is decided from the layer being expanded: a step whose
    parent layer holds more than REDUCE_ABOVE states, and whose new
    boundary has a pure coordinate, keeps only the Pareto-minimal states
    it produces.  When the placed vertex is itself pure, every state one
    parent produces has that parent's projection and differs only in the
    image, so the cut keeps at most the parent's least candidate: the
    step is expanded once per parent by least images
    (``_least_image_layer``).  Otherwise the plain walk runs and
    ``_pareto_reduce`` cuts its layer, unless the step is inherited and
    its parent layer was cut: two children in one class then come from
    one parent class, which the cut left with one state, and carry one
    image, so they are one state and the pass would keep every state,
    in order.  The cut is sound at any layer size, so the threshold
    decides only which embedding is found first.

    On a shared step the mask depends only on the window anchor, so the
    plain walk decodes it once per anchor image into its images of high
    enough degree.  Elsewhere each parent walks its own mask: a mask cut
    by placed neighbors' neighborhoods is narrow, and decoding it is
    cheaper than looking it up.  An injective step stores its children
    without a duplicate test.

    Deterministic: layers are expanded in insertion order and candidates
    ascend, so the first witness found is always the same.
    """
    part_count = P.part_count
    sizes = H.sizes
    if part_count[0] > sizes[0] or part_count[1] > sizes[1]:
        return None
    adj = H.adj

    # states: boundary image tuple -> the parent state's key
    states = {(): None}
    trail = []
    cut = False
    for (pt, prev_pos, get_head, get_tail, get_rest, pending_pos, need_deg, pure,
         self_pure, injective, inherited, shared, hi_off) in P.plan:
        # Candidates allowed by the window, the same for every state.
        pool = (2 << (sizes[pt] - hi_off)) - 2
        degs = H.deg[pt]
        parent_cut = cut
        cut = pure and len(states) > REDUCE_ABOVE
        if cut and self_pure:
            new_states = _least_image_layer(states, pool, prev_pos, pending_pos,
                                            adj, get_head, get_tail, get_rest,
                                            injective)
        else:
            new_states = {}
            # candidate mask -> its images of high enough degree, as
            # 1-tuples; kept on shared steps only
            images = {}
            for key in states:
                lo = key[prev_pos] + 1 if prev_pos is not None else 1
                cand = pool >> lo << lo
                for qt, qp in pending_pos:
                    cand &= adj[qt][key[qp]]
                if not cand:
                    continue
                head = get_head(key)
                tail = get_tail(key)
                if shared:
                    bits = images.get(cand)
                    if bits is None:
                        bits = images[cand] = []
                        while cand:
                            low = cand & -cand
                            cand ^= low
                            h = low.bit_length() - 1
                            if degs[h] >= need_deg:
                                bits.append((h,))
                    for h in bits:
                        new_key = head + h + tail
                        if injective or new_key not in new_states:
                            new_states[new_key] = key
                else:
                    while cand:
                        low = cand & -cand
                        cand ^= low
                        h = low.bit_length() - 1
                        if degs[h] >= need_deg:
                            new_key = head + (h,) + tail
                            if injective or new_key not in new_states:
                                new_states[new_key] = key
        if not new_states:
            return None
        # A least-image layer is already cut along the placed vertex, so
        # it needs the Pareto pass only for a second pure coordinate; an
        # inherited step below a cut layer already holds one state per
        # class.
        if (cut and (len(pure) > 1 or not self_pure)
                and not (inherited and parent_cut)):
            new_states = _pareto_reduce(new_states, pure)
        trail.append(new_states)
        states = new_states

    # Walk parents back to recover the embedding: step t placed its
    # vertex at self_pos[t] of the state it produced.
    img = [0] * P.n
    key = next(iter(states))
    for t in range(len(P.order) - 1, -1, -1):
        img[P.order[t]] = key[P.self_pos[t]]
        key = trail[t][key]
    return img


def _least_image_layer(states, pool, prev_pos, pending_pos, adj, get_head,
                       get_tail, get_rest, injective):
    """The Pareto-cut layer of a step placing a pure coordinate.

    Every state one parent produces has that parent's projection
    ``get_rest(key)`` and differs only in the image, so per projection
    class the cut keeps the least candidate, with the first parent
    giving it, in the order the classes first appear.  The placed vertex
    is pure, so all its pattern neighbors are placed and each candidate
    lies in the host neighborhoods of their distinct images: its degree
    is always high enough, and the least candidate is the lowest bit.
    On an injective step the projection keeps every coordinate, so each
    parent is its own class and keeps its own least candidate.  Either
    way each class ends with one state, which is what lets an inherited
    step after this one skip its Pareto pass.
    """
    if injective:
        out = {}
        for key in states:
            lo = key[prev_pos] + 1 if prev_pos is not None else 1
            cand = pool >> lo << lo
            for qt, qp in pending_pos:
                cand &= adj[qt][key[qp]]
            if cand:
                out[get_head(key) + ((cand & -cand).bit_length() - 1,)
                    + get_tail(key)] = key
        return out
    best = {}
    for key in states:
        lo = key[prev_pos] + 1 if prev_pos is not None else 1
        cand = pool >> lo << lo
        for qt, qp in pending_pos:
            cand &= adj[qt][key[qp]]
        if cand:
            h = (cand & -cand).bit_length() - 1
            rest = get_rest(key)
            cur = best.get(rest)
            if cur is None or h < cur[0]:
                best[rest] = (h, key)
    return {get_head(parent) + (h,) + get_tail(parent): parent
            for h, parent in best.values()}


def _tuple_getter(indices):
    """Tuple projection onto fixed positions, C-level where it counts."""
    if not indices:
        return lambda key: ()
    if len(indices) == 1:
        i = indices[0]
        return lambda key: (key[i],)
    return itemgetter(*indices)


def _pareto_reduce(states: dict, pure: list) -> dict:
    """Keep only states whose pure coordinates are Pareto-minimal within
    each class of equal non-pure coordinates.

    There are at most two pure coordinates (``PatternIndex``), so a class
    sorted by (first, second) keeps a state exactly when its second
    coordinate is below that of every state kept before it.  Classes
    keep the order they first appear in.
    """
    if len(pure) == 1:
        # Single monotone coordinate: one pass keeping the least value
        # per class, with C-level slicing for the class key.
        k0 = pure[0]
        k1 = k0 + 1
        best = {}
        for key in states:
            rest = key[:k0] + key[k1:]
            cur = best.get(rest)
            if cur is None or key[k0] < cur[k0]:
                best[rest] = key
        return {key: states[key] for key in best.values()}
    k0, k1 = pure
    groups = {}
    for key in states:
        groups.setdefault(key[:k0] + key[k0 + 1:k1] + key[k1 + 1:], []).append(key)
    out = {}
    by_anchors = itemgetter(k0, k1)
    for keys in groups.values():
        keys.sort(key=by_anchors)
        least = None
        for key in keys:
            if least is None or key[k1] < least:
                least = key[k1]
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
    H = HostIndex.of(host)
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
