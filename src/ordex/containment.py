"""Order-preserving pattern containment testing.

The searcher places pattern vertices in a fixed merged order that walks
both parts left to right, so a partial placement is fully described by
the images of a small boundary: vertices that still have unplaced
pattern neighbors, plus the most recently placed vertex of each part
(which pins the window for the next one).  Partial placements with the
same boundary images are interchangeable, so the search runs as a
layered dynamic program over deduplicated boundary states instead of a
tree.  On top of deduplication, a boundary vertex kept only for its
window role is a monotone coordinate (smaller images allow strictly
more completions), so each layer is reduced to its Pareto-minimal
states.  This keeps avoidance proofs on large structured hosts cheap,
where plain backtracking revisits equivalent partial maps
exponentially often.  The host is one int bitmask of neighbors per
vertex, so a state's candidates are its window ANDed with the host
neighborhoods of its placed pattern neighbors, and the exact solver's
edge edits are a few bit operations.

Cyclic containment reduces to the linear search: an injection preserves
the cyclic order exactly when some rotation of the host labeling makes
it strictly increasing, so the host is tried under all n rotations with
the pattern read linearly from vertex 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .graphs import BIPARTITE, CYCLIC, ORDERED, PatternGraph, rotate_cyclic


class FlavorMismatchError(ValueError):
    """Host and pattern flavors differ."""


class EdgelessPatternError(ValueError):
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
    how to project the previous boundary onto the next one, the degree
    the image needs, the Pareto-reducible coordinates and the offset of
    the upper window bound from the end of the host part.
    """

    __slots__ = ("n", "part", "idx", "nbrs", "deg", "part_count", "edge_ids",
                 "order", "plan", "_seed_plans")

    def __init__(self, pattern: PatternGraph):
        pu = pattern.n_u
        pv = pattern.n_v
        self.n = pu + pv
        self.part = [0] * self.n
        self.idx = [0] * self.n
        for i in range(pu):
            self.idx[i] = i + 1
        for j in range(pv):
            self.part[pu + j] = 1
            self.idx[pu + j] = j + 1
        self.part_count = (pu, pv)
        self.nbrs = [[] for _ in range(self.n)]
        self.edge_ids = []
        for a, b in pattern.edges:
            if pattern.flavor == BIPARTITE:
                x, y = a - 1, pu + b - 1
            else:
                x, y = a - 1, b - 1
            self.edge_ids.append((x, y))
            self.nbrs[x].append(y)
            self.nbrs[y].append(x)
        self.deg = [len(x) for x in self.nbrs]
        self._build_order()

    def _boundary_at(self, i, j):
        """Vertices with a neighbor beyond prefix (i, j), given flat ids."""
        pu = self.part_count[0]
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
        INF = float("inf")
        cost = {}
        for i in range(pu + 1):
            for j in range(pv + 1):
                cost[i, j] = self._prefix_cost(i, j)
        best = {(0, 0): (cost[0, 0], cost[0, 0])}
        choice = {}
        for i in range(pu + 1):
            for j in range(pv + 1):
                if (i, j) == (0, 0):
                    continue
                up = best.get((i - 1, j), (INF, INF)) if i > 0 else (INF, INF)
                left = best.get((i, j - 1), (INF, INF)) if j > 0 else (INF, INF)
                if up <= left:
                    prev, step = up, 0
                else:
                    prev, step = left, 1
                c = cost[i, j]
                best[i, j] = (max(prev[0], c), prev[1] + c)
                choice[i, j] = step
        steps = []
        i, j = pu, pv
        while (i, j) != (0, 0):
            s = choice[i, j]
            steps.append(s)
            if s == 0:
                i -= 1
            else:
                j -= 1
        steps.reverse()
        order = []
        i = j = 0
        for s in steps:
            if s == 0:
                order.append(i)
                i += 1
            else:
                j += 1
                order.append(pu + j - 1)
        self.order = order
        self.plan = []
        placed = set()
        old_boundary = ()
        lasts = [None, None]
        ii = jj = 0
        for p in order:
            pt = self.part[p]
            old_pos = {q: k for k, q in enumerate(old_boundary)}
            prev_same = lasts[pt]
            pending = tuple((self.part[q], old_pos[q])
                            for q in self.nbrs[p] if q in placed)
            placed.add(p)
            lasts[pt] = p
            if pt == 0:
                ii += 1
            else:
                jj += 1
            keep = set(self._boundary_at(ii, jj))
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
            self.plan.append((
                pt,
                old_pos[prev_same] if prev_same is not None else None,
                _tuple_getter(kept[:self_pos]),
                _tuple_getter(kept[self_pos:]),
                pending,
                self.deg[p],
                pure,
                self.part_count[pt] - self.idx[p],
            ))
            old_boundary = boundary
        self._seed_plans = {}

    def seed_plan(self, forced: tuple) -> list:
        """The step plans extended for the forced vertex ids ``forced`` (cached).

        Step t's plan gains ``(slot, caps, later)``: the slot in ``forced``
        of the vertex placed at t (-1 if it is free); ``(slot, gap)`` for
        each forced vertex of the same part ``gap`` indices further on,
        whose image minus ``gap`` caps this one; and ``(part, slot)`` for
        each forced pattern neighbor placed after t, whose image's host
        neighborhood must contain this one's.
        """
        plan = self._seed_plans.get(forced)
        if plan is None:
            slot = {q: s for s, q in enumerate(forced)}
            step = {p: t for t, p in enumerate(self.order)}
            plan = []
            for t, p in enumerate(self.order):
                caps = tuple((slot[q], self.idx[q] - self.idx[p]) for q in forced
                             if self.part[q] == self.part[p]
                             and self.idx[q] > self.idx[p])
                later = tuple((self.part[q], slot[q]) for q in forced
                              if q in self.nbrs[p] and step[q] > t)
                plan.append(self.plan[t] + (slot.get(p, -1), caps, later))
            self._seed_plans[forced] = plan
        return plan


@lru_cache(maxsize=512)
def pattern_index(pattern: PatternGraph) -> PatternIndex:
    return PatternIndex(pattern)


class HostIndex:
    """Mutable host adjacency as one int bitmask per vertex.

    Bit h of ``adj[part][x]`` is set when host vertex h is a neighbor of
    vertex x of that part; the neighbors live on the opposite part for
    bipartite hosts.  ``deg[part][x]`` counts those bits.  Single-part
    hosts alias both entries of ``sizes``, ``adj`` and ``deg`` to one
    vertex set, so edge edits need no flavor branch.  The exact solver
    edits it edge by edge; ``add_edge`` takes only absent edges and
    ``remove_edge`` only present ones, or the degree counts drift.
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
            self.add_edge(e)

    @classmethod
    def of(cls, g: PatternGraph) -> "HostIndex":
        return cls(g.flavor, g.n_u, g.n_v, g.edges)

    def add_edge(self, e):
        a, b = e
        self.adj[0][a] |= 1 << b
        self.adj[1][b] |= 1 << a
        self.deg[0][a] += 1
        self.deg[1][b] += 1

    def remove_edge(self, e):
        a, b = e
        self.adj[0][a] &= ~(1 << b)
        self.adj[1][b] &= ~(1 << a)
        self.deg[0][a] -= 1
        self.deg[1][b] -= 1


def find_embedding(P: PatternIndex, H: HostIndex, seeds=()) -> list[int] | None:
    """Run the layered search; returns flat images (vertex id -> host) or None.

    A state's candidates for the next vertex are one bitmask: the step's
    pool (host vertices 1..the upper window bound) with the bits below
    the window anchor cleared, ANDed with the host neighborhood of each
    placed pattern neighbor.  Its set bits are walked in ascending
    order and kept if their degree is high enough.

    ``seeds`` force specific images, used by the exact solver to look
    only for embeddings through a just-added host edge.  The forced
    images narrow the pool: a forced vertex's pool is its image alone,
    a vertex of the same part ``gap`` indices before a forced one must
    sit at least ``gap`` below its image, and a pattern neighbor of a
    forced vertex must be a host neighbor of its image.  These rules
    drop only states with no completion, so whether an embedding exists
    is unchanged.  Deterministic: layers are expanded in insertion
    order and candidates ascend, so the first witness found is always
    the same.
    """
    part_count = P.part_count
    sizes = H.sizes
    if part_count[0] > sizes[0] or part_count[1] > sizes[1]:
        return None
    forced = dict(seeds)
    images = tuple(forced.values())
    adj = H.adj

    # states: boundary image tuple -> (parent key, host vertex placed)
    states = {(): (None, None)}
    trail = []
    for (pt, prev_pos, get_head, get_tail, pending_pos, need_deg, pure,
         hi_off, slot, caps, later) in P.seed_plan(tuple(forced)):
        hi_cap = sizes[pt] - hi_off
        for s, gap in caps:
            if images[s] - gap < hi_cap:
                hi_cap = images[s] - gap
        if hi_cap < 1:
            return None
        # Candidates allowed by the window and the seeds, the same for
        # every state.
        pool = (2 << hi_cap) - 2
        if slot >= 0:
            pool &= 1 << images[slot]
        for qt, s in later:
            pool &= adj[qt][images[s]]
        if not pool:
            return None
        degs = H.deg[pt]
        new_states = {}
        for key in states:
            lo = key[prev_pos] + 1 if prev_pos is not None else 1
            cand = pool >> lo << lo
            for qt, qp in pending_pos:
                cand &= adj[qt][key[qp]]
            if not cand:
                continue
            head = get_head(key)
            tail = get_tail(key)
            while cand:
                low = cand & -cand
                cand ^= low
                h = low.bit_length() - 1
                if degs[h] >= need_deg:
                    new_key = head + (h,) + tail
                    if new_key not in new_states:
                        new_states[new_key] = (key, h)
        if not new_states:
            return None
        if pure and len(new_states) > 64:
            new_states = _pareto_reduce(new_states, pure)
        trail.append(states)
        states = new_states

    # Walk parents back to recover the embedding.
    img = [0] * P.n
    key, (parent, h) = next(iter(states.items()))
    for t in range(len(P.order) - 1, -1, -1):
        img[P.order[t]] = h
        parent, h = trail[t][parent] if t else (None, None)
    return img


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
    each class of equal non-pure coordinates."""
    if not pure:
        return states
    width = len(next(iter(states)))
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
    rest_idx = [k for k in range(width) if k not in pure]
    get_rest = itemgetter(*rest_idx) if rest_idx else lambda key: ()
    get_pure = itemgetter(*pure)
    groups = {}
    for key in states:
        groups.setdefault(get_rest(key), []).append(key)
    out = {}
    for keys in groups.values():
        chosen = []
        vecs = []
        for key in sorted(keys, key=get_pure):
            vec = get_pure(key)
            if not any(all(c <= v for c, v in zip(ch, vec)) for ch in vecs):
                chosen.append(key)
                vecs.append(vec)
        for key in chosen:
            out[key] = states[key]
    return out


def _split_image(P: PatternIndex, img: list[int]) -> Embedding:
    pu, pv = P.part_count
    return Embedding(tuple(img[:pu]), tuple(img[pu:pu + pv]))


def contains(host: PatternGraph, pattern: PatternGraph) -> Embedding | None:
    """Embedding of pattern in host, or None if the host avoids it.

    The pattern must have at least one edge; host and pattern flavors
    must agree.  Cyclic hosts are tried under all rotations and the
    returned embedding refers to the original labeling.
    """
    if host.flavor != pattern.flavor:
        raise FlavorMismatchError(
            f"host is {host.flavor}, pattern is {pattern.flavor}")
    if not pattern.edges:
        raise EdgelessPatternError("pattern graphs need at least one edge")
    if pattern.flavor == CYCLIC:
        return _contains_cyclic(host, pattern)
    P = pattern_index(pattern)
    H = HostIndex.of(host)
    img = find_embedding(P, H)
    if img is None:
        return None
    return _split_image(P, img)


def _contains_cyclic(host: PatternGraph, pattern: PatternGraph) -> Embedding | None:
    n = host.n_u
    P = pattern_index(PatternGraph(ORDERED, pattern.n_u, 0, pattern.edges))
    if n == 0:
        return None
    for r in range(n):
        rotated = rotate_cyclic(host, r)
        H = HostIndex(ORDERED, n, 0, rotated.edges)
        img = find_embedding(P, H)
        if img is not None:
            original = tuple((h - 1 + r) % n + 1 for h in img)
            return Embedding(original)
    return None


def embedding_uses_edge(host: PatternGraph, pattern: PatternGraph,
                        edge: tuple[int, int]) -> bool:
    """True if some embedding maps a pattern edge onto the given host edge.

    Used by the exact solver: after adding one edge to a host known to
    avoid the pattern, containment can only arise through embeddings
    whose image includes that edge.
    """
    P = pattern_index(pattern)
    H = HostIndex.of(host)
    return uses_edge(P, H, edge)


def uses_edge(P: PatternIndex, H: HostIndex, edge: tuple[int, int]) -> bool:
    """Forced-edge search against a prebuilt host index (solver hot path)."""
    a, b = edge
    for x, y in P.edge_ids:
        if find_embedding(P, H, ((x, a), (y, b))) is not None:
            return True
    return False


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
