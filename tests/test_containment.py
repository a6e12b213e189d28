"""Containment searcher against the exhaustive oracle and fixed cases."""

import copy
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordex.catalog import complete_ordered, keszegh_h, sailboat
from ordex.constructions import power_distance_graph
from ordex.containment import (PROBE_WIDTH, EdgelessPatternError, FlavorMismatchError,
                               HostIndex, PatternIndex, _cut_walk_layer,
                               _extreme_image_layer, _layers, _pareto_reduce,
                               contains, embedding_is_valid, find_embedding)
from ordex.graphs import (bipartite_graph, cyclic_graph, ordered_graph,
                          rotate_cyclic, rotations)

from oracles import brute_force_embedding
from strategies import bipartite_graphs_, cyclic_graphs, ordered_graphs

HOOK_PATTERN = ordered_graph(4, [(1, 4), (1, 3), (2, 4)])


def test_contains_self_identity():
    for g in (sailboat(), keszegh_h(1), HOOK_PATTERN):
        emb = contains(g, g)
        assert emb is not None
        assert embedding_is_valid(g, g, emb)
        if g.flavor == "bipartite":
            assert emb.u_map == tuple(range(1, g.n_u + 1))
            assert emb.v_map == tuple(range(1, g.n_v + 1))


def test_power_of_two_avoids_hook():
    host = power_distance_graph(16, 2, "ordered")
    assert contains(host, HOOK_PATTERN) is None


def test_complete_host_contains_small_patterns():
    host = complete_ordered(7)
    sail_as_ordered = ordered_graph(7, [(1, 4), (2, 4), (3, 5), (1, 6), (2, 7), (3, 7)])
    assert contains(host, sail_as_ordered) is not None


def test_power_of_three_avoids_family_small():
    host = power_distance_graph(50, 3, "bipartite")
    assert contains(host, keszegh_h(1)) is None


def test_flavor_mismatch_rejected():
    with pytest.raises(FlavorMismatchError):
        contains(ordered_graph(3, [(1, 2)]), bipartite_graph(1, 1, [(1, 1)]))


def test_edgeless_pattern_rejected():
    with pytest.raises(EdgelessPatternError):
        contains(ordered_graph(3, [(1, 2)]), ordered_graph(2, []))


def test_cyclic_containment_wraps():
    # The pattern sits across the wrap point of the host circle.
    host = cyclic_graph(5, [(1, 4), (2, 4)])
    pattern = cyclic_graph(3, [(1, 3), (1, 2)])  # rotation of the host edges
    emb = contains(host, pattern)
    assert emb is not None
    assert embedding_is_valid(host, pattern, emb)


def _agrees_with_oracle(host, pattern):
    if not pattern.edges:
        return
    emb = contains(host, pattern)
    ref = brute_force_embedding(host, pattern)
    assert (emb is None) == (ref is None)
    if emb is not None:
        assert embedding_is_valid(host, pattern, emb)


ORDERED_PAIRS = (ordered_graphs(max_n=9),
                 ordered_graphs(max_n=5, max_edges=4, min_n=1))
BIPARTITE_PAIRS = (bipartite_graphs_(max_n=7, max_m=7),
                   bipartite_graphs_(max_n=4, max_m=4, max_edges=4))
CYCLIC_PAIRS = (cyclic_graphs(max_n=8), cyclic_graphs(max_n=5, max_edges=4, min_n=1))


@given(*ORDERED_PAIRS)
# A host whose only embedding runs through the least image of its class,
# not through a larger one.
@example(ordered_graph(8, [(1, 4), (1, 5), (1, 7), (2, 3), (2, 4), (2, 6), (3, 6),
                             (3, 7), (4, 6), (4, 7), (5, 8), (6, 8)]),
         ordered_graph(4, [(1, 2), (3, 4)]))
@settings(max_examples=250, deadline=None)
def test_oracle_agreement_ordered(host, pattern):
    _agrees_with_oracle(host, pattern)


@given(*BIPARTITE_PAIRS)
# A host whose only embedding runs through a state that is Pareto-minimal
# in both pure coordinates but not least in the first.
@example(bipartite_graph(5, 7, [(1, 2), (1, 6), (2, 2), (2, 3), (2, 5), (4, 1),
                                (4, 2), (4, 3), (4, 6), (5, 4)]),
         bipartite_graph(4, 3, [(1, 1), (1, 2), (3, 1), (4, 3)]))
@settings(max_examples=250, deadline=None)
def test_oracle_agreement_bipartite(host, pattern):
    _agrees_with_oracle(host, pattern)


@given(*CYCLIC_PAIRS)
# The only copy is of the rotation at shift 3, and pattern vertex 2 is
# isolated, so every image must be mapped back to its own vertex.
@example(cyclic_graph(6, [(2, 4), (4, 6)]), cyclic_graph(4, [(1, 3), (1, 4)]))
# A host whose only embedding runs through the least image of its class,
# not through a larger one.
@example(cyclic_graph(6, [(1, 3), (1, 5), (1, 6), (2, 6), (5, 6)]),
         cyclic_graph(5, [(2, 3), (4, 5)]))
@settings(max_examples=150, deadline=None)
def test_oracle_agreement_cyclic(host, pattern):
    _agrees_with_oracle(host, pattern)


def _agrees_with_oracle_cutting_every_layer(host, pattern):
    """The plan omits the Pareto passes it proves keep every state; here
    every step with a pure coordinate runs one over all its pure
    positions after the plain walk (``_flags_cleared``), so the cut is
    checked against the oracle at every layer it may touch."""
    with patch("ordex.containment.pattern_index",
               lambda p: _flags_cleared(PatternIndex(p))):
        _agrees_with_oracle(host, pattern)


@given(*ORDERED_PAIRS)
# A host whose only embedding runs through the least image of its class,
# not through a larger one.
@example(ordered_graph(8, [(1, 4), (1, 5), (1, 7), (2, 3), (2, 4), (2, 6), (3, 6),
                             (3, 7), (4, 6), (4, 7), (5, 8), (6, 8)]),
         ordered_graph(4, [(1, 2), (3, 4)]))
@settings(max_examples=200, deadline=None)
def test_oracle_agreement_ordered_cut_everywhere(host, pattern):
    _agrees_with_oracle_cutting_every_layer(host, pattern)


@given(*BIPARTITE_PAIRS)
# A host whose only embedding runs through a state that is Pareto-minimal
# in both pure coordinates but not least in the first.
@example(bipartite_graph(5, 7, [(1, 2), (1, 6), (2, 2), (2, 3), (2, 5), (4, 1),
                                (4, 2), (4, 3), (4, 6), (5, 4)]),
         bipartite_graph(4, 3, [(1, 1), (1, 2), (3, 1), (4, 3)]))
@settings(max_examples=200, deadline=None)
def test_oracle_agreement_bipartite_cut_everywhere(host, pattern):
    _agrees_with_oracle_cutting_every_layer(host, pattern)


@given(*CYCLIC_PAIRS)
# A host whose only embedding runs through the least image of its class,
# not through a larger one.
@example(cyclic_graph(6, [(1, 3), (1, 5), (1, 6), (2, 6), (5, 6)]),
         cyclic_graph(5, [(2, 3), (4, 5)]))
@settings(max_examples=150, deadline=None)
def test_oracle_agreement_cyclic_cut_everywhere(host, pattern):
    _agrees_with_oracle_cutting_every_layer(host, pattern)


def _in_order(pattern, seed):
    """The pattern's index compiled for a seeded random placement order."""
    P = PatternIndex(pattern)
    P._compile(random.Random(seed).sample(range(P.n), P.n))
    return P


def _agrees_with_oracle_in_any_order(host, pattern, seed):
    """Every placement order gives the oracle's answer, with the plan's
    own passes and with a pass at every step that has a pure coordinate,
    and in both the plan changes no layer."""
    with patch("ordex.containment.pattern_index", lambda p: _in_order(p, seed)):
        _agrees_with_oracle(host, pattern)
    with patch("ordex.containment.pattern_index",
               lambda p: _flags_cleared(_in_order(p, seed))):
        _agrees_with_oracle(host, pattern)
    _skips_keep_every_state(host, pattern, lambda p: _in_order(p, seed))


SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(*ORDERED_PAIRS, SEEDS)
# An order with a step that drops a coordinate and keeps the pure
# coordinates of the step before: its pass still drops states.
@example(ordered_graph(7, [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                           (3, 6), (4, 6), (5, 6)]),
         ordered_graph(6, [(1, 2), (2, 5)]), 1017112434)
@settings(max_examples=150, deadline=None)
def test_oracle_agreement_ordered_any_order(host, pattern, seed):
    _agrees_with_oracle_in_any_order(host, pattern, seed)


@given(*BIPARTITE_PAIRS, SEEDS)
# The same for two parts.
@example(bipartite_graph(7, 7, [(1, 1), (1, 4), (1, 5), (1, 7), (3, 1), (3, 2), (3, 3),
                                (4, 3), (4, 5), (4, 7), (5, 1), (5, 3), (5, 4), (5, 5),
                                (6, 1), (6, 3), (6, 4), (6, 5), (6, 7), (7, 2), (7, 3),
                                (7, 4), (7, 7)]),
         bipartite_graph(4, 1, [(2, 1), (4, 1)]), 2499564311)
@settings(max_examples=150, deadline=None)
def test_oracle_agreement_bipartite_any_order(host, pattern, seed):
    _agrees_with_oracle_in_any_order(host, pattern, seed)


@given(*CYCLIC_PAIRS, SEEDS)
@settings(max_examples=100, deadline=None)
def test_oracle_agreement_cyclic_any_order(host, pattern, seed):
    _agrees_with_oracle_in_any_order(host, pattern, seed)


def _agrees_with_oracle_at_every_width(host, pattern):
    """The bounded first pass, at widths 1 and 2 and at one wider than
    any layer (where it is the exhaustive search), and the exhaustive
    pass it resumes give the oracle's answer and valid embeddings."""
    if not pattern.edges:
        return
    H = HostIndex(host)
    wide = 1 + max((len(layer) for _, rotated in rotations(pattern)
                    for layer in _layers(PatternIndex(rotated), H)), default=0)
    for width in (1, 2, wide):
        with patch("ordex.containment.PROBE_WIDTH", width):
            _agrees_with_oracle(host, pattern)


@given(*ORDERED_PAIRS)
# The width-1 pass holds two states in its first layer, finds nothing
# and the resumed search finds the copy.
@example(ordered_graph(5, [(1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]),
         ordered_graph(4, [(1, 2), (1, 3), (3, 4)]))
@settings(max_examples=150, deadline=None)
def test_bounded_pass_agrees_with_oracle_ordered(host, pattern):
    _agrees_with_oracle_at_every_width(host, pattern)


@given(*BIPARTITE_PAIRS)
# The same for two parts.
@example(bipartite_graph(5, 2, [(1, 2), (2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (5, 1)]),
         bipartite_graph(1, 2, [(1, 1)]))
@settings(max_examples=150, deadline=None)
def test_bounded_pass_agrees_with_oracle_bipartite(host, pattern):
    _agrees_with_oracle_at_every_width(host, pattern)


@given(*CYCLIC_PAIRS)
@settings(max_examples=100, deadline=None)
def test_bounded_pass_agrees_with_oracle_cyclic(host, pattern):
    _agrees_with_oracle_at_every_width(host, pattern)


def _bounded_prefix_is_exhaustive(host, pattern, width):
    """The bounded pass's layers up to and including the first one that
    holds more than ``width`` states, the one the exhaustive pass
    resumes from, are the exhaustive layers, in order, with the same
    parents; with no such layer the two passes are the same."""
    H = HostIndex(host)
    for _, rotated in rotations(pattern):
        P = PatternIndex(rotated)
        bounded = [list(layer.items()) for layer in _layers(P, H, width)]
        exhaustive = [list(layer.items()) for layer in _layers(P, H)]
        cut = next((t for t, layer in enumerate(bounded) if len(layer) > width), None)
        if cut is None:
            assert bounded == exhaustive
        else:
            assert bounded[:cut + 1] == exhaustive[:cut + 1]


def test_bounded_prefix_is_exhaustive_on_constructions():
    for host, pattern in ((power_distance_graph(64, 2, "ordered"), HOOK_PATTERN),
                          (power_distance_graph(30, 3, "bipartite"), keszegh_h(1)),
                          (power_distance_graph(30, 3, "bipartite"), keszegh_h(2))):
        for width in (1, PROBE_WIDTH, 30, 100):
            _bounded_prefix_is_exhaustive(host, pattern, width)


@given(*ORDERED_PAIRS, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_bounded_prefix_is_exhaustive_ordered(host, pattern, width):
    if pattern.edges:
        _bounded_prefix_is_exhaustive(host, pattern, width)


@pytest.mark.parametrize("width", [PROBE_WIDTH, 100])
def test_avoiding_host_resumes_rather_than_restarts(width):
    """The doubling host avoids the hook.  Every step's projection is
    spied on, so each parent a step expands is counted.  The bounded
    pass truncates layer 0 (61 states) at width 4 and layer 1 (253) at
    width 100; ``find_embedding`` then resumes after that layer, so it
    expands what the bounded pass expands plus what the exhaustive
    search expands after the cut, and no step up to the cut twice."""
    P = PatternIndex(HOOK_PATTERN)
    H = HostIndex(power_distance_graph(64, 2, "ordered"))
    expanded = Counter()

    def counted(t, get_rest):
        def spy(key):
            expanded[t] += 1
            return get_rest(key)
        return spy

    P.plan = [step._replace(get_rest=counted(t, step.get_rest))
              for t, step in enumerate(P.plan)]

    def expansions(run):
        expanded.clear()
        out = run()
        return out, Counter(expanded)

    bounded, in_bounded = expansions(lambda: _layers(P, H, width))
    exhaustive, in_exhaustive = expansions(lambda: _layers(P, H))
    cut = next(t for t, layer in enumerate(bounded) if len(layer) > width)
    assert cut == (0 if width == PROBE_WIDTH else 1)
    assert len(bounded) < len(P.plan) and len(exhaustive) < len(P.plan)
    with patch("ordex.containment.PROBE_WIDTH", width):
        emb, in_find = expansions(lambda: find_embedding(P, H))
    assert emb is None
    after_cut = Counter({t: c for t, c in in_exhaustive.items() if t > cut})
    assert in_find == in_bounded + after_cut
    assert all(in_find[t] == in_exhaustive[t] for t in range(cut + 1))


def test_plan_flags_are_pinned():
    """The hook is placed 1, 3, 4, 2.  Vertex 3 is the right bound of
    vertex 2's window and the left bound of vertex 4's, so it is not
    pure; once 4 is placed, 1 is pure as the left bound of 2 (least
    image best) and 3 as its right bound (greatest image best), so that
    step's pass reduces both in opposite directions.  Vertex 2 comes
    last, from the two-sided window (img1, img3) ANDed with the
    neighborhood of img4; it has no role after that, so it is picked by
    its least image.  In H:1, v5 (flat 11) is placed after its neighbor
    u3 and after v6 but before v4, so it only bounds v4's window from
    the right: it is picked by its greatest image."""
    hook = PatternIndex(HOOK_PATTERN)
    assert hook.order == [0, 2, 3, 1]
    assert [step.pick for step in hook.plan] == [0, 0, 0, 1]
    assert [step.reduce for step in hook.plan] == [(), (), ((0, 1), (1, -1)), ()]
    assert [step.injective for step in hook.plan] == [True, True, True, False]
    last = hook.plan[3]
    assert (last.lo_pos, last.lo_gap, last.hi_pos, last.hi_gap) == (0, 1, 1, 1)
    assert last.pending == ((0, 2),)
    P = PatternIndex(keszegh_h(1))
    v5 = 11
    t = P.order.index(v5)
    boundary, pure = _pure_positions(P)[t]
    assert P.plan[t].pick == -1 and (len(boundary) - 1, -1) in pure
    assert [t for t, step in enumerate(P.plan) if step.pick] == [1, 4, 8, 10, 13]


def test_pareto_reduce_sorts_pure_coordinates_in_vertex_order():
    """Pure positions come in pattern-vertex order, which need not be
    position order: with ``((2, 1), (0, 1))`` a class is sorted by
    position 2 and then position 0, and the class is the remaining
    position 1.  The pass keeps the states it keeps with the coordinates
    laid out in vertex order, in the same order.  A direction of -1
    makes larger values better: negating a coordinate and its direction
    keeps the same states."""
    states = {(0, 5, 4): "a", (9, 6, 0): "b", (2, 5, 2): "c", (3, 5, 1): "d",
              (1, 5, 2): "e"}
    out = _pareto_reduce(states, ((2, 1), (0, 1)))
    assert list(out.items()) == [((3, 5, 1), "d"), ((1, 5, 2), "e"),
                                 ((0, 5, 4), "a"), ((9, 6, 0), "b")]
    in_vertex_order = {(x2, x0, c): v for (x0, c, x2), v in states.items()}
    assert (list(_pareto_reduce(in_vertex_order, ((0, 1), (1, 1))).values())
            == list(out.values()))
    negated = {(-x0, c, x2): v for (x0, c, x2), v in states.items()}
    assert (list(_pareto_reduce(negated, ((2, 1), (0, -1))).values())
            == list(out.values()))
    # One coordinate with larger values better.
    assert list(_pareto_reduce(states, ((0, -1),))) == [(0, 5, 4), (9, 6, 0), (2, 5, 2),
                                                        (3, 5, 1)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pareto_reduce_keeps_exactly_the_undominated_states(data):
    """Position 0 is the class; one to four pure coordinates follow, in
    a random vertex order and in either direction.  In each class a
    state is kept exactly when no other state is at least as good in
    every pure coordinate, and classes keep the order they first appear
    in."""
    count = data.draw(st.integers(1, 4))
    pure = tuple(zip(data.draw(st.permutations(range(1, count + 1))),
                     data.draw(st.lists(st.sampled_from((1, -1)),
                                        min_size=count, max_size=count))))
    keys = data.draw(st.lists(st.tuples(st.integers(0, 1), *[st.integers(0, 3)] * count),
                              unique=True, min_size=2, max_size=40))
    states = {key: i for i, key in enumerate(keys)}

    def dominates(a, b):
        return a != b and a[0] == b[0] and all(a[k] * d <= b[k] * d for k, d in pure)

    out = _pareto_reduce(states, pure)
    assert set(out) == {key for key in keys if not any(dominates(o, key) for o in keys)}
    assert all(out[key] == states[key] for key in out)
    order = list(dict.fromkeys(key[0] for key in keys))
    assert [key[0] for key in out] == sorted((key[0] for key in out), key=order.index)


def _pure_positions(P):
    """Each step's boundary and its pure (position, direction) pairs, in
    pattern-vertex order, found from the definitions: the boundary is
    rebuilt by running each step's projection on the vertex ids; a
    boundary vertex is pure once all its pattern neighbors are placed,
    unless both vertices next to it in its part are unplaced.  It bounds
    windows on its left when the vertex before it is unplaced, so a
    larger image is better (-1), and otherwise a smaller one (1)."""
    out = []
    boundary = ()
    for t, (p, step) in enumerate(zip(P.order, P.plan)):
        boundary = step.get_rest(boundary) + (p,)
        placed = set(P.order[:t + 1])

        def unplaced(q, side):
            r = q + side
            return (0 <= r < P.n and P.part[r] == P.part[q] and r not in placed)

        pure = []
        for q in sorted(boundary):
            if (all(r in placed for r in P.nbrs[q])
                    and not (unplaced(q, -1) and unplaced(q, 1))):
                pure.append((boundary.index(q), -1 if unplaced(q, -1) else 1))
        out.append((boundary, tuple(pure)))
    return out


def _flags_cleared(P):
    """P with every step's pick and injective flags cleared and a Pareto
    pass over all its pure positions: every layer is expanded by the
    plain walk and then cut, and every child goes through the duplicate
    test."""
    Q = copy.copy(P)
    Q.plan = [step._replace(pick=0, reduce=pure, cut_inline=False, injective=False)
              for step, (_, pure) in zip(P.plan, _pure_positions(P))]
    return Q


def _skips_keep_every_state(host, pattern, index=PatternIndex):
    """The plan changes no layer.  A step picks an extreme image exactly
    when its placed vertex, last in its boundary, is pure, in its
    direction, and its pass reduces all its pure positions or none.  With
    the flags cleared and a pass at every step with a pure coordinate,
    every layer comes back the same, in order, with the same parents: so
    each pass the plan omits would have returned its layer unchanged, in
    order, and each least- or greatest-image layer is the cut of the
    plain walk.  Every stored state leaves the next step a non-empty
    window (see ``find_embedding``).  Returns how many inherited steps (a
    pure coordinate, no pick and no pass) the search ran."""
    if not pattern.edges:
        return 0
    H = HostIndex(host)
    inherited = 0
    for _, rotated in rotations(pattern):
        P = index(rotated)
        steps = list(zip(P.plan, _pure_positions(P)))
        for step, (boundary, pure) in steps:
            picked = [d for k, d in pure if k == len(boundary) - 1]
            assert step.pick == (picked[0] if picked else 0)
            assert step.reduce in ((), pure)
        layers = [list(layer.items()) for layer in _layers(P, H)]
        assert layers == [list(layer.items()) for layer in _layers(_flags_cleared(P), H)]
        for step, layer in zip(P.plan[1:], layers):
            for key, _ in layer:
                lo = step.lo_gap + (key[step.lo_pos] if step.lo_pos is not None else 0)
                hi = (key[step.hi_pos] if step.hi_pos is not None
                      else H.sizes[step.part]) - step.hi_gap
                assert lo <= hi
        inherited += sum(1 for step, (_, pure) in steps[:len(layers)]
                         if pure and not step.pick and not step.reduce)
    return inherited


# H:1 placed part by part from left to right, u and v merged: the step
# placing u3 keeps the whole boundary and the one pure coordinate of the
# step before it, v3, and places a vertex that is not pure.
H1_LEFT_TO_RIGHT = [7, 8, 0, 9, 1, 2, 3, 10, 11, 12, 13, 4, 5, 6]


def test_inherited_skip_fires_on_the_tripling_host():
    host = power_distance_graph(18, 3, "bipartite")

    def left_to_right(p):
        P = PatternIndex(p)
        P._compile(H1_LEFT_TO_RIGHT)
        return P

    assert _skips_keep_every_state(host, keszegh_h(1), left_to_right) > 0


@given(*ORDERED_PAIRS)
@settings(max_examples=150, deadline=None)
def test_skipped_passes_keep_every_state_ordered(host, pattern):
    _skips_keep_every_state(host, pattern)


@given(*BIPARTITE_PAIRS)
@settings(max_examples=150, deadline=None)
def test_skipped_passes_keep_every_state_bipartite(host, pattern):
    _skips_keep_every_state(host, pattern)


@given(*CYCLIC_PAIRS)
@settings(max_examples=100, deadline=None)
def test_skipped_passes_keep_every_state_cyclic(host, pattern):
    _skips_keep_every_state(host, pattern)


def test_small_hosts_are_cut_too():
    """A layer is cut however few states it holds: the sailboat as its
    own host fills no layer past a handful of states, and still its
    step placing a pure vertex expands by its least image, its two steps
    with one pure coordinate cut while they walk and its two steps with
    more run a pass."""
    with patch("ordex.containment._extreme_image_layer",
               wraps=_extreme_image_layer) as pick, \
            patch("ordex.containment._cut_walk_layer", wraps=_cut_walk_layer) as inline, \
            patch("ordex.containment._pareto_reduce", wraps=_pareto_reduce) as reduce:
        assert contains(sailboat(), sailboat()) is not None
    assert (pick.call_count, inline.call_count, reduce.call_count) == (1, 2, 2)


def test_peak_layer_stays_small():
    """Placing a window-only vertex before the neighbor that pins it
    made its whole window one layer: 36,470 states for H:1 on the
    tripling host at n = 60 and 21,115 for the hook on the doubling host
    at n = 208 when each part was placed left to right.  The searched
    order keeps every layer of both proofs under 5,000 states."""
    for pattern, host in ((keszegh_h(1), power_distance_graph(60, 3, "bipartite")),
                          (HOOK_PATTERN, power_distance_graph(208, 2, "ordered"))):
        layers = _layers(PatternIndex(pattern), HostIndex(host))
        assert layers and max(map(len, layers)) <= 5000


@given(bipartite_graphs_(max_n=6, max_m=6))
@settings(max_examples=100, deadline=None)
def test_every_pattern_contains_itself(g):
    if not g.edges:
        return
    emb = contains(g, g)
    assert emb is not None
    assert emb.u_map == tuple(range(1, g.n_u + 1))
    assert emb.v_map == tuple(range(1, g.n_v + 1))


@given(ordered_graphs(max_n=8), ordered_graphs(max_n=5, max_edges=5, min_n=2))
@settings(max_examples=120, deadline=None)
def test_monotone_under_subpatterns(host, pattern):
    """If the host contains a pattern it contains every subpattern."""
    if len(pattern.edges) < 2:
        return
    if contains(host, pattern) is None:
        return
    sub = ordered_graph(pattern.n_u, pattern.edges[:-1])
    if sub.edges:
        assert contains(host, sub) is not None


def test_cyclic_containment_is_containment_of_a_rotation():
    """A cyclic host contains a pattern exactly when its linear reading,
    as an ordered host, contains some rotation of the pattern read as an
    ordered pattern: cutting the circle at host vertex 1 turns a cyclic
    copy into an increasing copy of one rotation, and back.  Cyclic
    ``contains`` and the exact solver's cyclic path both rely on this,
    so it is checked here by brute force alone on seeded pairs of both
    answers."""
    rng = random.Random(2026)
    answers = []
    for _ in range(300):
        k, n = rng.randint(2, 5), rng.randint(2, 8)
        pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
        pattern = cyclic_graph(k, rng.sample(pairs, rng.randint(1, min(4, len(pairs)))))
        cells = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        host = cyclic_graph(n, [c for c in cells if rng.random() < rng.random()])
        cyclic = brute_force_embedding(host, pattern) is not None
        linear = ordered_graph(n, host.edges)
        rotations = (ordered_graph(k, rotate_cyclic(pattern, s).edges) for s in range(k))
        rotated = any(brute_force_embedding(linear, r) is not None for r in rotations)
        assert cyclic == rotated, (host, pattern)
        answers.append(cyclic)
    assert 50 < sum(answers) < 250


def _find_calls(host, pattern):
    """Searches one cyclic ``contains`` runs, and its answer."""
    with patch("ordex.containment.find_embedding", wraps=find_embedding) as spy:
        emb = contains(host, pattern)
    return spy.call_count, emb


def test_cyclic_contains_searches_each_distinct_rotation_once():
    """An avoiding cyclic host costs one search per distinct rotation of
    the pattern, whatever its size."""
    fan = cyclic_graph(30, [(1, j) for j in range(2, 31)])
    assert _find_calls(fan, cyclic_graph(4, [(1, 3), (2, 4)])) == (1, None)
    matching = cyclic_graph(30, [(a, a + 1) for a in range(1, 30, 2)])
    path = cyclic_graph(3, [(1, 2), (2, 3)])
    assert len(rotations(path)) == 3
    assert _find_calls(matching, path) == (3, None)


def _planted_host(rng, pattern, n, p):
    """Seeded random host of density p with one copy of pattern planted."""
    if pattern.flavor == "bipartite":
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        edges = set(rng.sample(cells, round(p * len(cells))))
        us = sorted(rng.sample(range(1, n + 1), pattern.n_u))
        vs = sorted(rng.sample(range(1, n + 1), pattern.n_v))
        edges |= {(us[a - 1], vs[b - 1]) for a, b in pattern.edges}
        return bipartite_graph(n, n, sorted(edges))
    cells = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = set(rng.sample(cells, round(p * len(cells))))
    xs = sorted(rng.sample(range(1, n + 1), pattern.n_u))
    if pattern.flavor == "cyclic":
        r = rng.randrange(len(xs))
        xs = xs[r:] + xs[:r]
    edges |= {tuple(sorted((xs[a - 1], xs[b - 1]))) for a, b in pattern.edges}
    make = ordered_graph if pattern.flavor == "ordered" else cyclic_graph
    return make(n, sorted(edges))


WITNESS_PATTERNS = {
    "hook": (HOOK_PATTERN, 40),
    "H:1": (keszegh_h(1), 24),
    "sailboat": (sailboat(), 24),
    "crossing": (cyclic_graph(4, [(1, 3), (2, 4)]), 30),
    "C4": (cyclic_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 30),
}

# Recorded once; a change here means the search order or the bounded
# first pass changed.
WITNESSES = {
    'hook#1': {'u_map': [1, 2, 24, 28]},
    'hook#2': {'u_map': [1, 4, 26, 30]},
    'hook#3': {'u_map': [1, 2, 17, 31]},
    'H:1#1': {'u_map': [2, 3, 5, 6, 8, 9, 22], 'v_map': [1, 3, 6, 8, 9, 12, 23]},
    'H:1#2': {'u_map': [2, 6, 7, 8, 10, 14, 24], 'v_map': [1, 5, 13, 18, 19, 20, 21]},
    'H:1#3': {'u_map': [2, 3, 4, 5, 7, 10, 24], 'v_map': [4, 6, 8, 11, 19, 20, 24]},
    'sailboat#1': {'u_map': [1, 2, 21], 'v_map': [3, 4, 10, 12]},
    'sailboat#2': {'u_map': [2, 8, 19], 'v_map': [1, 2, 5, 10]},
    'sailboat#3': {'u_map': [3, 4, 10], 'v_map': [3, 7, 20, 21]},
    'crossing#1': {'u_map': [1, 2, 3, 6]},
    'crossing#2': {'u_map': [1, 5, 14, 16]},
    'crossing#3': {'u_map': [1, 3, 8, 13]},
    'C4#1': {'u_map': [1, 6, 8, 17]},
    'C4#2': {'u_map': [1, 16, 29, 30]},
    'C4#3': {'u_map': [13, 14, 18, 29]},
}


@pytest.mark.parametrize("case", sorted(WITNESSES))
def test_contains_witness_is_pinned(case):
    """``contains`` returns the same first witness on seeded planted hosts."""
    name, seed = case.rsplit("#", 1)
    pattern, n = WITNESS_PATTERNS[name]
    host = _planted_host(random.Random(int(seed)), pattern, n, 0.1)
    emb = contains(host, pattern)
    assert emb is not None and embedding_is_valid(host, pattern, emb)
    assert emb.as_dict() == WITNESSES[case]


def test_contains_digest_is_pinned():
    """``contains`` on the scripts/contains_digest.py corpus (planted hosts
    of every flavor, the doubling, tripling and C4-free avoiding hosts)
    returns byte-identical results to the pinned digest.  Every layer
    with a pure coordinate is cut, whatever its size, and the corpus's
    patterns cut layers by least and by greatest images, while walking
    and by the Pareto pass, with one, two and more pure coordinates in
    both directions, so a change to the cut rule, to the placement
    order search or to the bounded first pass moves this digest."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(root / "scripts" / "contains_digest.py")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split()[-1] == (
        "3d843b65987eb8f7c058c1243004b9bd0999741fa9707e5353587294460f6289")
