"""Containment searcher against the exhaustive oracle and fixed cases."""

import copy
import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings

from ordex.catalog import complete_ordered, keszegh_h, sailboat
from ordex.constructions import power_distance_graph
from ordex.containment import (EdgelessPatternError, FlavorMismatchError,
                               HostIndex, PatternIndex, _pareto_reduce, contains,
                               embedding_is_valid, find_embedding)
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


def _agrees_with_oracle_cutting_every_layer(host, pattern):
    """Hosts this small never fill a layer past REDUCE_ABOVE, so the
    threshold is lowered to 0: every layer with a pure coordinate is then
    cut, by least images or by the Pareto pass."""
    with patch("ordex.containment.REDUCE_ABOVE", 0):
        _agrees_with_oracle(host, pattern)


ORDERED_PAIRS = (ordered_graphs(max_n=9),
                 ordered_graphs(max_n=5, max_edges=4, min_n=1))
BIPARTITE_PAIRS = (bipartite_graphs_(max_n=7, max_m=7),
                   bipartite_graphs_(max_n=4, max_m=4, max_edges=4))
CYCLIC_PAIRS = (cyclic_graphs(max_n=8), cyclic_graphs(max_n=5, max_edges=4, min_n=1))


@given(*ORDERED_PAIRS)
@settings(max_examples=250, deadline=None)
def test_oracle_agreement_ordered(host, pattern):
    _agrees_with_oracle(host, pattern)


@given(*BIPARTITE_PAIRS)
@settings(max_examples=250, deadline=None)
def test_oracle_agreement_bipartite(host, pattern):
    _agrees_with_oracle(host, pattern)


@given(*CYCLIC_PAIRS)
# The only copy is of the rotation at shift 3, and pattern vertex 2 is
# isolated, so every image must be mapped back to its own vertex.
@example(cyclic_graph(6, [(2, 4), (4, 6)]), cyclic_graph(4, [(1, 3), (1, 4)]))
@settings(max_examples=150, deadline=None)
def test_oracle_agreement_cyclic(host, pattern):
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


# Positions of the pure coordinates and the flags in a plan step.
PURE, SELF_PURE, INJECTIVE, INHERITED, SHARED = 7, 8, 9, 10, 11


def test_plan_flags_are_pinned():
    """In H:1 the step placing u3 keeps the whole boundary and the one
    pure coordinate of the step before it, v3, held only as the window
    anchor of its part; u3 itself waits for v5: the step is inherited,
    and no other step is.  Every step of the hook's plan but the last
    keeps the whole boundary; the last leaves only the vertex it places.
    No hook step is shared: the window-only steps placing vertices 1
    and 2 hold no coordinate besides the anchor.  In H:1 the window-only
    steps after the first two are shared."""
    P = PatternIndex(keszegh_h(1))
    u3 = 2
    assert [P.order[t] for t, step in enumerate(P.plan) if step[INHERITED]] == [u3]
    hook = PatternIndex(HOOK_PATTERN)
    assert [step[INJECTIVE] for step in hook.plan] == [True, True, True, False]
    assert not any(step[INHERITED] or step[SHARED] for step in hook.plan)
    assert [t for t, step in enumerate(P.plan) if step[SHARED]] == [4, 5, 7, 10]


def _flags_cleared(P):
    """P with every step's injective, inherited and shared flags cleared:
    every Pareto pass runs, every child goes through the duplicate test
    and every parent walks its own candidate mask."""
    Q = copy.copy(P)
    Q.plan = [step[:INJECTIVE] + (False, False, False) + step[SHARED + 1:]
              for step in P.plan]
    return Q


def _skips_keep_every_state(host, pattern):
    """With every layer cut, the flags change no search: the same images
    come back, and each Pareto pass an inherited step skips would have
    returned its layer unchanged, in order.  Returns how many skips
    fired: only two-part patterns have inherited steps, since in a
    single part the only pure coordinate is the vertex just placed."""
    if not pattern.edges:
        return 0
    H = HostIndex.of(host)
    fired = 0
    with patch("ordex.containment.REDUCE_ABOVE", 0):
        for _, rotated in rotations(pattern):
            P = PatternIndex(rotated)
            passes = []

            def spy(states, pure):
                out = _pareto_reduce(states, pure)
                passes.append(list(out.items()) == list(states.items()))
                return out

            with patch("ordex.containment._pareto_reduce", spy):
                plain = find_embedding(_flags_cleared(P), H)
            assert find_embedding(P, H) == plain
            # With every layer cut, a pass runs at every step with a pure
            # coordinate, bar a least-image step with only that one.
            reducing = [step for step in P.plan
                        if step[PURE] and (len(step[PURE]) > 1 or not step[SELF_PURE])]
            for step, unchanged in zip(reducing, passes):
                if step[INHERITED]:
                    assert unchanged
                    fired += 1
    return fired


def test_inherited_skip_fires_on_the_tripling_host():
    host = power_distance_graph(18, 3, "bipartite")
    assert _skips_keep_every_state(host, keszegh_h(1)) > 0


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

# Recorded once; a change here means the search order changed.
WITNESSES = {
    'hook#1': {'u_map': [6, 7, 12, 16]},
    'hook#2': {'u_map': [5, 11, 18, 21]},
    'hook#3': {'u_map': [5, 7, 10, 11]},
    'H:1#1': {'u_map': [2, 3, 5, 6, 8, 9, 17], 'v_map': [1, 3, 6, 7, 9, 12, 23]},
    'H:1#2': {'u_map': [2, 6, 7, 8, 10, 14, 23], 'v_map': [1, 5, 13, 16, 19, 20, 21]},
    'H:1#3': {'u_map': [2, 3, 4, 5, 7, 10, 12], 'v_map': [4, 6, 8, 10, 19, 20, 24]},
    'sailboat#1': {'u_map': [5, 6, 9], 'v_map': [1, 3, 7, 23]},
    'sailboat#2': {'u_map': [2, 8, 19], 'v_map': [1, 2, 5, 10]},
    'sailboat#3': {'u_map': [7, 12, 17], 'v_map': [12, 13, 20, 23]},
    'crossing#1': {'u_map': [1, 2, 3, 6]},
    'crossing#2': {'u_map': [1, 2, 14, 17]},
    'crossing#3': {'u_map': [2, 3, 6, 13]},
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
    returns byte-identical results to the pinned digest.  The corpus is
    large enough that layers are cut both by least images and by the
    Pareto pass, with one and with two pure coordinates."""
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
        "9ddab50a62a920107c828ac4c48bf0e1a21b19fa46e043714cc20fc7cb70ae4f")
