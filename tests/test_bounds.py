"""Bound engine: classification, rules, traces and both directions."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ordex.bounds import (AsymptoticBound, BoundTerm, classify_pattern,
                          bipartite_to_ordered, derive_lower_bound,
                          derive_upper_bound, lift_bipartite_to_ordered,
                          ordered_to_bipartite, replay_derivation)
from ordex.catalog import (generalized_matching, keszegh_h,
                           permutation_matching, sailboat)
from ordex.graphs import (GraphValueError, bipartite_graph, bipartite_variants,
                          ordered_graph)

from oracles import enumerate_tree_patterns
from strategies import bipartite_graphs_, permutations_up_to

FOUR_CYCLE = bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])


# ---------------------------------------------------------------------------
# terms and bounds
# ---------------------------------------------------------------------------

def test_term_ordering():
    n = BoundTerm(Fraction(1))
    nlog = BoundTerm(Fraction(1), 1)
    nsub = BoundTerm(Fraction(1), 0, True)
    n43 = BoundTerm(Fraction(4, 3))
    assert n.key() < nlog.key() < nsub.key() < n43.key()


def test_bound_normalization_drops_dominated():
    b = AsymptoticBound.of({BoundTerm(Fraction(1)), BoundTerm(Fraction(1), 2),
                            BoundTerm(Fraction(0))}, "upper")
    assert b.terms == (BoundTerm(Fraction(1), 2),)


def test_incomparable_terms_coexist():
    b = AsymptoticBound.of({BoundTerm(Fraction(4, 3)),
                            BoundTerm(Fraction(1), 5)}, "upper")
    assert len(b.terms) == 2


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_triangle_quadratic():
    triangle = ordered_graph(3, [(1, 2), (2, 3), (1, 3)])
    cls = classify_pattern(triangle)
    assert cls.kind == "quadratic" and cls.chi == 3
    assert cls.density_coefficient == Fraction(1, 4)


def test_classify_sailboat_special():
    assert classify_pattern(sailboat()).kind == "sailboat"
    as_ordered = bipartite_to_ordered(sailboat())
    assert classify_pattern(as_ordered).kind == "sailboat"


def test_classify_matching_bipartite():
    assert classify_pattern(permutation_matching([1, 2])).kind == "bipartite"


def test_conversions_round_trip():
    sb = sailboat()
    assert ordered_to_bipartite(bipartite_to_ordered(sb)) == sb
    with pytest.raises(GraphValueError):
        ordered_to_bipartite(ordered_graph(3, [(1, 2), (2, 3), (1, 3)]))


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

@given(permutations_up_to(5))
@settings(max_examples=60, deadline=None)
def test_matchings_derive_linear(pi):
    res = derive_upper_bound(permutation_matching(pi))
    assert not res.no_derivation
    assert res.bound.terms == (BoundTerm(Fraction(1)),)
    assert replay_derivation(permutation_matching(pi), res.derivation)


def test_tuple_matchings_derive_linear():
    g = generalized_matching(3, [2, 1], "bipartite")
    res = derive_upper_bound(g)
    assert res.bound.terms == (BoundTerm(Fraction(1)),)


def test_sailboat_gets_subexponential_term():
    res = derive_upper_bound(sailboat())
    assert res.bound.dominant == BoundTerm(Fraction(1), 0, True)
    assert res.derivation.terminal == "sailboat"
    assert replay_derivation(sailboat(), res.derivation)


def test_four_cycle_has_no_derivation():
    res = derive_upper_bound(FOUR_CYCLE)
    assert res.no_derivation
    assert res.bound.dominant == BoundTerm(Fraction(2))
    assert res.derivation.steps == ()


def test_append_rule_chain():
    # Two-row caterpillar: strip the appended leaf row, then cover.
    g = bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)])
    res = derive_upper_bound(g)
    assert not res.no_derivation
    dom = res.bound.dominant
    assert dom.n_exp == 1 and dom.log_exp == 0 and not dom.subexp
    assert replay_derivation(g, res.derivation)


def test_guarded_leaf_costs_one_log():
    # The four-edge configuration itself: removing the guarded column
    # must appear with a times-log transform somewhere in the search.
    g = bipartite_graph(2, 3, [(1, 2), (1, 3), (2, 1), (2, 3)])
    res = derive_upper_bound(g)
    assert not res.no_derivation
    dom = res.bound.dominant
    assert dom.n_exp == 1 and dom.log_exp <= 1
    assert replay_derivation(g, res.derivation)


def test_split_rule_fires_on_two_blocks():
    g = bipartite_graph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    # Edges partition at the shared edge (2, 2)... verify engine finds
    # some linear-times-polylog bound and the trace replays.
    res = derive_upper_bound(g)
    assert not res.no_derivation
    assert res.bound.dominant.n_exp == 1
    assert replay_derivation(g, res.derivation)


def test_split_enumerator_finds_the_shared_edge():
    from ordex.bounds import _split_shared_edge

    two_blocks = bipartite_graph(3, 3,
                                 [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    apps = {params: (low, high) for (low, high), params
            in _split_shared_edge(two_blocks)}
    assert (2, 2) in apps
    low, high = apps[(2, 2)]
    assert low == bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)])
    assert high == bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)])
    # A cycle admits no split: every cut is crossed.
    assert list(_split_shared_edge(FOUR_CYCLE)) == []
    # Degenerate corners never count as progress.
    single = bipartite_graph(1, 1, [(1, 1)])
    assert list(_split_shared_edge(single)) == []


@given(bipartite_graphs_(max_n=4, max_m=4, max_edges=6, min_n=1, min_m=1))
@settings(max_examples=120, deadline=None)
def test_random_patterns_trace_soundly_and_consistently(g):
    """Whatever the engine derives must replay, and the lower bound can
    never exceed the upper bound."""
    if not g.edges:
        return
    upper = derive_upper_bound(g)
    if not upper.no_derivation:
        assert replay_derivation(g, upper.derivation)
        assert upper.bound.dominant.n_exp <= 2
    lower = derive_lower_bound(g)
    assert lower.bound.dominant.key() <= upper.bound.dominant.key()


def test_upper_bound_never_contradicts_known_lower():
    # The family member is non-linear, so a plain linear upper bound
    # would be unsound; anything the engine reports must be at least
    # n log n or an honest no-derivation.
    res = derive_upper_bound(keszegh_h(1))
    if not res.no_derivation:
        assert res.bound.dominant.key() >= BoundTerm(Fraction(1), 1).key()


@given(permutations_up_to(4))
@settings(max_examples=30, deadline=None)
def test_variant_invariance(pi):
    results = {derive_upper_bound(v).bound.dominant
               for v in bipartite_variants(permutation_matching(pi))}
    assert len(results) == 1


def test_depth_zero_still_finds_base_cases():
    res = derive_upper_bound(permutation_matching([2, 1]), depth=0)
    assert not res.no_derivation

    caterpillar = bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)])
    res = derive_upper_bound(caterpillar, depth=0)
    assert res.no_derivation  # needs one stripping step


def _clear_ordex_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("ordex") and module is not None:
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_shared_memo_gives_cold_results_in_any_order():
    queries = [(g, depth) for depth in (12, 3, 0)
               for g in enumerate_tree_patterns(5)]
    assert len(queries) == 3 * 32
    cold = {}
    for g, depth in queries:
        _clear_ordex_caches()
        cold[g, depth] = derive_upper_bound(g, depth)
    random.Random(5).shuffle(queries)
    for g, depth in queries:
        warm = derive_upper_bound(g, depth)
        assert warm.as_dict() == cold[g, depth].as_dict()
        if not warm.no_derivation:
            assert replay_derivation(g, warm.derivation)


def test_negative_depth_is_refused():
    with pytest.raises(GraphValueError):
        derive_upper_bound(permutation_matching([2, 1]), depth=-1)


def test_rejects_non_bipartite_and_edgeless():
    with pytest.raises(GraphValueError):
        derive_upper_bound(ordered_graph(3, [(1, 2)]))
    with pytest.raises(GraphValueError):
        derive_upper_bound(bipartite_graph(2, 2, []))


def test_replay_rejects_tampered_trace():
    res = derive_upper_bound(sailboat())
    assert not replay_derivation(permutation_matching([1, 2]), res.derivation)


STAIRCASE = bipartite_graph(3, 3, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])


@pytest.mark.parametrize("rule, side, replays", [
    ("split_shared_edge", ("high",), True),
    ("split_shared_edge", ("mid",), False),
    ("split_shared_edge", (), False),
    ("nope", ("high",), False),
], ids=["honest", "unknown-side", "no-side", "unknown-rule"])
def test_replay_refuses_forged_steps(rule, side, replays):
    """A split step replays only with a side its rule records; a step
    naming no known rule is refused, not raised on."""
    from ordex.bounds import Derivation, DerivationStep, _split_shared_edge
    from ordex.formats import serialize_graph
    from ordex.graphs import canonical_variant

    canon = canonical_variant(STAIRCASE)
    (low, high), (x, y) = next(_split_shared_edge(canon))
    step = DerivationStep(rule, serialize_graph(canon),
                          serialize_graph(canonical_variant(high)),
                          params=(x, y) + side)
    derivation = Derivation((step,), "generalized-matching")
    assert replay_derivation(STAIRCASE, derivation) is replays


@pytest.mark.parametrize("change, replays", [
    ({}, True),
    ({"variant": ("bogus",)}, False),
    ({"variant": ("swap", "swap", "ru")}, False),
    ({"params": ()}, False),
    ({"params": (0, 1)}, False),
    ({"params": (2, 1, 2)}, False),
    ({"result": "bipartite 1 1\n1 1\n"}, False),
], ids=["honest", "unknown-op", "non-table-ops", "no-params", "bad-params",
        "not-least-cover", "wrong-result"])
def test_replay_refuses_forged_cover_steps(change, replays):
    """A cover step replays only as the search records it: its variant
    is one of the source's eight images and its params and result are
    the least cover of that image.  Anything else is refused, not
    raised on."""
    import dataclasses

    from ordex.bounds import Derivation

    pattern = permutation_matching([2, 1])
    (step,) = derive_upper_bound(pattern, depth=0).derivation.steps
    forged = dataclasses.replace(step, **change)
    derivation = Derivation((forged,), "generalized-matching")
    assert replay_derivation(pattern, derivation) is replays


def test_replay_refuses_a_sailboat_step_with_a_forged_result():
    """The sailboat base case reproduces its own source; a forged result
    would otherwise become the source of the next step."""
    import dataclasses

    from ordex.bounds import Derivation

    (step,) = derive_upper_bound(sailboat(), depth=0).derivation.steps
    forged = dataclasses.replace(step, result="not a graph")
    follow = dataclasses.replace(step, source="not a graph")
    derivation = Derivation((forged, follow), "sailboat")
    assert replay_derivation(sailboat(), derivation) is False


@pytest.mark.parametrize("change, replays", [
    ({}, True),
    ({"variant": ("ru", "rv")}, True),
    ({"variant": ("bogus",)}, False),
    ({"variant": ("ru",)}, False),
    ({"variant": ("swap",)}, False),
    ({"params": (1,)}, False),
], ids=["honest", "own-symmetry", "unknown-op", "row-reversal", "transpose",
        "params"])
def test_replay_checks_a_sailboat_step_like_any_rule(change, replays):
    """A sailboat step replays only on a variant of its source that is
    the canonical sailboat (the identity, or the sailboat's own symmetry
    of reversing both parts) and with the params it records, none."""
    import dataclasses

    from ordex.bounds import Derivation

    (step,) = derive_upper_bound(sailboat(), depth=0).derivation.steps
    forged = dataclasses.replace(step, **change)
    derivation = Derivation((forged,), "sailboat")
    assert replay_derivation(sailboat(), derivation) is replays


ZIGZAG = bipartite_graph(3, 3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)])


def test_one_rule_entry_is_a_new_base_case():
    """A base case is one ``_RULES`` entry: with a stub entry for the
    zig-zag the search derives it and the replay accepts the trace, and
    without it the zig-zag has no derivation again.  The stub is test
    scaffolding, not a claimed bound."""
    from unittest import mock

    from ordex import bounds
    from ordex.graphs import canonical_variant

    canon = canonical_variant(ZIGZAG)

    def stub(g):
        if g == canon:
            yield (g,), ()

    entry = bounds._Rule(stub, "stub", lambda _: frozenset({bounds.LINEAR}),
                         terminal="stub")
    bounds._search_upper.cache_clear()
    try:
        with mock.patch.dict(bounds._RULES, {"stub_case": entry}):
            res = derive_upper_bound(ZIGZAG)
            assert not res.no_derivation
            assert res.derivation.terminal == "stub"
            assert replay_derivation(ZIGZAG, res.derivation)
    finally:
        bounds._search_upper.cache_clear()
    assert derive_upper_bound(ZIGZAG).no_derivation


def test_bound_digest_is_pinned():
    """The bound engine's output on the scripts/bound_digest.py corpus
    (values, traces, replay verdicts, canonical forms, classes) is
    byte-identical to the pinned digest."""
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(root / "scripts" / "bound_digest.py")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split()[-1] == (
        "7fd46e913bbe9c3cac2e7d7272fe81c483bef617f9bfe093e2f826076a8e9313")


# ---------------------------------------------------------------------------
# lower bounds and the lift
# ---------------------------------------------------------------------------

def test_lower_bound_four_cycle():
    res = derive_lower_bound(FOUR_CYCLE)
    assert res.bound.dominant == BoundTerm(Fraction(4, 3))
    assert res.derivation.terminal == "cycle:4"


def test_lower_bound_six_cycle():
    hexagon = bipartite_graph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
    res = derive_lower_bound(hexagon)
    assert res.bound.dominant == BoundTerm(Fraction(6, 5))


def test_lower_bound_family_member():
    res = derive_lower_bound(keszegh_h(1))
    assert res.bound.dominant == BoundTerm(Fraction(1), 1)
    assert res.derivation.terminal == "nonlinear-family:1"


@pytest.mark.parametrize("k", [1, 2])
def test_lower_bound_family_member_as_ordered(k):
    """An n x n host avoiding H_k, laid out as rows then columns, is an
    ordered host avoiding the concatenation, so it is n log n as well."""
    res = derive_lower_bound(bipartite_to_ordered(keszegh_h(k)))
    assert res.bound.dominant == BoundTerm(Fraction(1), 1)
    assert res.derivation.terminal == f"nonlinear-family:{k}"


def test_lower_bound_floor():
    res = derive_lower_bound(bipartite_graph(1, 1, [(1, 1)]))
    assert res.bound.dominant == BoundTerm(Fraction(0))


def test_lower_bound_ordered_hook():
    hook = ordered_graph(4, [(1, 4), (1, 3), (2, 4)])
    res = derive_lower_bound(hook)
    assert res.bound.dominant == BoundTerm(Fraction(1), 1)
    bigger = ordered_graph(6, [(1, 6), (1, 4), (2, 6), (2, 3)])
    assert derive_lower_bound(bigger).bound.dominant == BoundTerm(Fraction(1), 1)


def test_lift_examples():
    lin = AsymptoticBound.of({BoundTerm(Fraction(1))}, "upper")
    assert lift_bipartite_to_ordered(lin).terms == (BoundTerm(Fraction(1), 1),)

    poly = AsymptoticBound.of({BoundTerm(Fraction(3, 2))}, "upper")
    assert lift_bipartite_to_ordered(poly).terms == (BoundTerm(Fraction(3, 2)),)

    polylog = AsymptoticBound.of({BoundTerm(Fraction(1), 2)}, "upper")
    assert lift_bipartite_to_ordered(polylog).terms == (BoundTerm(Fraction(1), 3),)

    subexp = AsymptoticBound.of({BoundTerm(Fraction(1), 0, True)}, "upper")
    assert lift_bipartite_to_ordered(subexp).terms == (BoundTerm(Fraction(1), 1, True),)

    with pytest.raises(GraphValueError):
        lift_bipartite_to_ordered(AsymptoticBound.of({BoundTerm(Fraction(1))},
                                                     "lower"))
