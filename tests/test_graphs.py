import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordex.graphs import (BIPARTITE, VARIANT_SEQUENCES, GraphValueError,
                          PatternGraph, apply_variant, bipartite_graph,
                          bipartite_variants,
                          canonical_variant, circular_chromatic_number,
                          connected_components, cyclic_graph,
                          induced_subgraph, interval_chromatic_number,
                          ordered_graph, remove_isolated_vertices,
                          rotate_cyclic, rotations,
                          underlying_shortest_cycle, variant_key, variants)
from ordex.catalog import (generalized_matching, keszegh_h, ordered_turan,
                           permutation_matching, sailboat)

from oracles import brute_force_interval_chromatic, find_k_cycle
from strategies import bipartite_graphs_, cyclic_graphs, ordered_graphs


def test_invariants_rejected():
    with pytest.raises(GraphValueError):
        ordered_graph(3, [(1, 1)])  # loop
    with pytest.raises(GraphValueError):
        ordered_graph(3, [(1, 4)])  # out of range
    with pytest.raises(GraphValueError):
        bipartite_graph(2, 2, [(1, 3)])
    with pytest.raises(GraphValueError):
        ordered_graph(3, [(1, 2), (2, 1)])  # duplicate after normalization
    with pytest.raises(GraphValueError):
        PatternGraph("ordered", 3, 1, ())  # single-part flavors have n_v = 0


def test_edges_canonicalized():
    g = ordered_graph(4, [(3, 1), (2, 4)])
    assert g.edges == ((1, 3), (2, 4))
    assert g == ordered_graph(4, [(2, 4), (1, 3)])


def test_interval_chromatic_examples():
    assert interval_chromatic_number(ordered_graph(5, [])) == 1
    assert interval_chromatic_number(ordered_graph(2, [(1, 2)])) == 2
    assert interval_chromatic_number(ordered_turan(9, 3)) == 3


@given(ordered_graphs(max_n=10))
@settings(max_examples=150, deadline=None)
def test_greedy_interval_chromatic_is_optimal(g):
    assert interval_chromatic_number(g) == brute_force_interval_chromatic(g)


def test_circular_chromatic_examples():
    assert circular_chromatic_number(cyclic_graph(4, [])) == 1
    assert circular_chromatic_number(cyclic_graph(2, [(1, 2)])) == 2
    matching = generalized_matching(1, [1, 2], "cyclic")
    assert circular_chromatic_number(matching) == 2


def test_circular_at_most_interval():
    # Cutting anywhere can only cost intervals, never save below the
    # linear optimum of the best rotation.
    g = cyclic_graph(6, [(1, 2), (3, 4), (5, 6), (1, 6)])
    linear = interval_chromatic_number(ordered_graph(6, g.edges))
    assert circular_chromatic_number(g) <= linear


def test_rotations_of_symmetric_patterns_are_one():
    for g in (cyclic_graph(4, [(1, 3), (2, 4)]),
              cyclic_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])):
        assert rotations(g) == ((0, ordered_graph(4, g.edges)),)


def test_rotations_of_a_path():
    g = cyclic_graph(3, [(1, 2), (2, 3)])
    assert rotations(g) == ((0, ordered_graph(3, [(1, 2), (2, 3)])),
                            (1, ordered_graph(3, [(1, 2), (1, 3)])),
                            (2, ordered_graph(3, [(1, 3), (2, 3)])))


@given(cyclic_graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_rotations_are_the_distinct_rotations_at_least_shift(g):
    # The reference rotates by every shift directly, bypassing the table,
    # and keeps the first shift giving each ordered image.
    shifts = {}
    for r in range(max(g.n_u, 1)):  # the empty graph is its own rotation
        shifts.setdefault(ordered_graph(g.n_u, rotate_cyclic(g, r).edges), r)
    assert rotations(g) == tuple((r, h) for h, r in shifts.items())


def test_rotations_of_other_flavors_are_the_graph():
    for g in (ordered_graph(3, [(1, 2), (2, 3)]), sailboat()):
        assert rotations(g) == ((0, g),)


def test_variants_single_edge():
    g = bipartite_graph(1, 1, [(1, 1)])
    assert bipartite_variants(g) == (g,)


def test_variants_of_permutation_matching():
    vs = bipartite_variants(permutation_matching([1, 2]))
    assert set(vs) == {permutation_matching([1, 2]), permutation_matching([2, 1])}


def test_sailboat_symmetric_under_double_reversal():
    from ordex.graphs import reverse_columns, reverse_rows
    sb = sailboat()
    assert reverse_rows(reverse_columns(sb)) == sb
    assert len(bipartite_variants(sb)) <= 8


@given(bipartite_graphs_(max_n=6, max_m=6))
@example(permutation_matching([2, 1, 3]))
@settings(max_examples=150, deadline=None)
def test_canonical_variant_is_least_and_invariant(g):
    # The reference applies every op sequence directly, bypassing the
    # cached variants table that canonical_variant reads.
    images = [apply_variant(g, ops) for ops in VARIANT_SEQUENCES]
    assert variants(g) == tuple(zip(VARIANT_SEQUENCES, images))
    least = min(images, key=variant_key)
    assert canonical_variant(g) == least
    for h in images:
        assert canonical_variant(h) == least


def test_remove_isolated():
    g = bipartite_graph(3, 3, [(1, 1), (3, 3)])
    out, (ru, rv) = remove_isolated_vertices(g)
    assert (ru, rv) == (1, 1)
    assert out == bipartite_graph(2, 2, [(1, 1), (2, 2)])

    empty, counts = remove_isolated_vertices(ordered_graph(4, []))
    assert empty.n_u == 0 and counts == (4, 0)

    h1 = keszegh_h(1)
    unchanged, counts = remove_isolated_vertices(h1)
    assert unchanged == h1 and counts == (0, 0)


def test_components_and_induced():
    g = ordered_graph(5, [(1, 3), (4, 5)])
    comps = connected_components(g)
    assert [c[0] for c in comps] == [(1, 3), (2,), (4, 5)]
    sub = induced_subgraph(g, [1, 3])
    assert sub == ordered_graph(2, [(1, 2)])


def test_underlying_shortest_cycle():
    assert underlying_shortest_cycle(ordered_graph(4, [(1, 2), (2, 3), (3, 4)])) is None
    square = bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert underlying_shortest_cycle(square) == 4
    assert underlying_shortest_cycle(sailboat()) is None
    triangle = ordered_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert underlying_shortest_cycle(triangle) == 3
    hexagon = bipartite_graph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
    assert underlying_shortest_cycle(hexagon) == 6


@given(st.one_of(ordered_graphs(max_n=7), cyclic_graphs(max_n=7),
                 bipartite_graphs_(max_n=4, max_m=4)))
@settings(max_examples=150, deadline=None)
def test_shortest_cycle_is_least_cycle_length(g):
    flat = g
    if g.flavor == BIPARTITE:
        flat = ordered_graph(g.n_u + g.n_v, [(u, g.n_u + v) for u, v in g.edges])
    least = next((k for k in range(3, flat.n_u + 1) if find_k_cycle(flat, k)), None)
    assert underlying_shortest_cycle(g) == least


@given(ordered_graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_components_cover_all_vertices(g):
    comps = connected_components(g)
    seen = sorted(v for us, _ in comps for v in us)
    assert seen == list(range(1, g.n_u + 1))
