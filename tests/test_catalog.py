import pytest

from ordex.catalog import (as_permutation, generalized_matching, keszegh_h,
                           ordered_turan, permutation_matching, sailboat)
from ordex.containment import contains
from ordex.formats import parse_graph, serialize_graph
from ordex.graphs import (GraphValueError, bipartite_graph, ordered_graph,
                          interval_chromatic_number)

from hypothesis import given, settings
from strategies import permutations_up_to


def test_as_permutation_validates():
    assert as_permutation([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(GraphValueError):
        as_permutation([1, 1, 2])
    with pytest.raises(GraphValueError):
        as_permutation([2, 3])
    with pytest.raises(GraphValueError, match="need at least one entry"):
        as_permutation([])
    with pytest.raises(GraphValueError, match="need at least one entry"):
        generalized_matching(1, [], "bipartite")


def test_matching_small_cases():
    assert generalized_matching(1, [1], "bipartite") == \
        bipartite_graph(1, 1, [(1, 1)])
    assert generalized_matching(1, [2, 1], "bipartite") == \
        bipartite_graph(2, 2, [(1, 2), (2, 1)])
    # Hand expansion of the index arithmetic for two blocks of two.
    g = generalized_matching(2, [1, 2], "ordered")
    assert g == ordered_graph(6, [(1, 3), (1, 4), (2, 5), (2, 6)])


def test_matching_block_structure():
    g = generalized_matching(3, [2, 3, 1], "ordered")
    du, _ = g.degrees()
    k = 3
    assert all(d == 3 for d in du[:k])          # every left vertex owns a block
    assert all(d == 1 for d in du[k:])          # right vertices are matched once
    tail = [e for e in g.edges if e[0] > k]
    assert tail == []                           # no edges inside the tail


def test_family_member_edge_set_at_one():
    h1 = keszegh_h(1)
    assert h1.n_u == h1.n_v == 7
    assert set(h1.edges) == {(4, 1), (1, 2), (1, 3), (6, 7), (5, 7),
                             (7, 4), (2, 6), (3, 5)}


@pytest.mark.parametrize("k", range(1, 11))
def test_family_edge_count(k):
    assert keszegh_h(k).n_edges == 3 * k + 5


@pytest.mark.parametrize("k", range(1, 6))
def test_family_has_no_isolated_vertices(k):
    du, dv = keszegh_h(k).degrees()
    assert 0 not in du and 0 not in dv


def test_sailboat_shape():
    sb = sailboat()
    assert (sb.n_u, sb.n_v, sb.n_edges) == (3, 4, 6)


def test_turan_counts():
    assert ordered_turan(4, 4).n_edges == 6
    assert ordered_turan(6, 2).n_edges == 9
    assert interval_chromatic_number(ordered_turan(9, 3)) == 3
    with pytest.raises(GraphValueError):
        ordered_turan(2, 3)


@pytest.mark.parametrize("maker", [
    lambda: sailboat(),
    lambda: keszegh_h(2),
    lambda: generalized_matching(2, [3, 1, 2], "bipartite"),
    lambda: generalized_matching(2, [2, 1], "cyclic"),
    lambda: ordered_turan(7, 3),
])
def test_generators_round_trip(maker):
    g = maker()
    assert parse_graph(serialize_graph(g)) == g


@given(permutations_up_to(4))
@settings(max_examples=60, deadline=None)
def test_tuple_matching_contains_plain_matching(pi):
    for m in (1, 2, 3):
        big = generalized_matching(m, pi, "bipartite")
        assert contains(big, permutation_matching(pi)) is not None
