"""Exact solver against brute force, plus the counting routines."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordex.catalog import permutation_matching
from ordex.containment import contains
from ordex.graphs import (GraphValueError, PatternGraph, bipartite_graph,
                          cyclic_graph, ordered_graph)
from ordex.solver import (SizeCapError, SolverCaps, count_avoiders,
                          count_avoiding_permutations, growth_table,
                          max_edges_avoiding)

from oracles import (brute_force_avoider_count, brute_force_embedding,
                     brute_force_max_edges, brute_force_perm_avoiders, catalan)


def _oracle_contains(host, pattern):
    return brute_force_embedding(host, pattern)


def test_two_vertex_host_cannot_contain_larger_pattern():
    pattern = ordered_graph(3, [(1, 2), (2, 3)])
    rec = max_edges_avoiding("ordered", 2, pattern)
    assert rec.value == 1
    assert rec.witness == ordered_graph(2, [(1, 2)])


def test_identity_two_by_two():
    rec = max_edges_avoiding("bipartite", 2, permutation_matching([1, 2]), m=2)
    assert rec.value == 3
    assert brute_force_max_edges("bipartite", 2, 2, permutation_matching([1, 2]),
                                 _oracle_contains) == 3


def test_hook_pattern_bipartite_is_linear_small():
    # One of the two parts can be saturated but not both: at most
    # |U| + |V| edges for the two-interval version of the hook pattern.
    # Exact values computed once and frozen.
    pat = bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)])
    for n, expected in ((2, 3), (3, 5), (4, 7), (5, 9)):
        rec = max_edges_avoiding("bipartite", n, pat, m=n)
        assert rec.value == expected
        assert rec.value <= 2 * n


def test_witness_is_validated_and_lexicographically_least():
    pat = permutation_matching([1, 2])
    rec = max_edges_avoiding("bipartite", 3, pat, m=3)
    assert contains(rec.witness, pat) is None
    assert rec.witness.n_edges == rec.value
    again = max_edges_avoiding("bipartite", 3, pat, m=3)
    assert again.witness == rec.witness


def test_caps_refused():
    pat = permutation_matching([1, 2])
    with pytest.raises(SizeCapError):
        max_edges_avoiding("bipartite", 9, pat, m=9)
    with pytest.raises(SizeCapError):
        max_edges_avoiding("ordered", 13, ordered_graph(2, [(1, 2)]))
    with pytest.raises(SizeCapError):
        count_avoiders(5, pat)
    with pytest.raises(SizeCapError):
        count_avoiding_permutations(11, [1, 2])
    loose = SolverCaps(bipartite=9)
    assert max_edges_avoiding("bipartite", 2, pat, m=2, caps=loose).value == 3


def test_argument_validation():
    pat = permutation_matching([1, 2])
    with pytest.raises(GraphValueError):
        max_edges_avoiding("bipartite", 3, pat)  # missing m
    with pytest.raises(GraphValueError):
        max_edges_avoiding("ordered", 3, pat)  # flavor mismatch
    with pytest.raises(GraphValueError):
        max_edges_avoiding("ordered", 3, ordered_graph(3, []))  # edgeless
    with pytest.raises(GraphValueError):
        count_avoiding_permutations(3, "")  # empty pattern
    with pytest.raises(GraphValueError):
        count_avoiding_permutations(-1, [1, 2])  # negative length


def test_count_avoiders_refuses_negative_size():
    pat = permutation_matching([1, 2])
    with pytest.raises(GraphValueError):
        count_avoiders(-2, pat)
    assert count_avoiders(0, pat) == 1  # the empty host


@pytest.mark.parametrize("flavor, n, m", [("ordered", -1, None), ("cyclic", -2, None),
                                          ("bipartite", -1, 2), ("bipartite", 2, -1)])
def test_negative_sizes_refused_before_search(flavor, n, m):
    """A negative size is refused before the DP table is built, so no
    junk entry lands in its cache."""
    from ordex.solver import _row_table

    pattern = {"ordered": ordered_graph(4, [(1, 3), (1, 4), (2, 4)]),
               "cyclic": cyclic_graph(4, [(1, 3), (2, 4)]),
               "bipartite": permutation_matching([1, 2])}[flavor]
    before = _row_table.cache_info()
    with pytest.raises(GraphValueError, match="negative part size"):
        max_edges_avoiding(flavor, n, pattern, m=m)
    assert _row_table.cache_info() == before


def test_solver_matches_oracle_randomized():
    rng = random.Random(4242)
    flavors = ["ordered", "bipartite", "cyclic"]
    checked = 0
    for _ in range(60):
        flavor = rng.choice(flavors)
        if flavor == "bipartite":
            pn, pm = rng.randint(1, 3), rng.randint(1, 3)
            cells = [(u, v) for u in range(1, pn + 1) for v in range(1, pm + 1)]
            rng.shuffle(cells)
            pattern = bipartite_graph(pn, pm, cells[:rng.randint(1, min(3, len(cells)))])
            n = m = rng.randint(1, 3)
            rec = max_edges_avoiding(flavor, n, pattern, m=m)
            ref = brute_force_max_edges(flavor, n, m, pattern, _oracle_contains)
        else:
            pn = rng.randint(2, 4)
            pairs = [(a, b) for a in range(1, pn + 1) for b in range(a + 1, pn + 1)]
            rng.shuffle(pairs)
            edges = pairs[:rng.randint(1, min(3, len(pairs)))]
            pattern = (ordered_graph if flavor == "ordered" else cyclic_graph)(pn, edges)
            n = rng.randint(2, 4)
            rec = max_edges_avoiding(flavor, n, pattern)
            ref = brute_force_max_edges(flavor, n, 0, pattern, _oracle_contains)
        assert rec.value == ref
        checked += 1
    assert checked == 60


def test_avoider_counts_small():
    one = bipartite_graph(1, 1, [(1, 1)])
    assert count_avoiders(1, one) == 1
    # 2x2 hosts containing the identity matching are exactly those with
    # both diagonal cells set: 4 of 16, leaving 12 avoiders.
    assert count_avoiders(2, permutation_matching([1, 2])) == 12
    assert count_avoiders(2, permutation_matching([1, 2])) == \
        brute_force_avoider_count(2, permutation_matching([1, 2]), _oracle_contains)


def test_avoider_count_matches_brute_force_n3():
    pat = permutation_matching([2, 1])
    assert count_avoiders(3, pat) == \
        brute_force_avoider_count(3, pat, _oracle_contains)


def _random_bipartite_patterns(seed, count):
    rng = random.Random(seed)
    patterns = []
    for _ in range(count):
        pn, pm = rng.randint(1, 3), rng.randint(1, 3)
        cells = [(u, v) for u in range(1, pn + 1) for v in range(1, pm + 1)]
        rng.shuffle(cells)
        patterns.append(bipartite_graph(pn, pm, cells[:rng.randint(1, min(4, len(cells)))]))
    return patterns


def test_avoider_counts_match_brute_force_on_random_patterns():
    """Seeded small patterns, some with empty rows or columns, against
    full enumeration of every n x n host."""
    patterns = _random_bipartite_patterns(2024, 20)
    degrees = [p.degrees() for p in patterns]
    assert any(0 in du for du, _ in degrees) and any(0 in dv for _, dv in degrees)
    for pattern in patterns:
        for n in range(4):
            assert count_avoiders(n, pattern) == \
                brute_force_avoider_count(n, pattern, _oracle_contains), (pattern, n)


def test_avoider_count_of_the_hook_at_the_cap():
    # Exact count computed once and frozen; the 4x4 hosts are 2^16.
    assert count_avoiders(4, BIPARTITE_PATTERNS["11/01"]) == 6902


def test_avoider_halving_recursion():
    """Doubling the host size at most multiplies the count by
    15^(max edges of the half-size avoider)."""
    pat = permutation_matching([1, 2])
    small = count_avoiders(2, pat)
    big = count_avoiders(4, pat)
    ex = max_edges_avoiding("bipartite", 2, pat, m=2).value
    assert big <= small * 15 ** ex


def test_permutation_counts():
    assert count_avoiding_permutations(1, [2, 1]) == 1
    assert count_avoiding_permutations(3, [1, 2, 3]) == 5
    assert count_avoiding_permutations(8, [1, 3, 2]) == 1430
    assert count_avoiding_permutations(4, [1, 2]) == 1


@given(st.permutations([1, 2, 3]), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_permutation_counts_match_brute_force(pi, n):
    assert count_avoiding_permutations(n, list(pi)) == \
        brute_force_perm_avoiders(n, list(pi))


def test_catalan_agreement_small():
    for n in range(1, 7):
        assert count_avoiding_permutations(n, [1, 3, 2]) == catalan(n)


def test_growth_table_shapes():
    pat = bipartite_graph(1, 1, [(1, 1)])
    rows = growth_table(pat, "bipartite", range(1, 4))
    assert [r.value for r in rows] == [0, 0, 0]
    rows = growth_table(permutation_matching([1, 2]), "bipartite", range(1, 5))
    values = [r.value for r in rows]
    assert values == sorted(values)
    assert rows[0].per_n_log_n is None


def test_growth_table_rejects_sizes_below_one():
    with pytest.raises(GraphValueError):
        growth_table(permutation_matching([1, 2]), "bipartite", range(0, 3))


@pytest.mark.parametrize("flavor, pattern, message", [
    ("bipartite", bipartite_graph(2, 3, [(1, 1), (1, 3), (2, 2)]),
     "size cap exceeded: 4x4 over bipartite cap 3"),
    ("ordered", ordered_graph(4, [(1, 4), (2, 3)]),
     "size cap exceeded: 4 over ordered cap 3"),
], ids=["bipartite", "ordered"])
def test_growth_table_refuses_a_range_over_a_cap_before_solving(flavor, pattern,
                                                                 message):
    """A range that crosses a size cap is refused with the solver's own
    message before any size below the cap is solved."""
    from ordex.solver import _row_table

    before = _row_table.cache_info()
    with pytest.raises(SizeCapError) as err:
        growth_table(pattern, flavor, range(1, 5),
                     caps=SolverCaps(ordered=3, bipartite=3))
    assert str(err.value) == message
    assert _row_table.cache_info() == before


def test_growth_table_superadditive():
    rows = growth_table(permutation_matching([2, 1]), "bipartite", range(1, 5))
    v = {r.n: r.value for r in rows}
    assert v[2] >= 2 * v[1]
    assert v[4] >= v[1] + v[3]
    assert v[4] >= 2 * v[2]


CYCLIC_PATTERNS = {
    "crossing": cyclic_graph(4, [(1, 3), (2, 4)]),
    "C4": cyclic_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
}
ORDERED_PATTERNS = {
    "hook": ordered_graph(4, [(1, 3), (1, 4), (2, 4)]),
    "crossing": ordered_graph(4, [(1, 3), (2, 4)]),
    "path": ordered_graph(3, [(1, 2), (2, 3)]),
}
BIPARTITE_PATTERNS = {
    "11/01": bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)]),
    "12": permutation_matching([1, 2]),
    "132": permutation_matching([1, 3, 2]),
}


def _assert_value_and_least_witness(flavor, n, m, pattern):
    """The solver's value is brute force's, and its witness is the first
    avoiding host in itertools.combinations order of that size."""
    rec = max_edges_avoiding(flavor, n, pattern, m=m)
    value = brute_force_max_edges(flavor, n, m or 0, pattern, _oracle_contains)
    if flavor == "bipartite":
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
    else:
        cells = list(itertools.combinations(range(1, n + 1), 2))
    least = next(combo for combo in itertools.combinations(cells, value)
                 if _oracle_contains(PatternGraph(flavor, n, m or 0, combo),
                                     pattern) is None)
    assert rec.value == value
    assert rec.witness.edges == least


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", sorted(CYCLIC_PATTERNS))
def test_cyclic_value_and_least_witness_match_brute_force(name, n):
    _assert_value_and_least_witness("cyclic", n, None, CYCLIC_PATTERNS[name])


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", sorted(ORDERED_PATTERNS))
def test_ordered_value_and_least_witness_match_brute_force(name, n):
    _assert_value_and_least_witness("ordered", n, None, ORDERED_PATTERNS[name])


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 3)])
@pytest.mark.parametrize("name", sorted(BIPARTITE_PATTERNS))
def test_bipartite_value_and_least_witness_match_brute_force(name, n, m):
    _assert_value_and_least_witness("bipartite", n, m, BIPARTITE_PATTERNS[name])


@pytest.mark.parametrize("n,m", [(4, 4), (4, 5), (5, 4)])
def test_zigzag_value_and_least_witness_match_brute_force(n, m):
    """The zig-zag tree keeps every kept column fixed, so no Pareto cut
    applies and its DP states are the largest among small patterns."""
    zigzag = bipartite_graph(3, 3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)])
    _assert_value_and_least_witness("bipartite", n, m, zigzag)


def test_ordered_hook_values_are_frozen():
    # Exact values computed once and frozen; n = 10 and 11 were also
    # found by an independent branch and bound search.  One DP table
    # serves every n, so the loop costs about what n = 11 alone does.
    hook = ORDERED_PATTERNS["hook"]
    for n, expected in ((7, 14), (8, 17), (9, 21), (10, 25), (11, 29)):
        assert max_edges_avoiding("ordered", n, hook).value == expected


@pytest.mark.parametrize("flavor", ["ordered", "cyclic"])
def test_crossing_values_reach_the_cap(flavor):
    """A host avoiding the crossing (1,3),(2,4) is outerplanar with its
    vertices in convex position, so a maximal one has 2n - 3 edges; the
    values hold at every size up to the cap of 12."""
    crossing = PatternGraph(flavor, 4, 0, ((1, 3), (2, 4)))
    for n in range(2, 13):
        assert max_edges_avoiding(flavor, n, crossing).value == 2 * n - 3, n


def test_linear_patterns_reach_n_plus_m_minus_one_up_to_the_cap():
    """ex(n, m) = n + m - 1 for 11/01, 12 and 21 at every size to 8x8.

    A full first row and a full last column avoid 12 and 21 (after
    flipping the rows for 21), and splitting the cells into n + m - 1
    chains that each hold at most one edge caps them.  In a host avoiding
    11/01 every edge is the first of its row or the last of its column,
    which again caps it at n + m - 1.
    """
    for name in ("11/01", "12", "21"):
        pattern = permutation_matching([2, 1]) if name == "21" else \
            BIPARTITE_PATTERNS[name]
        for m in range(1, 9):
            for n in range(1, 9):
                assert max_edges_avoiding("bipartite", n, pattern, m=m).value == \
                    n + m - 1, (name, n, m)


def test_solver_digest_is_pinned():
    """Values and witnesses of max_edges_avoiding on the
    scripts/solver_digest.py corpus are byte-identical to the pinned
    digest."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(root / "scripts" / "solver_digest.py")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split()[-1] == (
        "eb82f3c116f1a7df934afbf186c92dfeb46806df75b57ec88c3a65e98ff4321c")


def test_growth_probe_cache_without_directory_is_a_usage_error(tmp_path):
    """``--cache`` with no directory is refused with a usage message and
    exit 2, not a traceback."""
    root = Path(__file__).resolve().parents[1]
    pattern = tmp_path / "hook.txt"
    pattern.write_text("bipartite 2 2\n1 1\n1 2\n2 2\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(root / "scripts" / "growth_probe.py"),
                          str(pattern), "3", "--cache"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stderr.startswith("usage:")
    assert "Traceback" not in out.stderr


def test_growth_probe_raises_the_cyclic_cap_too(tmp_path):
    """A cyclic pattern with N_MAX over the cyclic cap of 12 is solved up to
    N_MAX like the other flavors, not refused with a traceback."""
    root = Path(__file__).resolve().parents[1]
    pattern = tmp_path / "edge.txt"
    pattern.write_text("cyclic 2\n1 2\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(root / "scripts" / "growth_probe.py"),
                          str(pattern), "13"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].split()[:2] == ["13", "0"]
