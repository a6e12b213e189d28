"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Expected values marked as computed-at-first-build
are frozen constants here, each cross-checked against an independent
oracle in this file or in oracles.py.

Criterion 10 carries a known, documented failure: one of the 32 tree
patterns with at most five edges (the zig-zag path layout 110/101/010)
admits no application of any shrinking rule in any symmetry variant, so
the engine reports its honest no-derivation outcome instead of a
linear-times-polylog bound.  The test asserts the criterion as stated
and therefore fails on that single pattern; the README's "Known engine
limit" section and scripts/tree_census.py carry the analysis.
"""

import itertools
import random
import statistics
import time
from fractions import Fraction

from ordex.bounds import (BoundTerm, derive_lower_bound, derive_upper_bound,
                          replay_derivation)
from ordex.catalog import keszegh_h, permutation_matching, sailboat
from ordex.constructions import power_distance_graph, random_ck_free
from ordex.containment import contains, embedding_is_valid
from ordex.graphs import (bipartite_graph, connected_components, cyclic_graph,
                          induced_subgraph, interval_chromatic_number,
                          ordered_graph, remove_isolated_vertices)
from ordex.solver import max_edges_avoiding, count_avoiding_permutations
from ordex.transforms import (find_double_extended_hat, hat_triple_embedding,
                              layered_decomposition, split_regularize)
from ordex.bounds import bipartite_to_ordered

from oracles import (brute_force_embedding, brute_force_max_edges,
                     brute_force_perm_avoiders, catalan, enumerate_tree_patterns,
                     find_k_cycle)

HOOK = ordered_graph(4, [(1, 4), (1, 3), (2, 4)])

# Frozen at first build; the tree count is a regression pin and the
# construction threshold is the exact median of the seeded runs below,
# which the deterministic generator reproduces forever.
TREE_PATTERN_COUNT = 32
CKFREE_MEDIAN_THRESHOLD = 50.5
CATALAN_PREFIX = (1, 2, 5, 14, 42, 132, 429, 1430)


def report(criterion, status, detail=""):
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


def random_flavored(rng, flavor, max_part, max_edges):
    if flavor == "bipartite":
        n = rng.randint(1, max_part)
        m = rng.randint(1, max_part)
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
        rng.shuffle(cells)
        return bipartite_graph(n, m, cells[:rng.randint(0, min(max_edges, len(cells)))])
    n = rng.randint(1, max_part)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    edges = pairs[:rng.randint(0, min(max_edges, len(pairs)))]
    return (ordered_graph if flavor == "ordered" else cyclic_graph)(n, edges)


def test_criterion_01_containment_oracle_suite():
    """contains agrees with exhaustive injection enumeration, 1000 cases
    per flavor, hosts up to 10 vertices per part, patterns up to 4 edges."""
    t0 = time.time()
    rng = random.Random(20260808)
    for flavor in ("ordered", "bipartite", "cyclic"):
        checked = 0
        while checked < 1000:
            host = random_flavored(rng, flavor, 10, 24)
            pattern = random_flavored(rng, flavor, 5, 4)
            if not pattern.edges:
                continue
            emb = contains(host, pattern)
            ref = brute_force_embedding(host, pattern)
            assert (emb is None) == (ref is None), (host, pattern)
            if emb is not None:
                assert embedding_is_valid(host, pattern, emb), (host, pattern)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, "PASS", f"3000 cases agree with the oracle in {elapsed:.1f}s")


def test_criterion_02_power_of_two_construction():
    """Doubling-distance hosts avoid the hook pattern and have exactly
    sum(n - 2^k) edges, at n = 16..256."""
    t0 = time.time()
    for n in (16, 32, 64, 128, 256):
        g = power_distance_graph(n, 2, "ordered")
        expected = 0
        d = 1
        while d < n:
            expected += n - d
            d *= 2
        assert g.n_edges == expected
        floor = n * (n.bit_length() - 1 - 1)  # n (floor(log2 n) - 1)
        assert g.n_edges >= floor
        assert contains(g, HOOK) is None
    elapsed = time.time() - t0
    assert elapsed < 30
    report(2, "PASS", f"n up to 256 verified in {elapsed:.1f}s")


def test_criterion_03_power_of_three_construction():
    """Tripling-distance bipartite hosts avoid the non-linear family."""
    t0 = time.time()
    for k in (1, 2):
        pattern = keszegh_h(k)
        for n in (50, 100, 200):
            g = power_distance_graph(n, 3, "bipartite")
            assert contains(g, pattern) is None, (n, k)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(3, "PASS", f"6 host/pattern pairs verified in {elapsed:.1f}s")


def test_criterion_04_permutation_counts_desk_scale():
    """All six patterns of size 3 give the same avoider counts for
    n <= 8, matching brute force and the closed-form cross-check."""
    t0 = time.time()
    for pi in itertools.permutations([1, 2, 3]):
        counts = tuple(count_avoiding_permutations(n, pi) for n in range(1, 9))
        assert counts == CATALAN_PREFIX, pi
        brute = tuple(brute_force_perm_avoiders(n, pi) for n in range(1, 7))
        assert brute == CATALAN_PREFIX[:6], pi
    assert CATALAN_PREFIX == tuple(catalan(n) for n in range(1, 9))
    elapsed = time.time() - t0
    assert elapsed < 30
    report(4, "PASS", f"six patterns, n to 8, all Catalan in {elapsed:.1f}s")


def _solver_cases():
    """Deterministic case list: all flavors, patterns to 3 edges, sizes
    to 4 per part.  Each bipartite pattern is solved at every size so
    the superadditivity and sandwich checks have full grids."""
    rng = random.Random(77)
    cases = []
    bipartite_patterns = set()
    while len(bipartite_patterns) < 25:
        pattern = random_flavored(rng, "bipartite", 4, 3)
        if pattern.edges:
            trimmed, _ = remove_isolated_vertices(pattern)
            bipartite_patterns.add(trimmed)
    for pattern in sorted(bipartite_patterns, key=lambda g: (g.n_u, g.n_v, g.edges)):
        for n in (1, 2, 3, 4):
            cases.append(("bipartite", n, n, pattern))
    while len(cases) < 220:
        flavor = rng.choice(["ordered", "cyclic"])
        pattern = random_flavored(rng, flavor, 4, 3)
        if not pattern.edges:
            continue
        cases.append((flavor, rng.randint(2, 4), None, pattern))
    return cases


_BIPARTITE_VALUES = {}


def test_criterion_05_solver_exactness():
    """The row-transfer DP (``solver._row_table``) equals maximization
    over all subgraphs of the complete host; witnesses validate."""
    t0 = time.time()
    cases = _solver_cases()
    for flavor, n, m, pattern in cases:
        rec = max_edges_avoiding(flavor, n, pattern, m=m)
        ref = brute_force_max_edges(flavor, n, m or 0, pattern,
                                    brute_force_embedding)
        assert rec.value == ref, (flavor, n, m, pattern)
        assert rec.witness.n_edges == rec.value
        assert contains(rec.witness, pattern) is None
        if flavor == "bipartite":
            _BIPARTITE_VALUES[(pattern, n)] = rec.value
    elapsed = time.time() - t0
    assert elapsed < 120
    report(5, "PASS", f"{len(cases)} cases match the oracle in {elapsed:.1f}s")


def test_criterion_06_superadditivity_and_sandwich():
    """Two-part values are superadditive for isolated-vertex-free
    patterns, and the half-size two-part value never exceeds the
    single-part value of the concatenated pattern."""
    if not _BIPARTITE_VALUES:
        test_criterion_05_solver_exactness()
    superadditive_checks = sandwich_checks = violations = 0
    patterns = {p for p, _ in _BIPARTITE_VALUES}
    for pattern in sorted(patterns, key=lambda g: (g.n_u, g.n_v, g.edges)):
        du, dv = pattern.degrees()
        if 0 in du or 0 in dv:
            continue
        values = {n: v for (p, n), v in _BIPARTITE_VALUES.items() if p == pattern}
        for a in values:
            for b in values:
                if a + b in values:
                    superadditive_checks += 1
                    if values[a + b] < values[a] + values[b]:
                        violations += 1
        as_ordered = bipartite_to_ordered(pattern)
        for n in (2, 4, 6):
            half = n // 2
            if half not in values:
                continue
            sandwich_checks += 1
            ordered_value = max_edges_avoiding("ordered", n, as_ordered).value
            if values[half] > ordered_value:
                violations += 1
    assert superadditive_checks > 50 and sandwich_checks > 50
    assert violations == 0
    report(6, "PASS", f"no violations over {superadditive_checks} "
                      f"superadditivity and {sandwich_checks} sandwich checks")


def test_criterion_07_splitting_suite():
    """Degree regularity, the edge-count floor, and avoidance transfer
    for the sailboat over 500 random splits."""
    rng = random.Random(555)
    sb = sailboat()
    for _ in range(500):
        g = random_flavored(rng, "bipartite", 9, 30)
        q = rng.randint(1, 5)
        out = split_regularize(g, q, seed=rng.randint(0, 2 ** 32))
        du, _ = out.degrees()
        assert all(d == q for d in du)
        assert out.n_edges >= g.n_edges - (q - 1) * g.n_u
        if contains(out, sb) is not None:
            assert contains(g, sb) is not None
    report(7, "PASS", "500 random splits keep all three guarantees")


def test_criterion_08_decomposition_suite():
    """Dyadic layers partition the edges; components stay small with at
    most two intervals; 100 random hosts up to 64 vertices."""
    rng = random.Random(808)
    for _ in range(100):
        n = rng.randint(1, 64)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(pairs)
        g = ordered_graph(n, pairs[:rng.randint(0, min(120, len(pairs)))])
        layers = layered_decomposition(g)
        union = sorted(e for layer in layers for e in layer.edges)
        assert union == list(g.edges)
        for i, layer in enumerate(layers):
            for comp, _ in connected_components(layer):
                if len(comp) == 1:
                    continue
                assert len(comp) <= -(-n // 2 ** i)
                assert interval_chromatic_number(
                    induced_subgraph(layer, comp)) <= 2
    report(8, "PASS", "100 random hosts decompose cleanly")


def test_criterion_09_hat_soundness():
    """Every triple found maps to a valid sailboat embedding; no
    sailboat-avoiding host yields a triple; 500 random hosts."""
    rng = random.Random(909)
    sb = sailboat()
    triples = 0
    for _ in range(500):
        g = random_flavored(rng, "bipartite", 10, 35)
        triple = find_double_extended_hat(g)
        avoiding = contains(g, sb) is None
        if triple is not None:
            triples += 1
            assert embedding_is_valid(g, sb, hat_triple_embedding(triple))
            assert not avoiding
    report(9, "PASS", f"500 hosts, {triples} triples, all sound")


def test_criterion_10_bound_engine_regression():
    """Every tree pattern with at most five edges derives n log^c with
    c <= 5 and a replayable trace; the sailboat gets its subexponential
    term; plain matchings get {n}.

    Known failure: the zig-zag path layout admits no rule application
    (see the module docstring), so this criterion is red on exactly one
    of the 32 patterns.
    """
    t0 = time.time()
    trees = enumerate_tree_patterns(5)
    assert len(trees) == TREE_PATTERN_COUNT

    res = derive_upper_bound(sailboat())
    assert res.bound.dominant == BoundTerm(1, 0, True)
    assert replay_derivation(sailboat(), res.derivation)

    for k in range(1, 6):
        for pi in itertools.permutations(range(1, k + 1)):
            res = derive_upper_bound(permutation_matching(pi))
            assert not res.no_derivation
            assert res.bound.dominant == BoundTerm(1)

    failures = []
    for g in trees:
        res = derive_upper_bound(g)
        dom = res.bound.dominant
        ok = (not res.no_derivation and dom.n_exp == 1 and not dom.subexp
              and dom.log_exp <= 5 and replay_derivation(g, res.derivation))
        if not ok:
            failures.append((g, res))
    elapsed = time.time() - t0
    assert elapsed < 300
    if failures:
        report(10, "FAIL", f"{len(failures)} of {len(trees)} tree patterns "
                           f"underivable: "
                           + "; ".join(str(g.edges) for g, _ in failures))
    else:
        report(10, "PASS", f"all {len(trees)} tree patterns derive "
                           f"in {elapsed:.1f}s")
    assert not failures, (
        "rule set cannot derive these tree patterns "
        "(known limit, see README): "
        + "; ".join(f"{g.n_u}x{g.n_v} {g.edges}" for g, _ in failures))


# Outcome counts of ``scripts/tree_census.py 6``, frozen when first
# measured: a new rule with a published proof lowers the underivable
# count on purpose and re-pins it.
SIX_EDGE_CENSUS = {"n log^0": 40, "n log^1": 60, "n log^2": 42,
                   "n log^3": 7, "no derivation": 18}


def test_six_edge_tree_census_is_pinned():
    """Regression fact beside criterion 10, not a criterion: the census
    of the 167 tree patterns with at most six edges, every derived trace
    replaying, reads the pinned outcome counts."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(root / "scripts" / "tree_census.py"),
                          "6"], capture_output=True, text=True, check=True, env=env)
    head, table, *_ = out.stdout.split("\n\n")
    assert head.startswith("167 tree patterns with <= 6 edges")
    counts = {label: int(n) for label, n in
              (line.strip().rsplit(None, 1) for line in table.splitlines())}
    assert counts == SIX_EDGE_CENSUS


def test_criterion_11_lower_bound_engine():
    """Cycle rule, family rule, and lower-never-exceeds-upper."""
    four_cycle = bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    res = derive_lower_bound(four_cycle)
    assert res.bound.dominant == BoundTerm(Fraction(4, 3))
    assert derive_lower_bound(keszegh_h(1)).bound.dominant == BoundTerm(1, 1)
    for g in enumerate_tree_patterns(5):
        lower = derive_lower_bound(g).bound.dominant
        upper = derive_upper_bound(g).bound.dominant
        assert lower.key() <= upper.key(), g
    report(11, "PASS", "cycle and family rules fire; lower <= upper throughout")


def test_criterion_12_ck_free_construction():
    """Twenty seeded runs at n=60, k=4: all verified cycle-free, median
    edge count at or above the pinned threshold."""
    t0 = time.time()
    counts = []
    for seed in range(20):
        g = random_ck_free(60, 4, seed)
        assert not find_k_cycle(g, 4), seed
        counts.append(g.n_edges)
    med = statistics.median(counts)
    floor = 0.05 * 60 ** (4 / 3)
    assert CKFREE_MEDIAN_THRESHOLD >= floor
    assert med >= CKFREE_MEDIAN_THRESHOLD
    elapsed = time.time() - t0
    assert elapsed < 120
    report(12, "PASS", f"median {med} >= pinned {CKFREE_MEDIAN_THRESHOLD} "
                       f">= floor {floor:.2f} in {elapsed:.1f}s")
