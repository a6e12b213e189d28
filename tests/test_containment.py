"""Containment searcher against the exhaustive oracle and fixed cases."""

import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings

from ordex.catalog import complete_ordered, keszegh_h, sailboat
from ordex.constructions import power_distance_graph
from ordex.containment import (EdgelessPatternError, FlavorMismatchError,
                               contains, embedding_is_valid,
                               embedding_uses_edge)
from ordex.graphs import (GraphValueError, PatternGraph, bipartite_graph,
                          cyclic_graph, ordered_graph)

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


def test_uses_edge_matches_delta():
    rng = random.Random(99)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
        rng.shuffle(cells)
        base = cells[1:rng.randint(1, len(cells))]
        extra = cells[0]
        pattern = bipartite_graph(2, 2, [(1, 1), (2, 2)])
        before = bipartite_graph(n, m, base)
        after = bipartite_graph(n, m, base + [extra])
        if contains(before, pattern) is not None:
            continue
        assert embedding_uses_edge(after, pattern, extra) == \
            (contains(after, pattern) is not None)


FORCED_PATTERNS = {
    "hook": HOOK_PATTERN,
    "C4#0": ordered_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "C4#1": ordered_graph(4, [(1, 2), (2, 4), (3, 4), (1, 3)]),
    "C4#2": ordered_graph(4, [(1, 3), (2, 3), (2, 4), (1, 4)]),
    "11/01": bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)]),
    "H:1": keszegh_h(1),
    "sailboat": sailboat(),
    "cyclic-hook": cyclic_graph(4, [(1, 3), (1, 4), (2, 4)]),
    "cyclic-crossing": cyclic_graph(4, [(1, 3), (2, 4)]),
    "cyclic-C4": cyclic_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
}


def _random_avoider(rng, pattern, n, m):
    """A seeded host that avoids the pattern (by the oracle), and its cells."""
    if pattern.flavor == "bipartite":
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
    else:
        cells = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    rng.shuffle(cells)
    target = rng.randint(0, len(cells))
    kept = []
    for cell in cells:
        if len(kept) == target:
            break
        host = PatternGraph(pattern.flavor, n, m, kept + [cell])
        if brute_force_embedding(host, pattern) is None:
            kept.append(cell)
    return kept, cells


@pytest.mark.parametrize("name", sorted(FORCED_PATTERNS))
def test_uses_edge_matches_oracle_on_added_edge(name):
    """The seeded search through one added edge agrees with brute force.

    Hosts avoid the pattern before the edge is added, as in the solver.
    Besides random edges, each host also gets edges too short (ordered)
    or too close to a corner (bipartite) for some pattern edge, where
    the seeds contradict the index gaps and a layer empties early.  On
    cyclic hosts the edge (1, n) is short too, and the hook is not
    rotation-symmetric, so some of its embeddings are found only in a
    rotated window.
    """
    pattern = FORCED_PATTERNS[name]
    rng = random.Random(sum(map(ord, name)))
    bipartite = pattern.flavor == "bipartite"
    checked = 0
    for _ in range(25):
        if bipartite:
            n = rng.randint(max(1, pattern.n_u - 1), pattern.n_u + 2)
            m = rng.randint(max(1, pattern.n_v - 1), pattern.n_v + 2)
        else:
            n, m = rng.randint(pattern.n_u - 1, pattern.n_u + 4), 0
        base, cells = _random_avoider(rng, pattern, n, m)
        if bipartite:
            extras = [rng.choice(cells), (n, 1), (1, m), (n, m)]
        else:
            a = rng.randint(1, max(1, n - 1))
            extras = [rng.choice(cells), (a, a + 1), (1, n)]
        for extra in extras:
            if extra in base or extra not in cells:
                continue
            after = PatternGraph(pattern.flavor, n, m, base + [extra])
            assert embedding_uses_edge(after, pattern, extra) == \
                (brute_force_embedding(after, pattern) is not None)
            checked += 1
    assert checked >= 25


def test_uses_edge_refuses_bad_input():
    host = ordered_graph(4, [(1, 3), (2, 4)])
    with pytest.raises(FlavorMismatchError):
        embedding_uses_edge(host, bipartite_graph(1, 1, [(1, 1)]), (1, 3))
    with pytest.raises(EdgelessPatternError):
        embedding_uses_edge(host, ordered_graph(2, []), (1, 3))
    with pytest.raises(GraphValueError):
        embedding_uses_edge(host, ordered_graph(2, [(1, 2)]), (1, 9))
    with pytest.raises(GraphValueError):
        embedding_uses_edge(host, ordered_graph(2, [(1, 2)]), (1, 2))
    assert embedding_uses_edge(host, ordered_graph(2, [(1, 2)]), (3, 1))
    cyclic = cyclic_graph(3, [(1, 3)])
    assert embedding_uses_edge(cyclic, cyclic_graph(3, [(1, 2)]), (3, 1))


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
