"""The four workloads: fixed job lists built from a seed.

A job is one library or CLI query plus the reference check its answer
must pass.  ``setup_<name>(lib, seed, work)`` makes a workload's inputs
from the seed alone, writes any files it needs under ``work`` and
returns the job list; ordex sees only the generated inputs.  ``lib``
holds the freshly imported ordex modules, looked up at call time so the
tracer's wrappers are seen.

Jobs run in a seeded order, so a burst of noise from other processes on
the machine spreads over every kind of job instead of one group.
Brute-force reference values are computed the first time a check needs
them, outside every timed region, and kept by value for the rest of the
process, so the fresh set-ups of later rounds reuse them.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
import shutil
from dataclasses import dataclass, field
from functools import partial
from io import StringIO
from pathlib import Path
from typing import Any, Callable

from checks import (embedding_ok, power_edges, read_graph_text, turan_edge_count,
                    witness_ok)

HOOK = ((1, 3), (1, 4), (2, 4))
CROSSING = ((1, 3), (2, 4))
ORDERED_C4 = (((1, 2), (2, 3), (3, 4), (1, 4)),
              ((1, 2), (2, 4), (3, 4), (1, 3)),
              ((1, 3), (2, 3), (2, 4), (1, 4)))
BIPARTITE_HOOK = ((1, 1), (1, 2), (2, 2))   # the matrix 11/01

BOUND_TABLE = Path(__file__).with_name("bound_outcomes.json")


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    jobs: list
    reset: Callable[[], None] = field(default=lambda: None)


def _graph(lib, flavor, n_u, n_v, edges):
    return lib.graphs.PatternGraph(flavor, n_u, n_v, tuple(sorted(edges)))


_brute_force_values = {}


def _brute_max(oracles, flavor, n, m, pattern):
    """Exhaustive maximum edge count of an n-by-m (or n-vertex) avoiding host."""
    key = (flavor, n, m, pattern.flavor, pattern.n_u, pattern.n_v, pattern.edges)
    if key not in _brute_force_values:
        _brute_force_values[key] = oracles.brute_force_max_edges(
            flavor, n, m or 0, pattern, oracles.brute_force_embedding)
    return _brute_force_values[key]


def _random_pattern(lib, rng, flavor, max_part=4, max_edges=3):
    """Seeded small pattern with at least one edge, as in the solver criterion."""
    if flavor == "bipartite":
        n, m = rng.randint(1, max_part), rng.randint(1, max_part)
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, m + 1)]
    else:
        n, m = rng.randint(2, max_part), 0
        cells = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    rng.shuffle(cells)
    return _graph(lib, flavor, n, m, cells[:rng.randint(1, min(max_edges, len(cells)))])


# ---------------------------------------------------------------------------
# avoid: avoidance proofs on the constructions, as `construct --verify` runs them
# ---------------------------------------------------------------------------

# (n, base, flavor, pattern): the tripling hosts against Keszegh's H:1 and
# H:2, and doubling hosts of growing size against the hook.  The theorems
# say each avoids.  These jobs do not depend on the seed and are the
# costliest; there are more of them than the ten jobs the tail percentile
# leaves above it, so it lands among them.
POWER_JOBS = (*((n, 3, "bipartite", h) for n in (50, 60) for h in ("H:1", "H:2")),
              *((n, 2, "ordered", "hook") for n in range(96, 209, 16)))
CKFREE_HOSTS = 20
CKFREE_N = 100


def _power_job(lib, n, base, flavor, pattern):
    host = lib.constructions.power_distance_graph(n, base, flavor)
    return host, lib.constructions.verify_construction(host, pattern)


def _ckfree_job(lib, n, seed, pattern):
    host = lib.constructions.random_ck_free(n, 4, seed)
    return host, lib.constructions.verify_construction(host, pattern)


def _check_power(n, base, answer):
    host, report = answer
    return (report.avoids is True and host.edges == power_edges(n, base)
            and report.edge_count == len(host.edges))


def _check_ckfree(oracles, answer):
    host, report = answer
    return report.avoids is True and not oracles.find_k_cycle(host, 4)


def setup_avoid(lib, seed, work):
    rng = random.Random(seed)
    patterns = {"H:1": lib.catalog.keszegh_h(1), "H:2": lib.catalog.keszegh_h(2),
                "hook": _graph(lib, "ordered", 4, 0, HOOK)}
    jobs = [Job(f"pow:{base}:{flavor} n={n} vs {name}",
                partial(_power_job, lib, n, base, flavor, patterns[name]),
                partial(_check_power, n, base))
            for n, base, flavor, name in POWER_JOBS]
    cycles = [_graph(lib, "ordered", 4, 0, c) for c in ORDERED_C4]
    for _ in range(CKFREE_HOSTS):
        host_seed = rng.randrange(2 ** 31)
        for i, cycle in enumerate(cycles):
            jobs.append(Job(f"ckfree:4 n={CKFREE_N} seed={host_seed} vs C4#{i}",
                            partial(_ckfree_job, lib, CKFREE_N, host_seed, cycle),
                            partial(_check_ckfree, lib.oracles)))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# witness: containment queries whose answer is "contains"
# ---------------------------------------------------------------------------

# (host flavor, host size, edge probability, pattern, host count).  Many
# hosts per kind, so the order statistics settle: the ordered hosts are
# the costliest kind and hold the tail percentile, and the crossing
# queries sit in the middle of the cost order, with as many jobs above
# them as the C4 queries below, so the median lands mid-cluster.
WITNESS_MIX = (("ordered", 120, 0.03, "hook", 14),
               ("bipartite", 24, 0.1, "H:1", 8),
               ("bipartite", 24, 0.1, "H:2", 8),
               ("bipartite", 30, 0.1, "sailboat", 8),
               ("cyclic", 60, 0.1, "crossing", 40),
               ("cyclic", 60, 0.1, "C4", 40))


def planted_host(lib, rng, flavor, n, p, pattern):
    """Random host with a copy of pattern planted at seeded positions.

    The background has exactly round(p * slots) edges rather than a
    binomial count, which keeps host cost from swinging with the seed.
    """
    if flavor == "bipartite":
        slots = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        edges = set(rng.sample(slots, round(p * len(slots))))
        us = sorted(rng.sample(range(1, n + 1), pattern.n_u))
        vs = sorted(rng.sample(range(1, n + 1), pattern.n_v))
        edges |= {(us[a - 1], vs[b - 1]) for a, b in pattern.edges}
        return _graph(lib, flavor, n, n, edges)
    slots = list(itertools.combinations(range(1, n + 1), 2))
    edges = set(rng.sample(slots, round(p * len(slots))))
    xs = sorted(rng.sample(range(1, n + 1), pattern.n_u))
    if flavor == "cyclic":
        r = rng.randrange(len(xs))
        xs = xs[r:] + xs[:r]
    edges |= {tuple(sorted((xs[a - 1], xs[b - 1]))) for a, b in pattern.edges}
    return _graph(lib, flavor, n, 0, edges)


def _contains_job(lib, host, pattern):
    return lib.containment.contains(host, pattern)


def _check_embedding(host, pattern, emb):
    return emb is not None and embedding_ok(host, pattern, emb.u_map, emb.v_map)


def setup_witness(lib, seed, work):
    rng = random.Random(seed)
    patterns = {"H:1": lib.catalog.keszegh_h(1), "H:2": lib.catalog.keszegh_h(2),
                "hook": _graph(lib, "ordered", 4, 0, HOOK),
                "sailboat": lib.catalog.sailboat(),
                "crossing": _graph(lib, "cyclic", 4, 0, CROSSING),
                "C4": _graph(lib, "cyclic", 4, 0, ORDERED_C4[0])}
    jobs = []
    for flavor, n, p, name, count in WITNESS_MIX:
        pattern = patterns[name]
        for i in range(count):
            host = planted_host(lib, rng, flavor, n, p, pattern)
            jobs.append(Job(f"{flavor} n={n} p={p} #{i} vs {name}",
                            partial(_contains_job, lib, host, pattern),
                            partial(_check_embedding, host, pattern)))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# solve: exact extremal values, avoider counts and permutation counts
# ---------------------------------------------------------------------------

# Random cases per (flavor, n, m) host shape; a fixed count per shape
# keeps the seed from changing the mix of shapes, only the patterns.
RANDOM_SOLVE_SHAPES = (("bipartite", 2, 2), ("bipartite", 2, 3), ("bipartite", 3, 2),
                       ("bipartite", 3, 3), ("ordered", 4, None), ("ordered", 5, None),
                       ("cyclic", 4, None), ("cyclic", 5, None))
RANDOM_CASES_PER_SHAPE = 3
# Seed-independent grid of named patterns and host shapes, checked by
# brute force.  It outnumbers the random cases, so the median job and the
# tail percentile both land on fixed instances and do not move with the
# seed.
GRID = {"ordered": (("hook", "C4#0", "C4#1", "C4#2", "ordered crossing"),
                    ((5, None), (6, None))),
        "bipartite": (("11/01", "12", "21", "123", "132"), ((3, 3), (3, 4), (4, 3))),
        "cyclic": (("crossing", "cyclic C4"), ((5, None), (6, None)))}
# Larger fixed instances, each costing up to a third of a second, with
# values recorded from this commit's solver; both agree with exhaustive
# enumeration, and 7 is also frozen in the test suite.  Permutation
# counts are Catalan numbers.
FIXED_MAX = (("ordered", 7, None, "hook", 14), ("bipartite", 4, 4, "11/01", 7))
FIXED_COUNT = ((3, "12", 104), (3, "21", 104), (3, "11/01", 230))
FIXED_PERMS = tuple((6, pi) for pi in itertools.permutations((1, 2, 3))) + ((7, (1, 3, 2)),)
# Every pattern of length 4 at n=5: two dozen jobs of nearly equal cost
# around the median, so the median job does not jump when the random
# cases shift the ranks by one or two.  Checked by brute force.
GRID_PERMS = tuple((5, pi) for pi in itertools.permutations((1, 2, 3, 4)))


def _solve_job(lib, flavor, n, m, pattern):
    return lib.solver.max_edges_avoiding(flavor, n, pattern, m=m)


def _count_job(lib, n, pattern):
    return lib.solver.count_avoiders(n, pattern)


def _perms_job(lib, n, pi):
    return lib.solver.count_avoiding_permutations(n, pi)


def _check_record(oracles, pattern, expected, rec):
    return (rec.value == expected() and rec.witness.n_edges == rec.value
            and oracles.brute_force_embedding(rec.witness, pattern) is None)


def _check_perms(oracles, n, pi, count):
    return count == oracles.brute_force_perm_avoiders(n, pi)


def setup_solve(lib, seed, work):
    rng = random.Random(seed)
    oracles = lib.oracles
    matching = lib.catalog.permutation_matching
    patterns = {"hook": _graph(lib, "ordered", 4, 0, HOOK),
                "ordered crossing": _graph(lib, "ordered", 4, 0, CROSSING),
                "11/01": _graph(lib, "bipartite", 2, 2, BIPARTITE_HOOK),
                "crossing": _graph(lib, "cyclic", 4, 0, CROSSING),
                "cyclic C4": _graph(lib, "cyclic", 4, 0, ORDERED_C4[0]),
                "12": matching((1, 2)), "21": matching((2, 1)),
                "123": matching((1, 2, 3)), "132": matching((1, 3, 2))}
    for i, cycle in enumerate(ORDERED_C4):
        patterns[f"C4#{i}"] = _graph(lib, "ordered", 4, 0, cycle)
    cases = [(flavor, n, m, f"random #{i}", _random_pattern(lib, rng, flavor), None)
             for i, (flavor, n, m) in enumerate(RANDOM_SOLVE_SHAPES * RANDOM_CASES_PER_SHAPE)]
    cases += [(flavor, n, m, name, patterns[name], None)
              for flavor, (names, shapes) in GRID.items()
              for name in names for n, m in shapes]
    cases += [(flavor, n, m, name, patterns[name], value)
              for flavor, n, m, name, value in FIXED_MAX]
    jobs = []
    for flavor, n, m, name, pattern, value in cases:
        reference = (partial(_brute_max, oracles, flavor, n, m, pattern) if value is None
                     else partial(int, value))
        jobs.append(Job(f"max {flavor} n={n} m={m} {name}",
                        partial(_solve_job, lib, flavor, n, m, pattern),
                        partial(_check_record, oracles, pattern, reference)))
    for n, name, value in FIXED_COUNT:
        jobs.append(Job(f"count n={n} {name}", partial(_count_job, lib, n, patterns[name]),
                        partial(operator.eq, value)))
    for n, pi in FIXED_PERMS:
        jobs.append(Job(f"count-perms {''.join(map(str, pi))} n={n}",
                        partial(_perms_job, lib, n, pi),
                        partial(operator.eq, oracles.catalan(n))))
    for n, pi in GRID_PERMS:
        jobs.append(Job(f"count-perms {''.join(map(str, pi))} n={n}",
                        partial(_perms_job, lib, n, pi),
                        partial(_check_perms, oracles, n, pi)))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# session: a scripted researcher session through ordex.cli.dispatch
# ---------------------------------------------------------------------------

TREE_MAX_EDGES = 5
LIFT_MAX_EDGES = 4
CACHE_PATTERNS = 8
CACHE_N = 3


def _dispatch(lib, argv):
    out = StringIO()
    code = lib.cli.dispatch(argv, out=out)
    return code, out.getvalue()


def _ok_json(check, answer, code=0):
    got, text = answer
    return got == code and check(json.loads(text))


def _bound_outcome(payload):
    """The parts of a `bound` payload the committed table pins."""
    out = {"lower": payload["lower"]["terms"]}
    if "classification" in payload:
        out["classification"] = payload["classification"]
    if "upper" in payload:
        up = payload["upper"]
        out["upper"] = up["terms"]
        out["no_derivation"] = up["no_derivation"]
    return out


def _replay_job(lib, tree, outputs, key):
    b = lib.bounds
    payload = json.loads(outputs[key][1])
    steps = tuple(b.DerivationStep(s["rule"], s["from"] + "\n", s["to"] + "\n",
                                   tuple(s.get("variant", ())),
                                   tuple(s.get("params", ())), s["transform"],
                                   tuple(s.get("caveats", ())))
                  for s in payload["upper"]["derivation"])
    return b.replay_derivation(tree, b.Derivation(steps, payload["upper"]["terminal"]))


def _remember(outputs, key, run):
    outputs[key] = run()
    return outputs[key]


def _flip_rows(lib, g):
    return _graph(lib, "bipartite", g.n_u, g.n_v,
                  [(g.n_u + 1 - u, v) for u, v in g.edges])


def _check_solve_payload(lib, pattern, reference, payload):
    return (payload["value"] == reference()
            and witness_ok(lib.graphs.PatternGraph, payload["witness"], pattern,
                           payload["value"], lib.oracles))


def setup_session(lib, seed, work):
    rng = random.Random(seed)
    oracles = lib.oracles
    serialize = lib.formats.serialize_graph
    pattern_dir = work / "patterns"
    pattern_dir.mkdir(parents=True)
    files = {}

    def write(g):
        text = serialize(g)
        if text not in files:
            path = pattern_dir / f"g{len(files)}.txt"
            path.write_text(text)
            files[text] = str(path)
        return files[text]

    table = json.loads(BOUND_TABLE.read_text())["outcomes"]
    groups = []      # jobs that must stay adjacent; the seed shuffles groups
    outputs = {}

    def bound_group(g, replay):
        path = write(g)
        key = serialize(g).strip()
        argv = ["bound", "--pattern", path, "--direction", "both", "--trace"]
        group = [Job(f"bound {key!r}",
                     partial(_remember, outputs, key, partial(_dispatch, lib, argv)),
                     partial(_ok_json, lambda p, k=key: _bound_outcome(p) == table[k]))]
        if replay:
            group.append(Job(f"replay {key!r}",
                             partial(_replay_job, lib, g, outputs, key),
                             lambda ok: ok is True))
        groups.append(group)

    # Bound census over the tree patterns, every outcome kept, including
    # the trees no rule reaches; their trace is empty, so no replay.
    for tree in oracles.enumerate_tree_patterns(TREE_MAX_EDGES):
        key = serialize(tree).strip()
        bound_group(tree, replay=not table[key]["no_derivation"])
    # Ordered patterns: two-interval ones go through the lift, the
    # triangle is classified quadratic.
    for tree in oracles.enumerate_tree_patterns(LIFT_MAX_EDGES):
        bound_group(_graph(lib, "ordered", tree.n_u + tree.n_v, 0,
                           [(u, tree.n_u + v) for u, v in tree.edges]), replay=False)
    hook = _graph(lib, "ordered", 4, 0, HOOK)
    bound_group(hook, replay=False)
    bound_group(_graph(lib, "ordered", 3, 0, ((1, 2), (2, 3), (1, 3))), replay=False)

    # Small commands checked against brute force and closed forms.
    for family, size, count in (("sailboat", (3, 4), 6), ("H:1", (7, 7), 8),
                                ("H:2", (10, 10), 11), ("match:2:21:bipartite", (2, 4), 4),
                                ("turan:6:3", (6, 0), turan_edge_count(6, 3))):
        groups.append([Job(f"gen {family}", partial(_dispatch, lib, ["gen", family]),
                           lambda a, size=size, count=count: a[0] == 0 and
                           read_graph_text(a[1])[1:3] == size and
                           len(read_graph_text(a[1])[3]) == count)])
    for i in range(6):
        g = _graph(lib, "ordered", 9, 0, [(a, b) for a in range(1, 10)
                                          for b in range(a + 1, 10) if rng.random() < 0.3])
        path = write(g)
        groups.append([Job(f"chromatic random #{i}",
                           partial(_dispatch, lib, ["chromatic", path]),
                           partial(_ok_json, lambda p, g=g: p["chi"] ==
                                   oracles.brute_force_interval_chromatic(g)))])
        groups.append([Job(f"verify random #{i} vs hook",
                           partial(_dispatch, lib, ["verify", "--graph", path,
                                                    "--pattern", write(hook)]),
                           partial(_ok_json, lambda p, g=g: p["avoids"] ==
                                   (oracles.brute_force_embedding(g, hook) is None)))])
    groups.append([Job("construct pow:2:ordered n=128 --verify hook",
                       partial(_dispatch, lib, ["construct", "--family", "pow:2:ordered",
                                                "--n", "128", "--verify", write(hook)]),
                       partial(_ok_json, lambda p: p["avoids"] is True and
                               p["edge_count"] == len(power_edges(128, 2))))])
    groups.append([Job("count-perms 132 n=7",
                       partial(_dispatch, lib, ["count-perms", "--perm", "132", "--n", "7"]),
                       partial(_ok_json, lambda p: p["count"] == oracles.catalan(7)))])
    groups.append([Job("solve over the ordered cap (refused)",
                       partial(_dispatch, lib, ["solve", "--pattern", write(hook),
                                                "--flavor", "ordered", "--n", "13"]),
                       partial(_ok_json, lambda p: p["kind"] == "cap", code=1))])

    # Cache: prefilled during setup, restored before every pass.
    snapshot, live = work / "cache-snapshot", work / "cache"
    store = lib.cache.RecordCache(snapshot)
    chosen = {}
    while len(chosen) < CACHE_PATTERNS:
        p, _ = lib.graphs.remove_isolated_vertices(_random_pattern(lib, rng, "bipartite", 3))
        flipped = _flip_rows(lib, p)
        if flipped != p and p not in chosen and flipped not in chosen:
            chosen[p] = flipped
    exact = {}
    for p in chosen:
        for n in (2, CACHE_N):
            store.fetch("bipartite", p, n, n)
        exact[p] = store.load_bytes("bipartite", p, CACHE_N, CACHE_N)
    live_dir = str(live)

    for p, flipped in chosen.items():
        path, flipped_path = write(p), write(flipped)
        groups.append([Job(f"solve --cache exact hit {serialize(p).strip()!r}",
                           partial(_dispatch, lib, ["solve", "--pattern", path, "--flavor",
                                                    "bipartite", "--n", str(CACHE_N),
                                                    "--cache", live_dir]),
                           lambda a, raw=exact[p]: a[0] == 0 and a[1].encode() == raw)])
        reference = partial(_brute_max, oracles, "bipartite", CACHE_N, CACHE_N, flipped)
        groups.append([Job(f"solve --cache variant hit {serialize(flipped).strip()!r}",
                           partial(_dispatch, lib, ["solve", "--pattern", flipped_path,
                                                    "--flavor", "bipartite", "--n",
                                                    str(CACHE_N), "--cache", live_dir]),
                           partial(_ok_json, partial(_check_solve_payload, lib, flipped,
                                                     reference)))])
        reference = partial(_brute_max, oracles, "bipartite", CACHE_N, 2, p)
        groups.append([Job(f"solve --cache miss 3x2 {serialize(p).strip()!r}",
                           partial(_dispatch, lib, ["solve", "--pattern", path, "--flavor",
                                                    "bipartite", "--n", str(CACHE_N),
                                                    "--m", "2", "--cache", live_dir]),
                           partial(_ok_json, partial(_check_solve_payload, lib, p,
                                                     reference)))])
        values = [partial(_brute_max, oracles, "bipartite", n, n, p) for n in (1, 2, 3)]
        groups.append([Job(f"table --cache n=1..3 {serialize(p).strip()!r}",
                           partial(_dispatch, lib, ["table", "--pattern", path,
                                                    "--n-min", "1", "--n-max", "3",
                                                    "--cache", live_dir]),
                           partial(_ok_json, lambda rows, values=values:
                                   [r["value"] for r in rows] == [v() for v in values]))])

    rng.shuffle(groups)

    def reset():
        shutil.rmtree(live, ignore_errors=True)
        shutil.copytree(snapshot, live)
        outputs.clear()

    return Workload([job for group in groups for job in group], reset)


WORKLOADS = {"avoid": setup_avoid, "witness": setup_witness,
             "solve": setup_solve, "session": setup_session}
