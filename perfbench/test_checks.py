"""The benchmark's checks catch bad output, its tracer leaves no trace,
and job times are scaled by the CPU speed probed around them.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
Each test takes a few real jobs from a workload, corrupts what one of
them returns, and expects the failure count that feeds ``failed`` to
rise; the uncorrupted jobs are the control.
"""

import dataclasses
import json
import sys
from io import StringIO
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import embedding_ok  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def failed_count(workload, jobs, tracer=None):
    subset = workloads.Workload(jobs, workload.reset)
    _, _, answers = run.run_pass(subset, tracer)
    return run.failures(subset, answers, StringIO())


def pick(workload, prefix):
    return next(job for job in workload.jobs if job.name.startswith(prefix))


def corrupt(job, change):
    return dataclasses.replace(job, run=lambda: change(job.run()))


def test_wrong_values_fail(lib, tmp_path):
    w = workloads.setup_solve(lib, 3, tmp_path)
    solve, count = pick(w, "max bipartite n=3 m=3 11/01"), pick(w, "count n=3 12")
    assert failed_count(w, [solve, count]) == 0
    lower = corrupt(solve, lambda rec: dataclasses.replace(rec, value=rec.value - 1))
    assert failed_count(w, [lower, count]) == 1
    assert failed_count(w, [solve, corrupt(count, lambda c: c + 1)]) == 1


def test_invalid_witness_fails(lib, tmp_path):
    w = workloads.setup_witness(lib, 3, tmp_path)
    job = pick(w, "cyclic")
    assert failed_count(w, [job]) == 0
    backwards = corrupt(job, lambda emb: dataclasses.replace(
        emb, u_map=tuple(reversed(emb.u_map))))
    assert failed_count(w, [backwards]) == 1
    assert failed_count(w, [corrupt(job, lambda emb: None)]) == 1


def test_embedding_checker_needs_every_edge(lib):
    g = lib.graphs
    host = g.ordered_graph(5, [(1, 3), (2, 4)])
    pattern = g.ordered_graph(3, [(1, 2), (2, 3)])
    assert not embedding_ok(host, pattern, (1, 3, 5))
    path = g.ordered_graph(5, [(1, 3), (3, 5)])
    assert embedding_ok(path, pattern, (1, 3, 5))
    assert not embedding_ok(path, pattern, (1, 3, 3))


def test_cache_hit_must_be_byte_identical(lib, tmp_path):
    w = workloads.setup_session(lib, 3, tmp_path)
    hit = pick(w, "solve --cache exact hit")
    assert failed_count(w, [hit]) == 0
    reformatted = corrupt(hit, lambda a: (a[0], json.dumps(json.loads(a[1])) + "\n"))
    assert failed_count(w, [reformatted]) == 1


def test_wrong_bound_fails(lib, tmp_path):
    w = workloads.setup_session(lib, 3, tmp_path)
    bound = pick(w, "bound 'bipartite 2 2")

    def weaker(answer):
        payload = json.loads(answer[1])
        payload["upper"]["terms"] = [{"n_exp": "2/1", "log_exp": 0, "subexp": False}]
        return answer[0], json.dumps(payload)

    assert failed_count(w, [bound]) == 0
    assert failed_count(w, [corrupt(bound, weaker)]) == 1
    assert failed_count(w, [corrupt(bound, lambda a: (2, a[1]))]) == 1


def test_tracer_reports_every_layer_and_restores(lib, tmp_path):
    w = workloads.setup_session(lib, 3, tmp_path)
    original = lib.bounds.contains
    tracer = Tracer()
    jobs = [pick(w, p) for p in ("bound 'bipartite 2 2", "solve --cache exact hit",
                                 "solve --cache variant hit", "solve --cache miss")]
    assert failed_count(w, jobs, tracer) == 0
    assert lib.bounds.contains is original
    metrics = tracer.metrics(0.0)
    assert list(metrics) == list(LAYER_METRICS)
    value = {k: m["value"] for k, m in metrics.items()}
    assert value["cli.commands"] == 4
    assert (value["cache.hits"], value["cache.variant_hits"], value["cache.misses"]) == (1, 1, 1)
    assert value["bounds.contains_calls"] > 0 and value["bounds.upper_s"] > 0
    assert value["containment.find_calls"] > 0


def test_benchmark_file_lists_the_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(k, v[0], v[1]) for k, v in LAYER_METRICS.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_job_times_are_scaled_by_the_probes(lib, tmp_path, monkeypatch):
    w = workloads.setup_solve(lib, 3, tmp_path)
    job = pick(w, "count n=3 12")
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    times, probes, answers = run.run_pass(workloads.Workload([job], w.reset))
    assert probes == [2 * speed.REFERENCE_S] * 2 and answers[0][0]
    assert speed.scale(times[0], *probes) == pytest.approx(times[0] / 2)
