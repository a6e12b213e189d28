#!/usr/bin/env python3
"""ordex benchmark: fixed, seeded workloads timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload avoid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

One process runs one workload as a closed loop with a single client: a
job starts when the previous one has returned, with no threads.  The
workload's fixed job list is one pass, sized to take one to three seconds.
A round is one set-up followed by PASSES_PER_ROUND passes; rounds repeat
until the next one would overrun ``--seconds`` (at least one round runs).
With ``--trace 1`` every untraced pass is followed by a traced one.

Every time is scaled to a reference CPU speed (see ``speed``): a fixed
kernel runs between every two jobs and around every set-up, and each
time is scaled by the kernel's reference time over its time either side.
A job's time is the median of its scaled times over the untraced passes,
leaving out the first WARMUP_PASSES of the run.  ``wall_s`` is the sum of
those job times, the time to run the whole job list once; ``job_p50_s``
and ``job_tail_s`` are percentiles over them.  The summary line also
gives the unscaled pass and job-list times and the median probe time.
Before each pass the library's in-process memo caches are cleared, so
every pass does the same work.  Every answer is checked against an
independent reference after its job returns, outside the timed region.

Set-up (importing ordex from ``src/`` afresh, generating inputs, building
hosts, prefilling the cache) opens every round, and ``setup_s`` is the
median of its scaled times over the rounds of the run.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of ``spans.LAYER_METRICS``.  The last line of stdout is
always one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import speed
import workloads
from spans import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
PASSES_PER_ROUND = 3
WARMUP_PASSES = 1
TAIL_BEYOND = 10
ORDEX_MODULES = ("graphs", "catalog", "formats", "containment", "solver",
                 "constructions", "transforms", "bounds", "cache", "config", "cli")


def load_library():
    """Import ordex and the test oracles afresh from this checkout."""
    for name in list(sys.modules):
        if name == "ordex" or name.startswith("ordex.") or name == "oracles":
            del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"ordex.{m}")
                             for m in ORDEX_MODULES})
    lib.oracles = importlib.import_module("oracles")
    return lib


def clear_memo_caches():
    """Empty every functools cache in the loaded ordex modules."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("ordex.") and mod is not None:
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(workload, tracer=None):
    """Run every job once, probing the CPU speed between jobs.

    Returns (per-job seconds, the len(jobs) + 1 probe times around
    them, answers).
    """
    workload.reset()
    clear_memo_caches()
    gc.collect()
    if tracer:
        tracer.install()
    times, probes, answers = [], [speed.probe()], []
    try:
        for job in workload.jobs:
            t0 = time.perf_counter()
            try:
                answers.append((True, job.run()))
            except Exception as exc:  # a job that raises counts as failed
                answers.append((False, exc))
            times.append(time.perf_counter() - t0)
            probes.append(speed.probe())
    finally:
        if tracer:
            tracer.uninstall()
    return times, probes, answers


def failures(workload, answers, log):
    """Count answers that raised or that their reference check rejects."""
    failed = 0
    for job, (ran, answer) in zip(workload.jobs, answers):
        try:
            ok = ran and job.check(answer) is True
        except Exception as exc:
            answer, ok = exc, False
        if not ok:
            failed += 1
            print(f"FAILED {job.name}: {answer!r}"[:400], file=log)
    return failed


def tail(values):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND values above it, read by nearest rank."""
    n = len(values)
    ordered = sorted(values)
    q = max(0, 100 * (n - TAIL_BEYOND) // n)
    rank = max(1, -(-q * n // 100))
    return q, ordered[rank - 1]


def context(workload, seed, seconds, trace):
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "ordex_revision": git_revision(),
            "ordex_src_lines": sum(len(p.read_text().splitlines())
                                   for p in sorted((ROOT / "src" / "ordex").rglob("*.py")))}


def git_revision():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(name, seed, seconds, trace, log):
    setup = workloads.WORKLOADS[name]
    work_root = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    try:
        setup_times, plain, traced, tracers = [], [], [], []
        raw_times, job_times, all_probes = [], [], []
        failed = attempted = 0
        start = time.perf_counter()
        while True:
            shutil.rmtree(work_root, ignore_errors=True)
            before = speed.probe()
            t0 = time.perf_counter()
            lib = load_library()
            workload = setup(lib, seed, work_root)
            elapsed = time.perf_counter() - t0
            setup_times.append(speed.scale(elapsed, before, speed.probe()))
            for _ in range(PASSES_PER_ROUND):
                for t in ([None, Tracer()] if trace else [None]):
                    times, probes, answers = run_pass(workload, t)
                    scaled = [speed.scale(dt, a, b)
                              for dt, a, b in zip(times, probes, probes[1:])]
                    if t:
                        traced.append(sum(scaled))
                        tracers.append(t)
                    else:
                        plain.append(sum(scaled))
                        raw_times.append(times)
                        job_times.append(scaled)
                        all_probes += probes
                    attempted += len(answers)
                    failed += failures(workload, answers, log)
            rounds = len(setup_times)
            if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # missing, or another run is still using it
    per_job = [statistics.median(ts) for ts in zip(*job_times[WARMUP_PASSES:])]
    raw_wall = sum(statistics.median(ts) for ts in zip(*raw_times[WARMUP_PASSES:]))
    q, tail_value = tail(per_job)
    e2e = {
        "wall_s": (sum(per_job), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {name}: seed {seed}, {len(setup_times)} rounds, "
          f"{len(plain)} untraced passes ({WARMUP_PASSES} warm-up) of "
          f"{len(per_job)} jobs, {attempted} jobs attempted; median probe "
          f"{statistics.median(all_probes):.6g} s; unscaled job list {raw_wall:.6g} s")
    for metric, (value, unit) in e2e.items():
        note = ""
        if metric == "job_tail_s":
            note = f"  (p{q} of {len(per_job)} jobs, {TAIL_BEYOND}+ jobs beyond)"
        print(f"  {metric:12s} {value:.6g} {unit}{note}")
    print(f"  failed_frac  {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    if trace:
        overhead = statistics.median(traced) / statistics.median(plain[WARMUP_PASSES:]) - 1
        per_pass = [t.metrics(overhead) for t in tracers]
        metrics = {k: {"value": statistics.median(m[k]["value"] for m in per_pass),
                       "unit": v["unit"]} for k, v in per_pass[0].items()}
        for metric, m in metrics.items():
            _, _, moves, on = LAYER_METRICS[metric]
            print(f"  {metric:36s} {m['value']:<12.6g} {m['unit']:6s} "
                  f"should move {moves} on {on}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ordex" / "__init__.py").is_file():
        print(f"no ordex sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The CLI falls back to this cache directory; keep every write inside
    # the run's own work directory.
    os.environ.pop("ORDEX_CACHE_DIR", None)
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        print(json.dumps({"context": context(args.workload, args.seed,
                                             args.seconds, args.trace)}))
        result = measure(args.workload, args.seed, args.seconds, args.trace, sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
