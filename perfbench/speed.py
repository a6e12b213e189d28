"""The CPU speed each job ran at, from a fixed reference kernel.

On a machine whose cores are shared, the same code can run at about
half speed for seconds to minutes at a time, and a whole run can sit in
a slow or in a fast stretch, so raw times of one run disagree with the
next by up to a factor of two.  The benchmark therefore times this
kernel between every two jobs and scales each job's time by
``REFERENCE_S`` over the mean of the kernel times either side of it: a
job's scaled time is what it would take on a CPU where the kernel takes
``REFERENCE_S``.  The kernel is a layered dynamic programme over
tuple-keyed dicts on a small ordered graph, the same kind of work as
ordex's containment search, so the two slow down together (ordex jobs
slow down by the kernel's factor to the power 0.75-0.85).  It never
calls ordex, so a change to ordex moves the scaled times in full.
"""

from __future__ import annotations

import random
from time import perf_counter

# The kernel's median time between jobs, caches cold, on a 2-vCPU Intel
# Xeon VM with Python 3.11.7 in its fast stretches; scaled times are
# roughly seconds on that machine when nothing else shares its cores.
REFERENCE_S = 0.0008


def _reference_graph(n=150, p=0.06, seed=7):
    """Forward adjacency lists of a fixed random ordered graph."""
    rng = random.Random(seed)
    return tuple(tuple(b for b in range(a + 1, n) if rng.random() < p) for a in range(n))


GRAPH = _reference_graph()


def kernel(depth=3):
    """Count the increasing paths with depth edges, layer by layer."""
    layer = {(v,): 1 for v in range(len(GRAPH))}
    for _ in range(depth):
        nxt = {}
        for key, count in layer.items():
            for w in GRAPH[key[-1]]:
                k = key[1:] + (w,)
                nxt[k] = nxt.get(k, 0) + count
        layer = nxt
    return sum(layer.values())


def scale(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference speed, from the probe times either side."""
    return seconds * 2 * REFERENCE_S / (before + after)


def probe() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
