#!/usr/bin/env python3
"""Calibration run for the cycle-free construction acceptance threshold.

Rebuilds the twenty seeded graphs the acceptance suite checks (n = 60,
k = 4, seeds 0..19), verifies each is free of 4-cycles, and prints the
edge counts, their median, and the theoretical floor.  The median
printed here is the value pinned in tests/test_acceptance.py; the
generator is deterministic, so reruns must reproduce it exactly.  Each
line also gives the sha256 of the graph's ``serialize_graph`` text, the
values pinned in tests/test_constructions.py.
"""

import hashlib
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from ordex.constructions import random_ck_free
from ordex.formats import serialize_graph
from oracles import find_k_cycle

N, K, SEEDS = 60, 4, range(20)


def main():
    counts = []
    for seed in SEEDS:
        g = random_ck_free(N, K, seed)
        assert not find_k_cycle(g, K), f"seed {seed} produced a {K}-cycle"
        counts.append(g.n_edges)
        digest = hashlib.sha256(serialize_graph(g).encode()).hexdigest()
        print(f"seed {seed:2d}: {g.n_edges:3d} edges  sha256 {digest}")
    med = statistics.median(counts)
    floor = 0.05 * N ** (K / (K - 1))
    print(f"\nmedian over {len(counts)} seeds: {med}")
    print(f"floor 0.05 * n^(k/(k-1)):       {floor:.3f}")
    print(f"pinned threshold for the suite: {med}")


if __name__ == "__main__":
    main()
