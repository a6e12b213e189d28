#!/usr/bin/env python3
"""Census of small tree patterns through the upper-bound engine.

Enumerates every bipartite pattern with a tree underlying graph and at
most MAX_EDGES edges (default 5), up to the symmetry group, runs the
bound engine on each, and tabulates the outcomes: how many land at each
polylog exponent, and which (if any) admit no derivation at all.  The
count and the underivable list are the regression facts the acceptance
suite pins, at five edges and at six.

Usage: python scripts/tree_census.py [MAX_EDGES]
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from ordex.bounds import derive_upper_bound, replay_derivation
from oracles import enumerate_tree_patterns

DEFAULT_MAX_EDGES = 5


def matrix_rows(g):
    cells = set(g.edges)
    return "/".join("".join("1" if (u, v) in cells else "0"
                            for v in range(1, g.n_v + 1))
                    for u in range(1, g.n_u + 1))


def main():
    max_edges = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_MAX_EDGES
    trees = enumerate_tree_patterns(max_edges)
    print(f"{len(trees)} tree patterns with <= {max_edges} edges "
          f"(up to row/column reversal and transpose)\n")
    outcomes = Counter()
    underivable = []
    for g in trees:
        res = derive_upper_bound(g)
        if res.no_derivation:
            outcomes["no derivation"] += 1
            underivable.append(g)
            continue
        dom = res.bound.dominant
        assert replay_derivation(g, res.derivation), "trace failed to replay"
        outcomes[f"n log^{dom.log_exp}"] += 1
    for label in sorted(outcomes):
        print(f"  {label:15s} {outcomes[label]:3d}")
    if underivable:
        print("\nno derivation within the depth cap:")
        for g in underivable:
            print(f"  {g.n_u}x{g.n_v}  {matrix_rows(g)}  edges={g.edges}")


if __name__ == "__main__":
    main()
