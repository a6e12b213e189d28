#!/usr/bin/env python3
"""One digest over everything the bound engine answers on a fixed corpus.

The corpus is every tree pattern with at most MAX_TREE_EDGES edges,
RANDOM_PATTERNS seeded random bipartite patterns, and the catalog's
H_1, H_2 (Keszegh's non-linear family, too large for the random
patterns to contain) and sailboat.  For each pattern and each depth in
DEPTHS it records ``derive_upper_bound(...).as_dict()``, whether
``replay_derivation`` accepts the trace, the serialized
``canonical_variant``, ``classify_pattern(...).as_dict()`` and the
``derive_lower_bound(...).as_dict()`` of the pattern and of its ordered
concatenation, one JSON line each, and prints the SHA-256 of those
lines.  Two checkouts whose digests match give byte-identical
bound-engine output on the corpus:

    PYTHONPATH=src python3 scripts/bound_digest.py [--seed 7] [--lines out.jsonl]
"""

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from ordex.bounds import (bipartite_to_ordered, classify_pattern,
                          derive_lower_bound, derive_upper_bound,
                          replay_derivation)
from ordex.catalog import keszegh_h, sailboat
from ordex.formats import serialize_graph
from ordex.graphs import bipartite_graph, canonical_variant
from oracles import enumerate_tree_patterns

MAX_TREE_EDGES = 6
RANDOM_PATTERNS = 300
DEPTHS = (0, 1, 3, 12)


def random_patterns(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n_u, n_v = rng.randint(1, 4), rng.randint(1, 4)
        p = rng.uniform(0.2, 0.6)
        edges = [(u, v) for u in range(1, n_u + 1) for v in range(1, n_v + 1)
                 if rng.random() < p]
        if edges:
            out.append(bipartite_graph(n_u, n_v, edges))
    return out


def records(patterns):
    for g in patterns:
        for depth in DEPTHS:
            res = derive_upper_bound(g, depth)
            yield {"pattern": serialize_graph(g), "depth": depth,
                   "upper": res.as_dict(),
                   "replay": replay_derivation(g, res.derivation),
                   "canonical": serialize_graph(canonical_variant(g)),
                   "class": classify_pattern(g).as_dict(),
                   "lower": derive_lower_bound(g).as_dict(),
                   "lower_ordered":
                       derive_lower_bound(bipartite_to_ordered(g)).as_dict()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--lines", help="also write the JSON lines to this file")
    args = ap.parse_args()
    patterns = (enumerate_tree_patterns(MAX_TREE_EDGES)
                + random_patterns(args.seed, RANDOM_PATTERNS)
                + [keszegh_h(1), keszegh_h(2), sailboat()])
    lines = [json.dumps(rec, sort_keys=True) + "\n" for rec in records(patterns)]
    text = "".join(lines)
    if args.lines:
        Path(args.lines).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{len(patterns)} patterns, {len(lines)} records, sha256 {digest}")


if __name__ == "__main__":
    main()
