#!/usr/bin/env python3
"""One digest over every exact value and witness the solver returns on a fixed corpus.

The corpus is the named patterns of all three flavors (the ordered hook,
crossing and three ordered 4-cycles; the bipartite hook 11/01, the
permutation matchings 12, 21, 123, 132 and the sailboat; the cyclic
crossing and 4-cycle) at every size up to NAMED_SIZES, plus
RANDOM_PATTERNS seeded random small patterns at small sizes.  For each
instance it records ``max_edges_avoiding`` as one JSON line
[flavor, n, m, pattern, value, witness edges] and prints the SHA-256 of
those lines.  Two checkouts whose digests match return byte-identical
values and lexicographically least witnesses on the corpus:

    PYTHONPATH=src python3 scripts/solver_digest.py [--seed 7] [--lines out.jsonl]
"""

import argparse
import hashlib
import json
import random
from pathlib import Path

from ordex.catalog import permutation_matching, sailboat
from ordex.formats import serialize_graph
from ordex.graphs import bipartite_graph, cyclic_graph, ordered_graph
from ordex.solver import max_edges_avoiding

RANDOM_PATTERNS = 120
CROSSING = [(1, 3), (2, 4)]
ORDERED_C4 = ([(1, 2), (2, 3), (3, 4), (1, 4)],
              [(1, 2), (2, 4), (3, 4), (1, 3)],
              [(1, 3), (2, 3), (2, 4), (1, 4)])
NAMED = [ordered_graph(4, [(1, 3), (1, 4), (2, 4)]), ordered_graph(4, CROSSING),
         *(ordered_graph(4, c) for c in ORDERED_C4),
         bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)]),
         *(permutation_matching(pi) for pi in ((1, 2), (2, 1), (1, 2, 3), (1, 3, 2))),
         sailboat(),
         cyclic_graph(4, CROSSING), cyclic_graph(4, ORDERED_C4[0])]
# Largest n (ordered, cyclic) or n = m (bipartite; n x (n+1) and
# (n+1) x n up to it as well) solved for each named pattern.
NAMED_SIZES = {"ordered": 8, "bipartite": 4, "cyclic": 8}


def shapes(flavor, top):
    for n in range(1, top + 1):
        if flavor != "bipartite":
            yield n, None
            continue
        yield n, n
        if n < top:
            yield n, n + 1
            yield n + 1, n


def random_instances(seed, count):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        flavor = ("ordered", "bipartite", "cyclic")[i % 3]
        if flavor == "bipartite":
            pn, pm = rng.randint(1, 3), rng.randint(1, 3)
            cells = [(u, v) for u in range(1, pn + 1) for v in range(1, pm + 1)]
            rng.shuffle(cells)
            pattern = bipartite_graph(pn, pm, cells[:rng.randint(1, min(4, len(cells)))])
            n, m = rng.randint(1, 4), rng.randint(1, 4)
        else:
            pn = rng.randint(2, 5)
            pairs = [(a, b) for a in range(1, pn + 1) for b in range(a + 1, pn + 1)]
            rng.shuffle(pairs)
            edges = pairs[:rng.randint(1, min(4, len(pairs)))]
            pattern = (ordered_graph if flavor == "ordered" else cyclic_graph)(pn, edges)
            n, m = rng.randint(1, 6), None
        out.append((flavor, n, m, pattern))
    return out


def instances(seed):
    for pattern in NAMED:
        for n, m in shapes(pattern.flavor, NAMED_SIZES[pattern.flavor]):
            yield pattern.flavor, n, m, pattern
    yield from random_instances(seed, RANDOM_PATTERNS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--lines", help="also write the JSON lines to this file")
    args = ap.parse_args()
    lines = []
    for flavor, n, m, pattern in instances(args.seed):
        rec = max_edges_avoiding(flavor, n, pattern, m=m)
        lines.append(json.dumps([flavor, n, m, serialize_graph(pattern), rec.value,
                                 rec.witness.edges]) + "\n")
    text = "".join(lines)
    if args.lines:
        Path(args.lines).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{len(lines)} instances, sha256 {digest}")


if __name__ == "__main__":
    main()
