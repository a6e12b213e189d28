#!/usr/bin/env python3
"""One digest over every ``contains`` result on a fixed corpus.

The corpus has two halves.  Planted hosts: seeded random hosts of all
three flavors at two densities, each with one copy of its pattern
planted at seeded positions (the ordered hook and the three ordered
4-cycles; Keszegh's H:1 and H:2 and the sailboat; the cyclic crossing
and 4-cycle), so the answer is an embedding.  Avoiding hosts: the
doubling hosts against the hook, the tripling hosts against H:1 and H:2
and seeded C4-free hosts against the ordered 4-cycles, so the search
exhausts every layer.  For each query it records one JSON line
[label, ``contains(host, pattern)`` as ``as_dict()`` or null] and prints
the SHA-256 of those lines.  Two checkouts whose digests match return
byte-identical witnesses on the corpus.  Before digesting it checks
what it hashes: every embedding must pass ``embedding_is_valid``,
every avoiding host must give null and every planted host an
embedding; otherwise it names the failing queries on stderr and exits 1
without a digest:

    PYTHONPATH=src python3 scripts/contains_digest.py [--seed 7] [--lines out.jsonl]
"""

import argparse
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

from ordex.catalog import keszegh_h, sailboat
from ordex.constructions import power_distance_graph, random_ck_free
from ordex.containment import contains, embedding_is_valid
from ordex.graphs import bipartite_graph, cyclic_graph, ordered_graph

HOOK = [(1, 3), (1, 4), (2, 4)]
CROSSING = [(1, 3), (2, 4)]
C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]
ORDERED_C4 = [ordered_graph(4, C4_EDGES), ordered_graph(4, [(1, 2), (2, 4), (3, 4), (1, 3)]),
              ordered_graph(4, [(1, 3), (2, 3), (2, 4), (1, 4)])]
# (label, pattern, host size): the planted kinds.
PLANTED = [("hook", ordered_graph(4, HOOK), 60),
           *((f"C4#{i}", c, 40) for i, c in enumerate(ORDERED_C4)),
           ("H:1", keszegh_h(1), 24), ("H:2", keszegh_h(2), 24),
           ("sailboat", sailboat(), 30),
           ("crossing", cyclic_graph(4, CROSSING), 40),
           ("cyclic-C4", cyclic_graph(4, C4_EDGES), 40)]
DENSITIES = (0.05, 0.1)
HOSTS_PER_KIND = 4
# (label, host, pattern): the avoiding kinds.
POWER = [*((f"pow:2 n={n} vs hook", power_distance_graph(n, 2, "ordered"),
            ordered_graph(4, HOOK)) for n in (32, 64, 96)),
         *((f"pow:3 n={n} vs H:{k}", power_distance_graph(n, 3, "bipartite"),
            keszegh_h(k)) for n in (30, 40) for k in (1, 2))]
CKFREE_N = 60
CKFREE_HOSTS = 3


def planted_host(rng, pattern, n, p):
    """Seeded random host of density p with one copy of pattern planted."""
    if pattern.flavor == "bipartite":
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        edges = set(rng.sample(cells, round(p * len(cells))))
        us = sorted(rng.sample(range(1, n + 1), pattern.n_u))
        vs = sorted(rng.sample(range(1, n + 1), pattern.n_v))
        edges |= {(us[a - 1], vs[b - 1]) for a, b in pattern.edges}
        return bipartite_graph(n, n, sorted(edges))
    cells = list(itertools.combinations(range(1, n + 1), 2))
    edges = set(rng.sample(cells, round(p * len(cells))))
    xs = sorted(rng.sample(range(1, n + 1), pattern.n_u))
    if pattern.flavor == "cyclic":
        r = rng.randrange(len(xs))
        xs = xs[r:] + xs[:r]
    edges |= {tuple(sorted((xs[a - 1], xs[b - 1]))) for a, b in pattern.edges}
    make = ordered_graph if pattern.flavor == "ordered" else cyclic_graph
    return make(n, sorted(edges))


def queries(seed):
    """(label, host, pattern, whether the host avoids the pattern)."""
    rng = random.Random(seed)
    for label, pattern, n in PLANTED:
        for p in DENSITIES:
            for i in range(HOSTS_PER_KIND):
                yield (f"{label} n={n} p={p} #{i}", planted_host(rng, pattern, n, p),
                       pattern, False)
    for label, host, pattern in POWER:
        yield label, host, pattern, True
    for _ in range(CKFREE_HOSTS):
        host_seed = rng.randrange(2 ** 31)
        host = random_ck_free(CKFREE_N, 4, host_seed)
        for i, c in enumerate(ORDERED_C4):
            yield f"ckfree:4 n={CKFREE_N} seed={host_seed} vs C4#{i}", host, c, True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--lines", help="also write the JSON lines to this file")
    args = ap.parse_args()
    lines = []
    failures = []
    for label, host, pattern, avoids in queries(args.seed):
        emb = contains(host, pattern)
        if (emb is None) != avoids:
            failures.append(f"{label}: expected {'null' if avoids else 'an embedding'}")
        elif emb is not None and not embedding_is_valid(host, pattern, emb):
            failures.append(f"{label}: invalid embedding {emb.as_dict()}")
        lines.append(json.dumps([label, emb.as_dict() if emb else None]) + "\n")
    if failures:
        sys.exit("\n".join(failures))
    text = "".join(lines)
    if args.lines:
        Path(args.lines).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{len(lines)} queries, sha256 {digest}")


if __name__ == "__main__":
    main()
