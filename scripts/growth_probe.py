#!/usr/bin/env python3
"""Empirical growth probe for a pattern's extremal function.

Solves the exact two-part values over a size range and prints the
ratios value/n and value/(n log2 n).  Flat value/n suggests a linear
pattern; flat value/(n log n) suggests a quasi-linear one.  For
bipartite patterns the engine's upper bound is derived as well and the
smallest constant making it cover every exact value is logged; that
fitted constant is a sanity signal, not an asserted fact.

Usage: growth_probe.py PATTERN_FILE [N_MAX] [--cache DIR]
"""

import argparse
import math

from ordex.bounds import derive_upper_bound
from ordex.cache import RecordCache
from ordex.config import SolverCaps
from ordex.formats import parse_graph
from ordex.graphs import BIPARTITE
from ordex.solver import growth_table


def term_value(term, n):
    log = math.log2(n) if n > 1 else 1.0
    value = float(n) ** float(term.n_exp) * log ** term.log_exp
    if term.subexp:
        loglog = math.log2(max(2.0, log))
        value *= 2.0 ** math.sqrt(log * loglog)
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pattern", metavar="PATTERN_FILE",
                    help="pattern in ordex graph text")
    ap.add_argument("n_max", metavar="N_MAX", type=int, nargs="?", default=6,
                    help="largest size solved (default 6)")
    ap.add_argument("--cache", metavar="DIR",
                    help="record cache to consult and fill")
    args = ap.parse_args(argv)
    cache = RecordCache(args.cache) if args.cache else None
    with open(args.pattern, encoding="utf-8") as fh:
        pattern = parse_graph(fh.read())
    caps = SolverCaps(bipartite=max(8, args.n_max), ordered=max(12, args.n_max),
                      cyclic=max(12, args.n_max))
    rows = growth_table(pattern, pattern.flavor, range(1, args.n_max + 1),
                        caps=caps, cache=cache)
    print(f"{'n':>3} {'value':>6} {'value/n':>9} {'value/(n log n)':>16}")
    for r in rows:
        log_part = "" if r.per_n_log_n is None else f"{r.per_n_log_n:16.4f}"
        print(f"{r.n:>3} {r.value:>6} {r.per_n:>9.4f} {log_part}")
    if pattern.flavor == BIPARTITE:
        res = derive_upper_bound(pattern)
        if res.no_derivation:
            print("\nupper bound: no derivation (trivial n^2)")
        else:
            dom = res.bound.dominant
            fitted = max((r.value / term_value(dom, r.n)
                          for r in rows if r.value), default=0.0)
            print(f"\nupper bound: {res.bound} (terminal: "
                  f"{res.derivation.terminal})")
            print(f"fitted constant C with value(n) <= C * {dom} on this "
                  f"range: {fitted:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
