"""Command line front end.

Exit status contract: 0 on success with the payload on stdout, 1 on a
domain refusal (size caps, flavor mismatches, malformed graph files,
paths that cannot be read or written) with a JSON diagnostic on stdout,
2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import catalog
from .bounds import (bipartite_to_ordered, classify_pattern, derive_lower_bound,
                     derive_upper_bound, lift_bipartite_to_ordered,
                     ordered_to_bipartite)
from .cache import RecordCache, default_cache_dir, record_bytes, record_payload
from .constructions import power_distance_graph, random_ck_free, verify_construction
from .containment import contains
from .formats import GraphTextError, parse_graph, serialize_graph
from .graphs import (BIPARTITE, CYCLIC, ORDERED, GraphValueError,
                     circular_chromatic_number, interval_chromatic_number)
from .solver import (SizeCapError, count_avoiders, count_avoiding_permutations,
                     growth_table, max_edges_avoiding)

MAX_BUILD_EDGES = 1 << 20  # edges a gen or construct may build (ckfree: pairs drawn)


class DomainError(Exception):
    """Wraps a refusal so dispatch can emit a structured diagnostic."""

    def __init__(self, kind: str, message: str, **extra):
        super().__init__(message)
        self.payload = {"error": message, "kind": kind, **extra}


def _read_graph(path: str):
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise DomainError("io", f"cannot read {path}: {exc.strerror}")
    try:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bytes before the bad one decode; count lines as the
            # parser does.
            lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
            raise GraphTextError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                                 len(lines), len(lines[-1])) from None
        return parse_graph(text)
    except GraphTextError as exc:
        raise DomainError("parse", str(exc), line=exc.line, column=exc.column)


def _parse_perm_word(word: str):
    if "," in word:
        return [int(x) for x in word.split(",")]
    return [int(ch) for ch in word]


def _cap(family, edges):
    if edges > MAX_BUILD_EDGES:
        raise DomainError("cap", f"{family} needs {edges} edges, over {MAX_BUILD_EDGES}")


def _emit(out, payload, mode="json"):
    if isinstance(payload, str):
        out.write(payload if payload.endswith("\n") else payload + "\n")
    elif mode == "text":
        out.write("\n".join(_text_lines(payload)) + "\n")
    else:
        out.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _text_lines(payload, prefix=""):
    """Flatten a payload into line-oriented `key: value` text."""
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, dict) or (isinstance(v, list)
                                       and any(isinstance(x, (dict, list))
                                               for x in v)):
                lines.extend(_text_lines(v, f"{prefix}{k}."))
            elif isinstance(v, list):
                lines.append(f"{prefix}{k}: {' '.join(str(x) for x in v)}")
            elif isinstance(v, str) and "\n" in v:
                lines.append(f"{prefix}{k}: {' | '.join(v.strip().splitlines())}")
            else:
                lines.append(f"{prefix}{k}: {v}")
        return lines
    if isinstance(payload, list):
        lines = []
        for i, v in enumerate(payload):
            lines.extend(_text_lines(v, f"{prefix}{i}."))
        return lines
    return [f"{prefix.rstrip('.')}: {payload}"]


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the payload to emit.
# ---------------------------------------------------------------------------

def _cmd_gen(args):
    family = args.family
    head, _, rest = family.partition(":")
    try:
        if head == "sailboat" and not rest:
            g = catalog.sailboat()
        elif head == "H":
            _cap(family, 3 * int(rest) + 5)
            g = catalog.keszegh_h(int(rest))
        elif head == "match":
            m, word, flavor = rest.split(":")
            _cap(family, int(m) * len(_parse_perm_word(word)))
            g = catalog.generalized_matching(int(m), _parse_perm_word(word), flavor)
        elif head == "turan":
            n, r = map(int, rest.split(":"))
            if 1 <= r <= n:  # n % r classes of n // r + 1 vertices, the rest of n // r
                _cap(family, (n * n - r * (n // r) ** 2 - n % r * (2 * (n // r) + 1)) // 2)
            g = catalog.ordered_turan(n, r)
        else:
            raise DomainError("usage", f"unknown generator {family!r}")
        return serialize_graph(g)
    except (ValueError, GraphValueError) as exc:
        raise DomainError("generator", f"bad generator {family!r}: {exc}")


def _read_pair(flag, path, pattern_path):
    """The graph named by flag and the --pattern graph; stdin holds one."""
    if path == pattern_path == "-":
        raise DomainError("usage", f"{flag} and --pattern both read stdin ('-'), "
                                   "which holds one graph")
    return _read_graph(path), _read_graph(pattern_path)


def _cmd_contains(args):
    host, pattern = _read_pair("--host", args.host, args.pattern)
    emb = contains(host, pattern)
    payload = {"contains": emb is not None}
    if emb is not None and args.witness:
        payload["witness"] = emb.as_dict()
    return payload


def _cmd_chromatic(args):
    g = _read_graph(args.graph)
    if g.flavor == CYCLIC:
        chi = circular_chromatic_number(g)
    elif g.flavor == ORDERED:
        chi = interval_chromatic_number(g)
    else:
        # Two-part graphs read as the concatenation of their parts.
        chi = interval_chromatic_number(bipartite_to_ordered(g))
    return {"flavor": g.flavor, "chi": chi}


def _cmd_construct(args):
    head, _, rest = args.family.partition(":")
    if head == "pow":
        try:
            base, flavor = rest.split(":")
            base_value = int(base)
        except ValueError as exc:
            raise DomainError("usage", f"bad construction family {args.family!r}: {exc}")
        if args.seed is not None:
            raise DomainError("usage", "construction family pow is deterministic "
                                       "and takes no --seed")
        # Powers d < n of a base above 1 have exponents below n's bit length.
        _cap(args.family, sum(args.n - base_value ** j for j in range(args.n.bit_length())
                              if base_value > 1 and base_value ** j < args.n))
        g = power_distance_graph(args.n, base_value, flavor)
        family = f"pow:{base}:{flavor}"
    elif head == "ckfree":
        try:
            k = int(rest)
        except ValueError as exc:
            raise DomainError("usage", f"bad construction family {args.family!r}: {exc}")
        _cap(args.family, args.n * (args.n - 1) // 2 if args.n >= k else 0)
        g = random_ck_free(args.n, k, args.seed if args.seed is not None else 0)
        family = f"ckfree:{rest}"
    else:
        raise DomainError("usage", f"unknown construction family {args.family!r}")
    payload = {"family": family, "n": args.n, "edge_count": g.n_edges}
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.verify:
        pattern = _read_graph(args.verify)
        report = verify_construction(g, pattern)
        payload["avoids"] = report.avoids
        if report.witness is not None:
            payload["witness"] = report.witness.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_graph(g))
        payload["out"] = args.out
    return payload


def _cmd_solve(args):
    pattern = _read_graph(args.pattern)
    if args.flavor != pattern.flavor:
        raise DomainError("flavor",
                          f"pattern file is {pattern.flavor}, not {args.flavor}")
    m = args.m
    if pattern.flavor == BIPARTITE and m is None:
        m = args.n
    cache_dir = args.cache or default_cache_dir()
    if cache_dir:
        raw = record_bytes(RecordCache(cache_dir).fetch(
            pattern.flavor, pattern, args.n, m))
        if args.format == "text":
            return json.loads(raw)
        # A hit's file holds exactly these bytes, so repeat queries stay
        # byte-identical.
        return raw.decode().rstrip("\n")
    rec = max_edges_avoiding(pattern.flavor, args.n, pattern, m=m)
    payload = record_payload(rec)
    if not args.witness:
        payload.pop("witness")
    return payload


def _cmd_count(args):
    pattern = _read_graph(args.pattern)
    count = count_avoiders(args.n, pattern)
    return {"n": args.n, "count": count}


def _cmd_count_perms(args):
    try:
        pi = _parse_perm_word(args.perm)
    except ValueError:
        raise DomainError("usage", f"bad permutation word {args.perm!r}")
    count = count_avoiding_permutations(args.n, pi)
    return {"n": args.n, "pattern": args.perm, "count": count}


def _cmd_table(args):
    pattern = _read_graph(args.pattern)
    cache_dir = args.cache or default_cache_dir()
    cache = RecordCache(cache_dir) if cache_dir else None
    rows = growth_table(pattern, pattern.flavor, range(args.n_min, args.n_max + 1),
                        cache=cache)
    if args.format == "csv":
        lines = ["n,value,per_n,per_n_log_n"]
        for r in rows:
            last = "" if r.per_n_log_n is None else f"{r.per_n_log_n:.6f}"
            lines.append(f"{r.n},{r.value},{r.per_n:.6f},{last}")
        return "\n".join(lines)
    return [{"n": r.n, "value": r.value, "per_n": r.per_n,
             "per_n_log_n": r.per_n_log_n} for r in rows]


def _cmd_bound(args):
    pattern = _read_graph(args.pattern)
    payload = {"pattern": serialize_graph(pattern).strip()}
    directions = ("upper", "lower") if args.direction == "both" else (args.direction,)
    for direction in directions:
        if direction == "upper":
            if pattern.flavor == ORDERED:
                cls = classify_pattern(pattern)
                payload["classification"] = cls.as_dict()
                if cls.kind == "quadratic":
                    continue
                bip = ordered_to_bipartite(pattern)
                res = derive_upper_bound(bip, depth=args.depth)
                lifted = lift_bipartite_to_ordered(res.bound)
                entry = res.as_dict()
                entry["terms"] = [t.as_dict() for t in lifted.terms]
                entry["two_part_terms"] = [t.as_dict() for t in res.bound.terms]
            elif pattern.flavor == BIPARTITE:
                res = derive_upper_bound(pattern, depth=args.depth)
                entry = res.as_dict()
            else:
                raise DomainError("flavor",
                                  "upper bounds cover ordered and bipartite patterns")
        else:
            res = derive_lower_bound(pattern)
            entry = res.as_dict()
        if not args.trace:
            entry.pop("derivation")
        payload[direction] = entry
    return payload


def _cmd_verify(args):
    g, pattern = _read_pair("--graph", args.graph, args.pattern)
    report = verify_construction(g, pattern)
    return report.as_dict()


# ---------------------------------------------------------------------------

def _add_format_flag(p):
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="payload encoding: json for scripts, text for humans")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ordex",
        description="Extremal problems on vertex-ordered graphs: containment, "
                    "exact small instances, verified constructions, bound engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named pattern family member")
    p.add_argument("family",
                   help="sailboat | H:<k> | match:<m>:<perm>:<flavor> | turan:<n>:<r>")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("contains", help="test pattern containment in a host")
    p.add_argument("--host", required=True, help="host graph file ('-' for stdin)")
    p.add_argument("--pattern", required=True, help="pattern graph file")
    p.add_argument("--witness", action="store_true", help="include the embedding")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_contains)

    p = sub.add_parser("chromatic", help="interval or circular chromatic number")
    p.add_argument("graph", help="graph file")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_chromatic)

    p = sub.add_parser("construct", help="build and optionally verify a construction")
    p.add_argument("--family", required=True,
                   help="pow:<base>:<flavor> | ckfree:<k>")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verify", metavar="PATTERN_FILE",
                   help="check the construction avoids this pattern")
    p.add_argument("--out", help="write the construction to this file")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("solve", help="exact maximum edges avoiding a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--flavor", required=True,
                   choices=(ORDERED, BIPARTITE, CYCLIC))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="second part size (bipartite; defaults to n)")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--cache", help="cache directory (or set ORDEX_CACHE_DIR)")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("count", help="count avoiding 0-1 hosts")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("count-perms", help="count pattern-avoiding permutations")
    p.add_argument("--perm", required=True, help="pattern, e.g. 132")
    p.add_argument("--n", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_count_perms)

    p = sub.add_parser("table", help="growth table of exact values")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--cache")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("bound", help="derive asymptotic bounds with traces")
    p.add_argument("--pattern", required=True)
    p.add_argument("--direction", choices=("upper", "lower", "both"),
                   default="both")
    p.add_argument("--trace", action="store_true", help="include derivations")
    p.add_argument("--depth", type=int, default=12)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("verify", help="verify a graph avoids a pattern")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def dispatch(argv, out=None) -> int:
    """Run one command; returns the exit status (0 ok, 1 refusal, 2 usage)."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    mode = getattr(args, "format", "json")
    try:
        payload = args.handler(args)
    except DomainError as exc:
        _emit(out, exc.payload, mode)
        return 1
    except SizeCapError as exc:
        _emit(out, {"error": str(exc), "kind": "cap"}, mode)
        return 1
    except GraphValueError as exc:
        _emit(out, {"error": str(exc), "kind": "domain"}, mode)
        return 1
    except OSError as exc:
        _emit(out, {"error": f"cannot access {exc.filename}: {exc.strerror}",
                    "kind": "io"}, mode)
        return 1
    _emit(out, payload, mode)
    return 0


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
