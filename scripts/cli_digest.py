#!/usr/bin/env python3
"""One digest over what the command line prints on a fixed corpus.

Every argv of CORPUS runs in order through ``ordex.cli.dispatch`` in one
process, inside a fresh temporary directory holding the FIXTURES files,
with ORDEX_CACHE_DIR unset.  The corpus covers every subcommand, every
``gen`` and ``construct`` family, each refusal kind (argparse usage,
``usage``, ``generator``, ``parse``, ``io`` on read, ``cap``, ``domain``,
``flavor``), ``--format text``, ``table --format csv`` and a
``solve --cache`` miss, exact hit, variant hit and transposed hit on a
non-square host.  Each run gives one
JSON line [argv, exit code, stdout] with the temporary directory written
as ``{tmp}``, and the script prints the SHA-256 of those lines.  Two
checkouts whose digests match print byte-identical output on the corpus:

    PYTHONPATH=src python3 scripts/cli_digest.py [--lines out.jsonl]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from ordex.cli import dispatch

FIXTURES = {
    "sb.g": "bipartite 3 4\n1 1\n1 3\n2 1\n2 4\n3 2\n3 4\n",
    "m.g": "bipartite 2 2\n1 1\n2 2\n",
    "hookb.g": "bipartite 2 2\n1 1\n1 2\n2 2\n",
    "hookb_rows.g": "bipartite 2 2\n1 2\n2 1\n2 2\n",
    "hookb_t.g": "bipartite 2 2\n1 1\n2 1\n2 2\n",
    "hook.g": "ordered 4\n1 3\n1 4\n2 4\n",
    "tri.g": "ordered 3\n1 2\n2 3\n1 3\n",
    "cyc.g": "cyclic 4\n1 3\n2 4\n",
    "empty.g": "ordered 3\n",
    "bad.g": "ordered 3\n1 4\n",
}

SOLVE_CACHED = ["--flavor", "bipartite", "--n", "3", "--cache", "{tmp}/cache"]

CORPUS = [
    # argparse usage errors
    [],
    ["definitely-not-a-command"],
    ["solve", "--pattern", "{tmp}/m.g"],
    ["bound", "--pattern", "{tmp}/sb.g", "--direction", "sideways"],
    ["count", "--pattern", "{tmp}/m.g", "--n", "2", "--format", "xml"],
    ["table", "--pattern", "{tmp}/m.g", "--n-min", "1", "--n-max", "2",
     "--format", "text"],
    # gen
    ["gen", "sailboat"],
    ["gen", "H:1"],
    ["gen", "H:2"],
    ["gen", "match:2:21:ordered"],
    ["gen", "match:1:132:bipartite"],
    ["gen", "match:1:1,2:cyclic"],
    ["gen", "turan:6:2"],
    ["gen", "nonsense:1"],
    ["gen", "H:x"],
    ["gen", "turan:3"],
    ["gen", "match:2:21:weird"],
    # construct
    ["construct", "--family", "pow:2:ordered", "--n", "16",
     "--verify", "{tmp}/hook.g", "--out", "{tmp}/host.g"],
    ["construct", "--family", "pow:3:bipartite", "--n", "9",
     "--verify", "{tmp}/m.g"],
    ["construct", "--family", "ckfree:4", "--n", "20", "--seed", "3"],
    ["construct", "--family", "ckfree:5", "--n", "12", "--format", "text"],
    ["construct", "--family", "pow:2", "--n", "8"],
    ["construct", "--family", "ckfree:x", "--n", "8"],
    ["construct", "--family", "bogus:1", "--n", "8"],
    ["construct", "--family", "pow:2:ordered", "--n", "1"],
    ["construct", "--family", "ckfree:2", "--n", "8"],
    # contains
    ["contains", "--host", "{tmp}/sb.g", "--pattern", "{tmp}/sb.g", "--witness"],
    ["contains", "--host", "{tmp}/host.g", "--pattern", "{tmp}/tri.g"],
    ["contains", "--host", "{tmp}/sb.g", "--pattern", "{tmp}/m.g",
     "--witness", "--format", "text"],
    ["contains", "--host", "{tmp}/hook.g", "--pattern", "{tmp}/m.g"],
    ["contains", "--host", "{tmp}/hook.g", "--pattern", "{tmp}/empty.g"],
    ["contains", "--host", "{tmp}/bad.g", "--pattern", "{tmp}/m.g"],
    ["contains", "--host", "{tmp}/absent.g", "--pattern", "{tmp}/m.g"],
    ["contains", "--host", "{tmp}/bad.g", "--pattern", "{tmp}/m.g",
     "--format", "text"],
    # chromatic
    ["chromatic", "{tmp}/tri.g"],
    ["chromatic", "{tmp}/cyc.g"],
    ["chromatic", "{tmp}/sb.g", "--format", "text"],
    ["chromatic", "{tmp}/empty.g"],
    # solve
    ["solve", "--pattern", "{tmp}/m.g", "--flavor", "bipartite", "--n", "3",
     "--witness"],
    ["solve", "--pattern", "{tmp}/m.g", "--flavor", "bipartite", "--n", "2",
     "--m", "4"],
    ["solve", "--pattern", "{tmp}/hook.g", "--flavor", "ordered", "--n", "5",
     "--witness"],
    ["solve", "--pattern", "{tmp}/cyc.g", "--flavor", "cyclic", "--n", "5",
     "--witness", "--format", "text"],
    ["solve", "--pattern", "{tmp}/m.g", "--flavor", "ordered", "--n", "3"],
    ["solve", "--pattern", "{tmp}/m.g", "--flavor", "bipartite", "--n", "9"],
    ["solve", "--pattern", "{tmp}/hook.g", "--flavor", "ordered", "--n", "13"],
    ["solve", "--pattern", "{tmp}/m.g", "--flavor", "bipartite", "--n", "-1"],
    ["solve", "--pattern", "{tmp}/empty.g", "--flavor", "ordered", "--n", "3"],
    ["solve", "--pattern", "{tmp}/hookb.g", *SOLVE_CACHED],
    ["solve", "--pattern", "{tmp}/hookb.g", *SOLVE_CACHED],
    ["solve", "--pattern", "{tmp}/hookb_rows.g", *SOLVE_CACHED],
    ["solve", "--pattern", "{tmp}/hookb_rows.g", *SOLVE_CACHED,
     "--format", "text"],
    ["solve", "--pattern", "{tmp}/hookb.g", "--flavor", "bipartite", "--n", "2",
     "--m", "3", "--cache", "{tmp}/cache"],
    ["solve", "--pattern", "{tmp}/hookb_t.g", "--flavor", "bipartite", "--n", "3",
     "--m", "2", "--cache", "{tmp}/cache"],
    # count and count-perms
    ["count", "--pattern", "{tmp}/m.g", "--n", "2"],
    ["count", "--pattern", "{tmp}/hookb.g", "--n", "3", "--format", "text"],
    ["count", "--pattern", "{tmp}/hook.g", "--n", "3"],
    ["count", "--pattern", "{tmp}/m.g", "--n", "-2"],
    ["count", "--pattern", "{tmp}/m.g", "--n", "5"],
    ["count-perms", "--perm", "132", "--n", "6"],
    ["count-perms", "--perm", "1,2,3", "--n", "5", "--format", "text"],
    ["count-perms", "--perm", "1x2", "--n", "4"],
    ["count-perms", "--perm", "132", "--n", "11"],
    ["count-perms", "--perm", "", "--n", "3"],
    ["count-perms", "--perm", "12", "--n", "-1"],
    # table
    ["table", "--pattern", "{tmp}/m.g", "--n-min", "1", "--n-max", "3"],
    ["table", "--pattern", "{tmp}/hook.g", "--n-min", "1", "--n-max", "5",
     "--format", "csv", "--cache", "{tmp}/tcache"],
    ["table", "--pattern", "{tmp}/m.g", "--n-min", "0", "--n-max", "2"],
    ["table", "--pattern", "{tmp}/absent.g", "--n-min", "1", "--n-max", "2",
     "--format", "csv"],
    # bound
    ["bound", "--pattern", "{tmp}/sb.g", "--trace"],
    ["bound", "--pattern", "{tmp}/hook.g", "--direction", "upper", "--trace"],
    ["bound", "--pattern", "{tmp}/tri.g", "--direction", "upper"],
    ["bound", "--pattern", "{tmp}/m.g", "--direction", "lower", "--format", "text"],
    ["bound", "--pattern", "{tmp}/hookb.g", "--depth", "0"],
    ["bound", "--pattern", "{tmp}/cyc.g", "--direction", "upper"],
    ["bound", "--pattern", "{tmp}/sb.g", "--depth", "-3"],
    # verify
    ["verify", "--graph", "{tmp}/host.g", "--pattern", "{tmp}/hook.g"],
    ["verify", "--graph", "{tmp}/sb.g", "--pattern", "{tmp}/sb.g"],
    ["verify", "--graph", "{tmp}/host.g", "--pattern", "{tmp}/m.g"],
]


def run_corpus():
    """The JSON line of every corpus run, in order."""
    os.environ.pop("ORDEX_CACHE_DIR", None)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FIXTURES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for template in CORPUS:
            out = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                code = dispatch([a.format(tmp=tmp) for a in template], out)
            stdout = out.getvalue().replace(tmp, "{tmp}")
            lines.append(json.dumps([template, code, stdout]) + "\n")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lines", help="also write the JSON lines to this file")
    args = ap.parse_args()
    lines = run_corpus()
    text = "".join(lines)
    if args.lines:
        Path(args.lines).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{len(lines)} commands, sha256 {digest}")


if __name__ == "__main__":
    main()
