"""Command line surface: payloads, exit codes, cache behavior."""

import io
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordex.cache import RecordCache
from ordex.cli import build_parser, dispatch
from ordex.formats import parse_graph, serialize_graph
from ordex.catalog import sailboat, keszegh_h

from strategies import graphs_of


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


def test_gen_sailboat():
    code, text = run(["gen", "sailboat"])
    assert code == 0
    assert parse_graph(text) == sailboat()


def test_gen_family_and_matching_and_turan(tmp_path):
    code, text = run(["gen", "H:2"])
    assert code == 0 and parse_graph(text) == keszegh_h(2)
    code, text = run(["gen", "match:2:21:ordered"])
    assert code == 0
    g = parse_graph(text)
    assert g.flavor == "ordered" and g.n_edges == 4
    code, text = run(["gen", "turan:6:2"])
    assert code == 0 and parse_graph(text).n_edges == 9
    code, _ = run(["gen", "nonsense:1"])
    assert code == 1


def test_contains_self_witness(tmp_path):
    f = tmp_path / "sb.g"
    f.write_text(serialize_graph(sailboat()))
    code, payload = run_json(["contains", "--host", str(f),
                              "--pattern", str(f), "--witness"])
    assert code == 0
    assert payload["contains"] is True
    assert payload["witness"]["u_map"] == [1, 2, 3]


def test_contains_flavor_mismatch(tmp_path):
    a = tmp_path / "a.g"
    a.write_text("ordered 3\n1 2\n")
    b = tmp_path / "b.g"
    b.write_text("bipartite 1 1\n1 1\n")
    code, payload = run_json(["contains", "--host", str(a), "--pattern", str(b)])
    assert code == 1 and payload["kind"] == "domain"


def test_parse_error_diagnostic(tmp_path):
    f = tmp_path / "bad.g"
    f.write_text("ordered 3\n1 4\n")
    code, payload = run_json(["contains", "--host", str(f), "--pattern", str(f)])
    assert code == 1
    assert payload["kind"] == "parse"
    assert payload["line"] == 2 and payload["column"] == 3
    assert "out of range" in payload["error"]


def test_chromatic(tmp_path):
    f = tmp_path / "t.g"
    f.write_text("ordered 9\n" + "".join(
        f"{a} {b}\n" for a in range(1, 10) for b in range(a + 1, 10)
        if (a - 1) // 3 != (b - 1) // 3))
    code, payload = run_json(["chromatic", str(f)])
    assert code == 0 and payload["chi"] == 3


def test_solve_and_cap(tmp_path):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    code, payload = run_json(["solve", "--pattern", str(f),
                              "--flavor", "bipartite", "--n", "2"])
    assert code == 0 and payload["value"] == 3
    code, payload = run_json(["solve", "--pattern", str(f),
                              "--flavor", "bipartite", "--n", "9"])
    assert code == 1 and payload["kind"] == "cap"
    assert "size cap exceeded" in payload["error"]
    code, payload = run_json(["solve", "--pattern", str(f),
                              "--flavor", "ordered", "--n", "3"])
    assert code == 1


def test_solve_cache_hit_identical_bytes(tmp_path, monkeypatch):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    cache_dir = tmp_path / "cache"
    args = ["solve", "--pattern", str(f), "--flavor", "bipartite",
            "--n", "3", "--cache", str(cache_dir)]
    events = []
    load, store = RecordCache.load_bytes, RecordCache.store
    monkeypatch.setattr(RecordCache, "load_bytes", lambda self, *a:
                        events.append("load") or load(self, *a))
    monkeypatch.setattr(RecordCache, "store", lambda self, rec:
                        events.append("store") or store(self, rec))
    code1, text1 = run(args)
    # The miss prints the bytes it stored without reading the file back.
    assert events[-1] == "store" and events.count("store") == 1
    [record] = cache_dir.iterdir()
    assert text1.encode() == record.read_bytes()
    events.clear()
    code2, text2 = run(args)
    assert events == ["load"]
    assert code1 == code2 == 0
    assert text1 == text2


def test_solve_reads_a_forged_record_once(tmp_path, monkeypatch):
    f = tmp_path / "p.g"
    f.write_text("ordered 3\n1 2\n2 3\n")
    cache_dir = tmp_path / "cache"
    args = ["solve", "--pattern", str(f), "--flavor", "ordered", "--n", "4",
            "--cache", str(cache_dir)]
    code, good = run(args)
    assert code == 0
    [record] = cache_dir.iterdir()
    forged = json.loads(record.read_bytes())
    forged["value"] = 99
    record.write_text(json.dumps(forged, indent=1, sort_keys=True) + "\n")
    keys = []
    load = RecordCache.load_bytes
    monkeypatch.setattr(RecordCache, "load_bytes", lambda self, *a:
                        keys.append(a) or load(self, *a))
    code, text = run(args)
    assert (code, text) == (0, good)
    assert keys.count(("ordered", parse_graph(f.read_text()), 4, 0)) == 1
    assert record.read_text() == good


def test_count_and_count_perms(tmp_path):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    code, payload = run_json(["count", "--pattern", str(f), "--n", "2"])
    assert code == 0 and payload["count"] == 12
    code, payload = run_json(["count-perms", "--perm", "132", "--n", "7"])
    assert code == 0 and payload["count"] == 429
    code, payload = run_json(["count-perms", "--perm", "132", "--n", "99"])
    assert code == 1 and payload["kind"] == "cap"


@pytest.mark.parametrize("argv", [
    ["count-perms", "--perm", "1x2", "--n", "4"],
    ["construct", "--family", "pow:2", "--n", "8"],
    ["construct", "--family", "ckfree:x", "--n", "8"],
])
def test_malformed_argument_is_usage_diagnostic(argv):
    code, payload = run_json(argv)
    assert code == 1 and payload["kind"] == "usage"


@pytest.mark.parametrize("argv", [
    ["count-perms", "--perm", "", "--n", "3"],
    ["count-perms", "--perm", "12", "--n", "-1"],
    ["count", "--pattern", "{pattern}", "--n", "-2"],
], ids=["empty-perm", "negative-perm-length", "negative-count-size"])
def test_invalid_count_input_is_domain_diagnostic(argv, tmp_path):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    code, payload = run_json([a.format(pattern=f) for a in argv])
    assert code == 1 and payload["kind"] == "domain"


def test_table_rejects_sizes_below_one(tmp_path):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    code, payload = run_json(["table", "--pattern", str(f), "--n-min", "0",
                              "--n-max", "2"])
    assert code == 1 and payload["kind"] == "domain"


def test_table_csv(tmp_path):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    code, text = run(["table", "--pattern", str(f), "--n-min", "1",
                      "--n-max", "3", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,value,per_n,per_n_log_n"
    assert len(lines) == 4
    assert lines[1].startswith("1,1,")


def test_bound_both_directions(tmp_path):
    f = tmp_path / "sb.g"
    f.write_text(serialize_graph(sailboat()))
    code, payload = run_json(["bound", "--pattern", str(f), "--trace"])
    assert code == 0
    assert payload["upper"]["terms"] == [
        {"n_exp": "1/1", "log_exp": 0, "subexp": True}]
    assert payload["upper"]["terminal"] == "sailboat"
    assert payload["lower"]["terminal"] == "constant-floor"
    assert "derivation" in payload["upper"]


def test_bound_negative_depth_is_domain_diagnostic(tmp_path):
    f = tmp_path / "sb.g"
    f.write_text(serialize_graph(sailboat()))
    code, payload = run_json(["bound", "--pattern", str(f), "--depth", "-3"])
    assert code == 1 and payload["kind"] == "domain"


def test_bound_ordered_lifts(tmp_path):
    f = tmp_path / "m.g"
    f.write_text("ordered 4\n1 3\n2 4\n")  # matching, two intervals
    code, payload = run_json(["bound", "--pattern", str(f),
                              "--direction", "upper"])
    assert code == 0
    assert payload["classification"]["kind"] == "bipartite"
    assert payload["upper"]["terms"] == [
        {"n_exp": "1/1", "log_exp": 1, "subexp": False}]
    assert payload["upper"]["two_part_terms"] == [
        {"n_exp": "1/1", "log_exp": 0, "subexp": False}]


def test_bound_quadratic_classification(tmp_path):
    f = tmp_path / "t.g"
    f.write_text("ordered 3\n1 2\n2 3\n1 3\n")
    code, payload = run_json(["bound", "--pattern", str(f),
                              "--direction", "upper"])
    assert code == 0
    assert payload["classification"]["kind"] == "quadratic"
    assert payload["classification"]["density_coefficient"] == "1/4"


def test_construct_with_verification(tmp_path):
    pat = tmp_path / "hook.g"
    pat.write_text("ordered 4\n1 3\n1 4\n2 4\n")
    out_file = tmp_path / "host.g"
    code, payload = run_json(["construct", "--family", "pow:2:ordered",
                              "--n", "32", "--verify", str(pat),
                              "--out", str(out_file)])
    assert code == 0
    assert payload["avoids"] is True
    assert payload["edge_count"] == 129
    assert parse_graph(out_file.read_text()).n_edges == 129


def test_construct_ckfree_seeded():
    code1, p1 = run_json(["construct", "--family", "ckfree:4", "--n", "30",
                          "--seed", "7"])
    code2, p2 = run_json(["construct", "--family", "ckfree:4", "--n", "30",
                          "--seed", "7"])
    assert code1 == code2 == 0
    assert p1 == p2


def test_construct_pow_refuses_a_seed():
    # pow is deterministic: a seed would be echoed while changing nothing.
    code, payload = run_json(["construct", "--family", "pow:2:ordered", "--n", "8",
                              "--seed", "5"])
    assert code == 1 and payload["kind"] == "usage"
    assert "seed" in payload["error"]
    code, payload = run_json(["construct", "--family", "pow:2:ordered", "--n", "8"])
    assert code == 0 and "seed" not in payload


def test_verify_subcommand(tmp_path):
    g = tmp_path / "g.g"
    g.write_text(serialize_graph(sailboat()))
    code, payload = run_json(["verify", "--graph", str(g), "--pattern", str(g)])
    assert code == 0
    assert payload["avoids"] is False
    assert payload["edge_count"] == 6
    assert "witness" in payload


def test_text_format_mode(tmp_path):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    code, text = run(["count", "--pattern", str(f), "--n", "2",
                      "--format", "text"])
    assert code == 0
    assert "count: 12" in text.splitlines()
    code, text = run(["contains", "--host", str(f), "--pattern", str(f),
                      "--witness", "--format", "text"])
    assert code == 0
    assert "contains: True" in text
    assert "witness.u_map: 1 2" in text
    cache = str(tmp_path / "cache")
    args = ["solve", "--pattern", str(f), "--flavor", "bipartite", "--n", "2",
            "--cache", cache]
    code, first = run(args + ["--format", "text"])
    assert code == 0 and "value: 3" in first
    code, js1 = run(args)
    code, js2 = run(args)
    assert js1 == js2  # byte-identical cache hits regardless of prior mode


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("ORDEX_CACHE_DIR", str(cache_dir))
    code, _ = run(["solve", "--pattern", str(f), "--flavor", "bipartite",
                   "--n", "2"])
    assert code == 0
    assert any(cache_dir.iterdir())


def test_cache_flag_wins_over_environment(tmp_path, monkeypatch):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    env_dir, flag_dir = tmp_path / "envcache", tmp_path / "flagcache"
    monkeypatch.setenv("ORDEX_CACHE_DIR", str(env_dir))
    code, _ = run(["solve", "--pattern", str(f), "--flavor", "bipartite",
                   "--n", "2", "--cache", str(flag_dir)])
    assert code == 0
    assert any(flag_dir.iterdir()) and not env_dir.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "pow:2:ordered", "--n", "8",
     "--out", "{afile}/x.g"],
    ["solve", "--pattern", "{pattern}", "--flavor", "bipartite", "--n", "2",
     "--cache", "{afile}/sub"],
    ["table", "--pattern", "{pattern}", "--n-min", "1", "--n-max", "2",
     "--cache", "{afile}/sub"],
], ids=["construct-out", "solve-cache", "table-cache"])
def test_unwritable_path_is_io_diagnostic(argv, tmp_path):
    """A path under a plain file can be neither written nor read."""
    afile = tmp_path / "afile"
    afile.write_text("")
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    code, payload = run_json([a.format(afile=afile, pattern=f) for a in argv])
    assert code == 1 and payload["kind"] == "io"
    assert payload["error"].startswith(f"cannot access {afile}/")


def test_usage_errors_exit_two():
    code, _ = run(["definitely-not-a-command"])
    assert code == 2
    code, _ = run(["solve", "--pattern", "x"])  # missing required flags
    assert code == 2
    code, text = run(["count", "--pattern", "x", "--n", "2", "--format", "xml"])
    assert code == 2 and text == ""


def test_shared_parser_keeps_no_state_between_commands(tmp_path):
    """A usage error, a refusal and a good run in one process print what
    each prints on a fresh import."""
    import subprocess
    import sys

    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n1 2\n2 2\n")
    commands = [
        ["bound", "--pattern", str(f), "--direction", "sideways"],
        ["bound", "--pattern", str(f), "--depth", "-3"],
        ["bound", "--pattern", str(f), "--trace"],
    ]
    assert build_parser() is build_parser()
    in_process = [run(argv) for argv in commands]
    assert [code for code, _ in in_process] == [2, 1, 0]
    for argv, (code, text) in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "ordex", *argv],
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout) == (code, text)


def test_missing_file_is_domain_error(tmp_path):
    code, payload = run_json(["chromatic", str(tmp_path / "absent.g")])
    assert code == 1 and payload["kind"] == "io"


def test_cross_process_determinism(tmp_path):
    """Same query in fresh interpreters prints identical bytes."""
    import subprocess
    import sys

    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 2\n2 1\n")
    cmd = [sys.executable, "-m", "ordex", "solve", "--pattern", str(f),
           "--flavor", "bipartite", "--n", "4", "--witness"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_cli_digest_is_pinned():
    """Every command of the scripts/cli_digest.py corpus (payloads, exit
    codes, refusals of each kind, cache hits) prints the pinned bytes."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(root / "scripts" / "cli_digest.py")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split()[-1] == (
        "4032c7cf64d1c4a4c75ad5e86ad17c7c157b481e6c7bf44e7b403b3b5c7dc833")


# ---------------------------------------------------------------------------
# Property: every argv stays inside the exit-code contract.
# ---------------------------------------------------------------------------

ARGV_FIXTURES = {
    "ordered.g": "ordered 4\n1 3\n1 4\n2 4\n",
    "bipartite.g": "bipartite 2 2\n1 1\n2 2\n",
    "cyclic.g": "cyclic 4\n1 3\n2 4\n",
    "edgeless.g": "ordered 3\n",
    "header.g": "graph 3\n1 2\n",
    "afile": "",
}
GRAPH_FILES = ["{d}/ordered.g", "{d}/bipartite.g", "{d}/cyclic.g",
               "{d}/edgeless.g", "{d}/header.g", "{d}/absent.g"]
FAMILY_HEADS = ["sailboat", "H", "match", "turan", "pow", "ckfree", "bogus"]
FAMILY_FIELDS = ["", "0", "-1", "x", "2", "3", "12", "1,2", "21",
                 "ordered", "cyclic", "bipartite"]
DIAGNOSTIC = jsonschema.Draft7Validator(json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "ordex" / "schemas"
     / "diagnostic.json").read_text()))


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    for name, text in ARGV_FIXTURES.items():
        (d / name).write_text(text)
    return d


def _req(flag, values):
    """[flag, value] for one value drawn from values."""
    return st.sampled_from(values).map(lambda v: [flag, str(v)])


def _opt(flag, values):
    """Either nothing or what _req draws."""
    return st.just([]) | _req(flag, values)


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _argv(*parts):
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p
                       for p in parts)).map(lambda ps: sum(ps, []))


_graph = st.sampled_from(GRAPH_FILES)
_fragments = st.builds(lambda head, fields: ":".join([head, *fields]),
                       st.sampled_from(FAMILY_HEADS),
                       st.lists(st.sampled_from(FAMILY_FIELDS), max_size=3))
_gen_family = st.sampled_from(["sailboat", "H:2", "match:2:21:ordered",
                               "match:1:1,2:cyclic", "turan:6:2"]) | _fragments
_construct_family = st.sampled_from(["pow:2:ordered", "pow:3:bipartite",
                                     "ckfree:3", "ckfree:4"]) | _fragments
FLAVORS = ["ordered", "bipartite", "cyclic"]
# Half the solves name the flavor of their pattern file.
_solve_pattern = st.one_of(
    st.sampled_from(FLAVORS).map(
        lambda f: ["--pattern", f"{{d}}/{f}.g", "--flavor", f]),
    st.tuples(_graph, st.sampled_from(FLAVORS)).map(
        lambda gf: ["--pattern", gf[0], "--flavor", gf[1]]))
_format = _opt("--format", ["json", "text"])
_cache = _opt("--cache", ["{d}/cache", "{d}/afile/sub"])

CLI_ARGV = st.one_of(
    st.sampled_from([[], ["nonsense"], ["solve", "--n", "2"],
                     ["count", "--pattern", "{d}/bipartite.g", "--n", "x"],
                     ["bound", "--pattern", "{d}/ordered.g", "--depth"]]),
    _argv("gen", _gen_family.map(lambda f: [f])),
    _argv("construct", _construct_family.map(lambda f: ["--family", f]),
          _req("--n", [-1, 0, 3, 8, 16]), _opt("--seed", [0, 7, -1]),
          _opt("--verify", GRAPH_FILES),
          _opt("--out", ["{d}/out.g", "{d}/afile/x.g"]), _format),
    _argv("contains", _req("--host", GRAPH_FILES), _req("--pattern", GRAPH_FILES),
          _flag("--witness"), _format),
    _argv("chromatic", _graph.map(lambda g: [g]), _format),
    _argv("solve", _solve_pattern,
          _req("--n", [-1, 0, 1, 2, 3, 13]), _opt("--m", [-1, 0, 2, 3, 9]),
          _flag("--witness"), _cache, _format),
    _argv("count", _req("--pattern", GRAPH_FILES),
          _req("--n", [-1, 0, 1, 2, 3, 13]), _format),
    _argv("count-perms", _req("--perm", ["132", "12", "21", "1", "", "1x2",
                                         "2,1,3", "1,2"]),
          _req("--n", [-1, 0, 3, 5, 11]), _format),
    _argv("table", _req("--pattern", GRAPH_FILES),
          _req("--n-min", [-1, 0, 1, 2]), _req("--n-max", [-1, 0, 1, 2]),
          _opt("--format", ["json", "csv"]), _cache),
    _argv("bound", _req("--pattern", GRAPH_FILES),
          _opt("--direction", ["upper", "lower", "both"]), _flag("--trace"),
          _opt("--depth", [-1, 0, 3, 12]), _format),
    _argv("verify", _req("--graph", GRAPH_FILES), _req("--pattern", GRAPH_FILES),
          _format),
)


@given(CLI_ARGV)
@settings(max_examples=300, deadline=None)
def test_every_argv_keeps_the_exit_contract(argv_dir, argv):
    argv = [a.format(d=argv_dir) for a in argv]
    code, text = run(argv)
    assert code in (0, 1, 2)
    fmt = dict(zip(argv, argv[1:])).get("--format", "json")
    if code == 2:
        assert text == ""
    elif code == 1 and fmt != "text":
        DIAGNOSTIC.validate(json.loads(text))
    elif code == 0 and fmt == "json" and argv[0] != "gen":
        json.loads(text)


# ---------------------------------------------------------------------------
# Property: every graph text stays inside the exit-code contract.
# ---------------------------------------------------------------------------

_size = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "x", "2.5", ""])
_header = st.one_of(
    st.builds(lambda kind, sizes: " ".join([kind, *sizes]),
              st.sampled_from(["ordered", "bipartite", "cyclic", "matrix", "MATRIX",
                               "Ordered", "graph", "1"]),
              st.lists(_size, max_size=3)),
    st.sampled_from(["ordered 4", "bipartite 2 3", "cyclic 5", "matrix 2 2"]))
_index = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "x", "01"])
_body_line = st.one_of(
    st.builds(lambda a, b: f"{a} {b}", _index, _index),
    st.builds(lambda a, b, gap: f"{a}{gap}{b}", _index, _index,
              st.sampled_from(["  ", "\t", " \t "])),
    st.sampled_from(["# a comment", "", "   ", "@", "1 2 3", "1", "1 2 # tail",
                     "ordered 3", "\t1\t2"]),
    st.text(alphabet="012x", max_size=4))
_junk_text = st.builds(
    lambda lead, header, body, end: "\n".join([*lead, header, *body]) + end,
    st.lists(st.sampled_from(["", "# leading comment", "  "]), max_size=2),
    _header, st.lists(_body_line, max_size=6), st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def _wellformed_text(draw):
    """A serialized or matrix-encoded small graph with comments and blanks spliced in."""
    g = draw(st.sampled_from(["ordered", "bipartite", "cyclic"]).flatmap(
        lambda f: graphs_of(f, max_n=5, max_edges=6)))
    if g.flavor == "bipartite" and draw(st.booleans()):
        cells = set(g.edges)
        lines = [f"matrix {g.n_u} {g.n_v}"] + [
            "".join("1" if (u, v) in cells else "0" for v in range(1, g.n_v + 1))
            for u in range(1, g.n_u + 1)]
    else:
        lines = serialize_graph(g).splitlines()
    noise = st.sampled_from(["# comment", "", "  ", "\t# indented"])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines) + "\n"


GRAPH_TEXT = _wellformed_text() | _junk_text


@given(GRAPH_TEXT, GRAPH_TEXT, st.sampled_from(["verify", "contains", "chromatic"]))
@settings(max_examples=300, deadline=None)
def test_every_graph_text_keeps_the_exit_contract(argv_dir, first, second, command):
    (argv_dir / "first.g").write_text(first, encoding="utf-8", newline="")
    (argv_dir / "second.g").write_text(second, encoding="utf-8", newline="")
    first_file, second_file = str(argv_dir / "first.g"), str(argv_dir / "second.g")
    argv = {"verify": ["verify", "--graph", first_file, "--pattern", second_file],
            "contains": ["contains", "--host", first_file, "--pattern", second_file,
                         "--witness"],
            "chromatic": ["chromatic", first_file]}[command]
    code, text = run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(text)
    elif code == 1:
        DIAGNOSTIC.validate(json.loads(text))
