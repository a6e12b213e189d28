"""Command line surface: payloads, exit codes, cache behavior."""

import io
import json

import pytest

from ordex.cli import dispatch
from ordex.formats import parse_graph, serialize_graph
from ordex.catalog import sailboat, keszegh_h


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


def test_solve_cache_hit_identical_bytes(tmp_path):
    f = tmp_path / "p.g"
    f.write_text("bipartite 2 2\n1 1\n2 2\n")
    cache_dir = str(tmp_path / "cache")
    args = ["solve", "--pattern", str(f), "--flavor", "bipartite",
            "--n", "3", "--cache", cache_dir]
    code1, text1 = run(args)
    code2, text2 = run(args)
    assert code1 == code2 == 0
    assert text1 == text2


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


def test_usage_errors_exit_two():
    code, _ = run(["definitely-not-a-command"])
    assert code == 2
    code, _ = run(["solve", "--pattern", "x"])  # missing required flags
    assert code == 2


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
