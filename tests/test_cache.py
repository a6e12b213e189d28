import os

import pytest

from ordex import cache as cache_module
from ordex.cache import RecordCache, record_bytes
from ordex.catalog import permutation_matching
from ordex.containment import contains
from ordex.graphs import bipartite_graph, reverse_rows, swap_parts


def test_cache_round_trip_byte_identical(tmp_path):
    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 2])
    rec = cache.fetch("bipartite", pat, 3, 3)
    raw_first = cache.load_bytes("bipartite", pat, 3, 3)
    assert raw_first is not None
    again = cache.fetch("bipartite", pat, 3, 3)
    assert again == rec
    assert cache.load_bytes("bipartite", pat, 3, 3) == raw_first


def test_cache_lazy_directory(tmp_path):
    target = tmp_path / "sub" / "dir"
    cache = RecordCache(target)
    assert not target.exists()
    cache.fetch("bipartite", permutation_matching([1, 2]), 2, 2)
    assert target.exists()


def test_variant_reuse_transfers_witness(tmp_path):
    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 3, 2])
    rec = cache.fetch("bipartite", pat, 4, 4)

    mirrored = reverse_rows(pat)
    rec2 = cache.fetch("bipartite", mirrored, 4, 4)
    assert rec2.value == rec.value
    assert rec2.witness.n_edges == rec2.value
    assert contains(rec2.witness, mirrored) is None


def test_transposed_hit_on_a_non_square_host(tmp_path, monkeypatch):
    """A record solved at 2 x 3 answers the transposed pattern at 3 x 2:
    the sizes swap with the parts and the witness is transposed back,
    revalidated and stored under the exact key, with no second solve."""
    cache = RecordCache(tmp_path)
    pat = bipartite_graph(2, 2, [(1, 1), (1, 2), (2, 2)])
    rec = cache.fetch("bipartite", pat, 2, 3)

    def no_solve(*args, **kwargs):
        raise AssertionError("a transposed hit must not solve")

    monkeypatch.setattr(cache_module, "max_edges_avoiding", no_solve)
    flipped = swap_parts(pat)
    out = cache.fetch("bipartite", flipped, 3, 2)
    assert (out.pattern, out.n, out.m, out.value) == (flipped, 3, 2, rec.value)
    assert out.witness == swap_parts(rec.witness)
    assert out.witness_ok()
    assert cache.load_bytes("bipartite", flipped, 3, 2) == record_bytes(out)


def test_schema_version_mismatch_recomputes(tmp_path):
    import json

    cache = RecordCache(tmp_path)
    pat = permutation_matching([2, 1])
    cache.fetch("bipartite", pat, 2, 2)
    path = cache._path("bipartite", pat, 2, 2)
    payload = json.loads(path.read_bytes())
    payload["schema_version"] = 999
    path.write_text(json.dumps(payload))
    assert cache.load_bytes("bipartite", pat, 2, 2) is None
    rec = cache.fetch("bipartite", pat, 2, 2)
    assert rec.value == 3


def test_truncated_file_is_a_miss_and_overwritten(tmp_path):
    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 2])
    rec = cache.fetch("bipartite", pat, 3, 3)
    path = cache._path("bipartite", pat, 3, 3)
    good = path.read_bytes()
    path.write_bytes(good[:len(good) // 2])
    assert cache.load_bytes("bipartite", pat, 3, 3) is None
    assert cache.fetch("bipartite", pat, 3, 3) == rec
    assert path.read_bytes() == good


def test_foreign_record_is_a_miss_and_overwritten(tmp_path):
    import json

    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 2])
    other = permutation_matching([2, 1])
    cache.fetch("bipartite", other, 3, 3)
    foreign = json.loads(cache._path("bipartite", other, 3, 3).read_bytes())
    foreign["value"] = 99
    path = cache._path("bipartite", pat, 3, 3)
    path.write_text(json.dumps(foreign))
    assert cache.load_bytes("bipartite", pat, 3, 3) is None
    rec = cache.fetch("bipartite", pat, 3, 3)
    assert rec.pattern == pat and rec.value == 5
    assert json.loads(path.read_bytes())["value"] == 5


def test_compact_record_is_a_miss_and_overwritten(tmp_path):
    """A record that matches its key but is not in the stored layout would
    print other bytes than a fresh solve, so it is a miss."""
    import json

    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 2])
    rec = cache.fetch("bipartite", pat, 3, 3)
    path = cache._path("bipartite", pat, 3, 3)
    good = path.read_bytes()
    path.write_text(json.dumps(json.loads(good)))
    assert cache.load_bytes("bipartite", pat, 3, 3) is None
    assert cache.fetch("bipartite", pat, 3, 3) == rec
    assert path.read_bytes() == good


FULL_3X3 = "bipartite 3 3\n" + "".join(f"{u} {v}\n" for u in range(1, 4)
                                        for v in range(1, 4))


@pytest.mark.parametrize("forged", [
    {"value": 9, "witness": FULL_3X3},          # witness contains the pattern
    {"value": 6},                               # value disagrees with witness
    {"witness": "bipartite 3 3\n1 9\n"},        # witness does not parse
    {"value": 1, "witness": "bipartite 2 3\n1 1\n"},  # wrong size
    {"value": 1, "witness": "ordered 3\n1 2\n"},      # wrong flavor
], ids=["contains-pattern", "value-mismatch", "unparsable", "size", "flavor"])
def test_record_with_bad_witness_is_a_miss_and_overwritten(tmp_path, forged):
    import json

    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 2])
    cache.fetch("bipartite", pat, 3, 3)
    path = cache._path("bipartite", pat, 3, 3)
    good = path.read_bytes()
    path.write_text(json.dumps({**json.loads(good), **forged}))
    assert cache.load_bytes("bipartite", pat, 3, 3) is None
    rec = cache.fetch("bipartite", pat, 3, 3)
    assert rec.value == 5 and contains(rec.witness, pat) is None
    assert path.read_bytes() == good


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
def test_non_integer_value_is_a_miss_and_overwritten(tmp_path, value):
    import json

    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 2])
    cache.fetch("bipartite", pat, 3, 3)
    path = cache._path("bipartite", pat, 3, 3)
    good = path.read_bytes()
    forged = {**json.loads(good), "value": value, "witness": "bipartite 3 3\n1 1\n"}
    path.write_text(json.dumps(forged, indent=1, sort_keys=True) + "\n")
    assert cache.load_bytes("bipartite", pat, 3, 3) is None
    assert cache.fetch("bipartite", pat, 3, 3).value == 5
    assert path.read_bytes() == good


def test_failed_store_keeps_old_record_and_leaves_no_temp_file(tmp_path,
                                                               monkeypatch):
    cache = RecordCache(tmp_path)
    pat = permutation_matching([1, 2])
    rec = cache.fetch("bipartite", pat, 3, 3)
    path = cache._path("bipartite", pat, 3, 3)
    good = path.read_bytes()
    path.write_bytes(b"old bytes")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        cache.store(rec)
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    monkeypatch.undo()
    cache.store(rec)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
