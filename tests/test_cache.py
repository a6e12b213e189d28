import os

import pytest

from ordex.cache import RecordCache
from ordex.catalog import permutation_matching
from ordex.containment import contains
from ordex.graphs import reverse_rows


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
