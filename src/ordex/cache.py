"""Persistent JSON cache of solved extremal records.

One file per record, keyed by flavor, exact pattern serialization and
host dimensions, with a schema version baked into both the digest and
the payload; bumping the version orphans old files rather than
corrupting them.  A file that does not parse, whose payload names
another schema version, flavor, pattern or size, whose value is not an
integer, whose witness fails ``ExtremalRecord.witness_ok``, or whose
bytes are not exactly those ``store`` writes for its record, is a miss
and is overwritten by the fresh solve.  Records are written to a
temporary file and moved into place, so concurrent writers never tear a
file.

A lookup probes the symmetry images of the pattern (``graphs.variants``;
a single-part pattern has only itself) in one loop.  The identity image
is the exact key, and its stored payload is returned byte for byte.  A
record stored for another image transfers: the host sizes swap with the
parts, the witness is pulled back through the inverse symmetry,
revalidated and stored under the exact key.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from functools import lru_cache
from pathlib import Path

from .config import DEFAULT_CAPS, SolverCaps
from .formats import GraphTextError, parse_graph, serialize_graph
from .graphs import BIPARTITE, PatternGraph, apply_variant, variants
from .solver import ExtremalRecord, max_edges_avoiding

SCHEMA_VERSION = 1

ENV_CACHE_DIR = "ORDEX_CACHE_DIR"


def record_payload(rec: ExtremalRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "flavor": rec.flavor,
        "pattern": serialize_graph(rec.pattern),
        "n": rec.n,
        "m": rec.m,
        "value": rec.value,
        "witness": serialize_graph(rec.witness),
    }


@lru_cache(maxsize=256)
def record_bytes(rec: ExtremalRecord) -> bytes:
    """The bytes ``RecordCache.store`` writes for a record.

    Memoized, so printing a record that was just checked or stored does
    not encode it again.
    """
    return (json.dumps(record_payload(rec), indent=1, sort_keys=True)
            + "\n").encode()


class RecordCache:
    """Directory of solved records; created lazily on first write."""

    def __init__(self, base_dir: str | os.PathLike):
        self.base = Path(base_dir)

    def _path(self, flavor: str, pattern: PatternGraph, n: int, m: int) -> Path:
        key = f"v{SCHEMA_VERSION}|{flavor}|{n}|{m}|{serialize_graph(pattern)}"
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        return self.base / f"{flavor}-n{n}-m{m}-{digest}.json"

    def load_bytes(self, flavor: str, pattern: PatternGraph,
                   n: int, m: int) -> bytes | None:
        try:
            raw = self._path(flavor, pattern, n, m).read_bytes()
        except FileNotFoundError:
            return None
        if _stored_record(raw, flavor, pattern, n, m) is None:
            return None
        return raw

    def store(self, rec: ExtremalRecord) -> bytes:
        """Write the record atomically: a reader sees the old file or the
        new one, never a torn one, whatever other writers do."""
        path = self._path(rec.flavor, rec.pattern, rec.n, rec.m)
        raw = record_bytes(rec)
        self.base.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        try:
            tmp.write_bytes(raw)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return raw

    def fetch(self, flavor: str, pattern: PatternGraph, n: int,
              m: int | None = None,
              caps: SolverCaps = DEFAULT_CAPS) -> ExtremalRecord:
        """Cached record, or solve and persist one.

        Probes the images of the pattern in ``graphs.variants`` order.  An
        exact-key hit returns the stored record, whose bytes are the
        file's; a hit on another image reuses its value, with the witness
        pulled back through ``ops[::-1]`` and revalidated before it is
        stored under the exact key.  A miss on every image solves.
        """
        mm = m if m is not None else 0
        images = variants(pattern) if flavor == BIPARTITE else (((), pattern),)
        for ops, image in images:
            vn, vm = (mm, n) if "swap" in ops else (n, mm)
            raw = self.load_bytes(flavor, image, vn, vm)
            if raw is None:
                continue
            rec = _stored_record(raw, flavor, image, vn, vm)
            if not ops:
                return rec
            out = ExtremalRecord(flavor, pattern, n, mm, rec.value,
                                 apply_variant(rec.witness, ops[::-1]))
            if out.witness_ok():
                self.store(out)
                return out
        rec = max_edges_avoiding(flavor, n, pattern, m=m, caps=caps)
        self.store(rec)
        return rec


@lru_cache(maxsize=256)
def _stored_record(raw: bytes, flavor: str, pattern: PatternGraph,
                   n: int, m: int) -> ExtremalRecord | None:
    """The record a file's bytes hold for the key, or None when they do
    not parse, name another schema version or key, hold a witness that
    fails ``witness_ok``, or are not exactly the bytes ``store`` writes
    for the record.

    Memoized, so ``fetch`` rebuilds the record ``load_bytes`` just
    checked for free; exact because the answer is a pure function of the
    arguments and the records are immutable.
    """
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    key = {"schema_version": SCHEMA_VERSION, "flavor": flavor,
           "pattern": serialize_graph(pattern), "n": n, "m": m}
    text = payload.get("witness")
    if any(payload.get(k) != v for k, v in key.items()) or not isinstance(text, str):
        return None
    try:
        witness = parse_graph(text)
    except GraphTextError:
        return None
    value = payload.get("value")
    # true and 1.0 equal 1, so they would pass the edge count and share
    # the memo entry of a record whose value is 1.
    if type(value) is not int:
        return None
    rec = ExtremalRecord(flavor, pattern, n, m, value, witness)
    return rec if rec.witness_ok() and record_bytes(rec) == raw else None


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR)
