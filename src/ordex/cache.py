"""Persistent JSON cache of solved extremal records.

One file per record, keyed by flavor, exact pattern serialization and
host dimensions, with a schema version baked into both the digest and
the payload; bumping the version orphans old files rather than
corrupting them.  A repeated query returns the stored payload bytes
unchanged.  A file that does not parse, or whose payload names another
schema version, flavor, pattern or size, is a miss and is overwritten
by the fresh solve.  Records are written to a temporary file and moved
into place, so concurrent writers never tear a file.  Bipartite lookups
additionally probe the symmetry variants of the pattern: a record
solved for a variant transfers, with the witness mapped back through
the inverse symmetry and revalidated.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from pathlib import Path

from .containment import contains
from .formats import parse_graph, serialize_graph
from .graphs import (BIPARTITE, PatternGraph, VARIANT_SEQUENCES, apply_variant,
                     invert_variant)
from .solver import DEFAULT_CAPS, ExtremalRecord, max_edges_avoiding

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


def record_from_payload(payload: dict) -> ExtremalRecord:
    return ExtremalRecord(
        flavor=payload["flavor"],
        pattern=parse_graph(payload["pattern"]),
        n=payload["n"],
        m=payload["m"],
        value=payload["value"],
        witness=parse_graph(payload["witness"]),
    )


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
        path = self._path(flavor, pattern, n, m)
        if not path.exists():
            return None
        raw = path.read_bytes()
        try:
            payload = json.loads(raw)
        except ValueError:
            return None
        key = {"schema_version": SCHEMA_VERSION, "flavor": flavor,
               "pattern": serialize_graph(pattern), "n": n, "m": m}
        if (not isinstance(payload, dict)
                or any(payload.get(k) != v for k, v in key.items())):
            return None
        return raw

    def store(self, rec: ExtremalRecord) -> bytes:
        """Write the record atomically: a reader sees the old file or the
        new one, never a torn one, whatever other writers do."""
        path = self._path(rec.flavor, rec.pattern, rec.n, rec.m)
        raw = (json.dumps(record_payload(rec), indent=1, sort_keys=True)
               + "\n").encode()
        self.base.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        try:
            tmp.write_bytes(raw)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return raw

    def _variant_hit(self, pattern: PatternGraph, n: int, m: int):
        """A record for a symmetry variant of the pattern, if stored.

        Returns (record, inverse op sequence) with dimensions already
        matching the variant's orientation.
        """
        for ops in VARIANT_SEQUENCES:
            if not ops:
                continue
            variant = apply_variant(pattern, ops)
            swapped = ("swap" in ops)
            vn, vm = (m, n) if swapped else (n, m)
            raw = self.load_bytes(BIPARTITE, variant, vn, vm)
            if raw is not None:
                return record_from_payload(json.loads(raw)), invert_variant(ops)
        return None

    def fetch(self, flavor: str, pattern: PatternGraph, n: int,
              m: int | None = None, caps=DEFAULT_CAPS) -> ExtremalRecord:
        """Cached record, or solve and persist one.

        Exact-key hits reuse the stored payload byte for byte; bipartite
        variant hits reuse the value, with the witness pulled back
        through the inverse symmetry and revalidated before use.
        """
        mm = m if m is not None else 0
        raw = self.load_bytes(flavor, pattern, n, mm)
        if raw is not None:
            return record_from_payload(json.loads(raw))
        if flavor == BIPARTITE:
            hit = self._variant_hit(pattern, n, mm)
            if hit is not None:
                rec, inverse = hit
                witness = apply_variant(rec.witness, inverse)
                if (witness.n_edges == rec.value
                        and contains(witness, pattern) is None):
                    out = ExtremalRecord(flavor, pattern, n, mm, rec.value, witness)
                    self.store(out)
                    return out
        rec = max_edges_avoiding(flavor, n, pattern, m=m, caps=caps)
        self.store(rec)
        return rec


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR)
