"""Run configuration shared by the command line front end."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .cache import default_cache_dir
from .graphs import GraphValueError
from .solver import DEFAULT_CAPS, SolverCaps


@dataclass(frozen=True)
class RunConfig:
    """Solver caps, cache location and output format for one invocation.

    ``from_dict`` rejects unknown keys and takes ``caps`` as a mapping
    of ``SolverCaps`` fields.  The cache directory falls back to the
    ORDEX_CACHE_DIR environment variable and stays disabled when neither
    is set.
    """

    caps: SolverCaps = DEFAULT_CAPS
    cache_dir: str | None = None
    output_format: str = "json"

    def __post_init__(self):
        if self.output_format not in ("json", "csv", "text"):
            raise GraphValueError(f"unknown output format {self.output_format!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = _known_fields(cls, data)
        if "caps" in data:
            data["caps"] = SolverCaps(**_known_fields(SolverCaps, data["caps"]))
        return cls(**data)

    def resolved_cache_dir(self) -> str | None:
        return self.cache_dir if self.cache_dir is not None else default_cache_dir()


def _known_fields(cls, data: dict) -> dict:
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise GraphValueError(f"unknown config keys: {sorted(unknown)}")
    return dict(data)
