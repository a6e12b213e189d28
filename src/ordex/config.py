"""Solver settings: the per-flavor instance size caps."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import GraphValueError


@dataclass(frozen=True)
class SolverCaps:
    """Per-flavor instance size guards; exceeding one is a refusal, not a clamp."""

    ordered: int = 12
    bipartite: int = 8
    cyclic: int = 12
    avoiders: int = 4
    permutations: int = 10

    def __post_init__(self):
        for name in ("ordered", "bipartite", "cyclic", "avoiders", "permutations"):
            if getattr(self, name) < 1:
                raise GraphValueError(f"cap {name} must be positive")


DEFAULT_CAPS = SolverCaps()
