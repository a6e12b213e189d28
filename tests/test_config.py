import pytest

import ordex
import ordex.solver
from ordex.cache import default_cache_dir
from ordex.config import SolverCaps
from ordex.graphs import GraphValueError


def test_defaults():
    caps = SolverCaps()
    assert caps.ordered == 12 and caps.bipartite == 8 and caps.cyclic == 12
    assert caps.avoiders == 4 and caps.permutations == 10
    assert SolverCaps is ordex.solver.SolverCaps is ordex.SolverCaps


def test_caps_must_be_positive():
    for field in ("ordered", "bipartite", "cyclic", "avoiders", "permutations"):
        with pytest.raises(GraphValueError):
            SolverCaps(**{field: 0})
        assert getattr(SolverCaps(**{field: 1}), field) == 1


def test_cache_dir_environment(monkeypatch):
    monkeypatch.delenv("ORDEX_CACHE_DIR", raising=False)
    assert default_cache_dir() is None
    monkeypatch.setenv("ORDEX_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
