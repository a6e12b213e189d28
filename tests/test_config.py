import pytest

from ordex.cache import default_cache_dir
from ordex.config import RunConfig
from ordex.graphs import GraphValueError
from ordex.solver import SolverCaps


def test_defaults():
    caps = RunConfig().caps
    assert caps.ordered == 12 and caps.bipartite == 8 and caps.cyclic == 12
    assert caps.avoiders == 4 and caps.permutations == 10


def test_unknown_keys_rejected():
    with pytest.raises(GraphValueError):
        RunConfig.from_dict({"caps": {"ordered": 4}, "frobnicate": True})
    with pytest.raises(GraphValueError):
        RunConfig.from_dict({"caps": {"ordered": 4, "frobnicate": 1}})
    assert RunConfig.from_dict({"caps": {"ordered": 4}}).caps.ordered == 4


def test_caps_must_be_positive():
    with pytest.raises(GraphValueError):
        RunConfig(caps=SolverCaps(bipartite=0))
    with pytest.raises(GraphValueError):
        RunConfig.from_dict({"caps": {"bipartite": 0}})
    with pytest.raises(GraphValueError):
        RunConfig(output_format="xml")


def test_cache_dir_environment(monkeypatch):
    monkeypatch.delenv("ORDEX_CACHE_DIR", raising=False)
    assert RunConfig().resolved_cache_dir() is None
    monkeypatch.setenv("ORDEX_CACHE_DIR", "/tmp/somewhere")
    assert RunConfig().resolved_cache_dir() == "/tmp/somewhere"
    assert default_cache_dir() == "/tmp/somewhere"
    assert RunConfig(cache_dir="/explicit").resolved_cache_dir() == "/explicit"
