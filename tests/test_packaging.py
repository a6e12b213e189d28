"""The runtime imports only the standard library and ordex itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ordex").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    foreign = [name for name in names
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "ordex"]
    assert not foreign, f"{path.name} imports {foreign}"


def test_sources_found():
    assert len(SOURCES) > 5
