import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zetacf

_MODULES = ["zetacf"] + sorted(
    f"zetacf.{info.name}" for info in pkgutil.iter_modules(zetacf.__path__))
_SOURCES = sorted(Path(zetacf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # a stale name breaks `from zetacf import *` and the bench's tracing,
    # which wraps every function a module exports
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads and does not list
    in its `__all__` (`from __future__` imports bind nothing)."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [n for n in bound if n not in read and n not in exported]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a deletion that leaves its import behind shows up here
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_flags_stale_names():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from .a import b, c as d, e\n__all__ = ['e']\nprint(b)\n")
    assert _unused_imports(source) == ["math", "os", "d"]
