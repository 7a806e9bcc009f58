import importlib
import pkgutil

import pytest

import zetacf

_MODULES = ["zetacf"] + sorted(
    f"zetacf.{info.name}" for info in pkgutil.iter_modules(zetacf.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # a stale name breaks `from zetacf import *` and the bench's tracing,
    # which wraps every function a module exports
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
