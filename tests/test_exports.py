"""Every exported name must resolve, so a stale export fails here and not in
a user's ``from mvrsm import ...``."""

import importlib
import pkgutil

import pytest

import mvrsm

MODULES = [
    info.name for info in pkgutil.iter_modules(mvrsm.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", ["mvrsm", *(f"mvrsm.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
