"""Every exported name must resolve, so a stale export fails here and not in
a user's ``from mvrsm import ...``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mvrsm
from mvrsm import errors

MODULES = [
    info.name for info in pkgutil.iter_modules(mvrsm.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", ["mvrsm", *(f"mvrsm.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", [n for n in errors.__all__ if n != "MvrsmError"])
def test_every_error_class_is_raised_or_caught(name):
    # a class that nothing raises or catches is dead surface a caller cannot act on
    used = re.compile(rf"raise {name}\(|except \(?[\w,\s]*\b{name}\b")
    sources = [p for p in Path(mvrsm.__file__).parent.glob("*.py") if p.name != "errors.py"]
    assert any(used.search(p.read_text(encoding="utf-8")) for p in sources)
