import importlib
import pkgutil

import pytest

import kryging

MODULES = [
    mod
    for mod in [kryging]
    + [importlib.import_module(f"kryging.{m.name}") for m in pkgutil.iter_modules(kryging.__path__)]
    if hasattr(mod, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
