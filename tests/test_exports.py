import ast
import importlib
import inspect
import pkgutil
import textwrap
import types
from pathlib import Path

import pytest

import kryging
from kryging import BttbOperator, GenGKFactorization, SparseMap

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


PACKAGE_DIR = Path(kryging.__file__).parent
PIPELINE_CLASSES = [BttbOperator, SparseMap, GenGKFactorization]


def attributes_read_outside(cls, member):
    """Attribute names the package's code reads, leaving out the
    definition of ``member`` in ``cls`` (docstrings and comments hold no
    attribute nodes, so a mention there is not a use, and an assignment
    is not a read)."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                node.body = [s for s in node.body if getattr(s, "name", None) != member]
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return names


@pytest.mark.parametrize("cls", PIPELINE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_public_member_has_a_caller_in_the_package(cls):
    # a member only the tests call belongs in tests/oracles.py
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    members = [name for name, value in vars(cls).items()
               if not name.startswith("_") and isinstance(value, kinds)]
    unused = [name for name in members if name not in attributes_read_outside(cls, name)]
    assert unused == []


def init_attributes(cls):
    """Public attributes that ``cls.__init__`` assigns on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            and not n.attr.startswith("_")}


@pytest.mark.parametrize("cls", [BttbOperator, SparseMap], ids=lambda cls: cls.__name__)
def test_every_public_instance_attribute_is_read_in_the_package(cls):
    # an attribute only the tests read is state the pipeline carries for nothing
    attributes = init_attributes(cls)
    assert attributes
    unread = sorted(name for name in attributes if name not in attributes_read_outside(cls, name))
    assert unread == []
