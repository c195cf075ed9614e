import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import textwrap
import types
from collections import Counter
from pathlib import Path

import pytest

import kryging

MODULES = [kryging] + [importlib.import_module(f"kryging.{m.name}")
                       for m in pkgutil.iter_modules(kryging.__path__)]


@pytest.mark.parametrize("module", [mod for mod in MODULES if hasattr(mod, "__all__")],
                         ids=lambda mod: mod.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# the code whose reads count: the package and the benchmark, not any tests
PACKAGE_DIR = Path(kryging.__file__).parent
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
CLASSES = sorted({value for mod in MODULES for value in vars(mod).values()
                  if inspect.isclass(value) and value.__module__ == mod.__name__},
                 key=lambda cls: cls.__name__)


def attribute_loads(node) -> Counter:
    """How often each attribute name is read under ``node`` (docstrings
    and comments hold no attribute nodes, so a mention there is not a
    use, and an assignment is not a read)."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


@functools.cache
def source_trees() -> tuple:
    sources = [*PACKAGE_DIR.glob("*.py"),
               *(p for p in PERFBENCH_DIR.glob("*.py") if not p.name.startswith("test_"))]
    assert any(p.parent == PERFBENCH_DIR for p in sources)
    return tuple(ast.parse(p.read_text()) for p in sources)


@functools.cache
def source_loads() -> Counter:
    return sum(map(attribute_loads, source_trees()), Counter())


@functools.cache
def class_statements(name) -> tuple:
    """The statements in the bodies of the classes called ``name``."""
    return tuple(statement for tree in source_trees() for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) and node.name == name
                 for statement in node.body)


def read_outside(cls, member) -> bool:
    """Whether the package or the benchmark reads attribute ``member``
    anywhere but in the definition of ``member`` in ``cls``."""
    inside = sum((attribute_loads(statement) for statement in class_statements(cls.__name__)
                  if getattr(statement, "name", None) == member), Counter())
    return source_loads()[member] > inside[member]


def public_members(cls) -> list:
    """The dataclass fields, properties and methods ``cls`` defines
    without a leading underscore."""
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    methods = [name for name, value in vars(cls).items() if isinstance(value, kinds)]
    return [name for name in fields + methods if not name.startswith("_")]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_public_member_has_a_caller_in_the_package(cls):
    # a field only the tests read is state the pipeline carries for
    # nothing; a method only the tests call belongs in tests/oracles.py
    unused = [name for name in public_members(cls) if not read_outside(cls, name)]
    assert unused == []


def init_attributes(cls):
    """Public attributes that ``cls.__init__`` assigns on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            and not n.attr.startswith("_")}


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if "__init__" in vars(cls)
                                 and not dataclasses.is_dataclass(cls)],
                         ids=lambda cls: cls.__name__)
def test_every_public_instance_attribute_is_read_in_the_package(cls):
    # an attribute only the tests read is state the pipeline carries for nothing
    attributes = init_attributes(cls)
    assert attributes
    unread = sorted(name for name in attributes if not read_outside(cls, name))
    assert unread == []
