"""The public surface: every name a module lists in __all__ exists, so a
name left behind by a deletion fails here rather than in a user's
import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sleepshare

# __main__ runs the command line on import
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sleepshare.__path__)
                    if not m.name.startswith("_"))


@pytest.mark.parametrize("name", ["sleepshare"] + [f"sleepshare.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), "duplicate names in __all__"
    assert [n for n in listed if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from sleepshare import *", namespace)
    assert set(sleepshare.__all__) <= set(namespace)


SOURCES = sorted(Path(sleepshare.__file__).parent.glob("*.py"))


def _unused_imports(source: str):
    """Names that a module imports but neither uses nor lists in its
    __all__. A plain dotted import (`import numpy.random`) loads a
    submodule for its side effect and binds no name of its own."""
    tree = ast.parse(source)
    imported, listed = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name for a in node.names
                         if a.asname or "." not in a.name}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            listed |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - listed)


def test_unused_import_check_finds_one():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]
    assert _unused_imports("import os.path\n") == []
    assert _unused_imports("from math import pi\n__all__ = ['pi']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
