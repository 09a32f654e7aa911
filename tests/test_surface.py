"""The public surface: every name a module lists in __all__ exists, so a
name left behind by a deletion fails here rather than in a user's
import."""

import importlib
import pkgutil

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
