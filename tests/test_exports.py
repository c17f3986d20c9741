"""
Every exported name resolves, and the package exports only what its
submodules export.
"""

import importlib
import pkgutil

import divcurl

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(divcurl.__path__))


def test_every_submodule_export_resolves():
    for name in SUBMODULES:
        mod = importlib.import_module("divcurl." + name)
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert missing == [], (name, missing)
        assert len(set(mod.__all__)) == len(mod.__all__), name


def test_package_exports_come_from_submodule_exports():
    assert sorted(set(divcurl.__all__)) == sorted(divcurl.__all__)
    owners = {}
    for name in SUBMODULES:
        mod = importlib.import_module("divcurl." + name)
        for n in mod.__all__:
            owners.setdefault(n, []).append(mod)
    for n in divcurl.__all__:
        obj = getattr(divcurl, n)            # raises for a name left behind
        assert any(getattr(mod, n) is obj for mod in owners.get(n, [])), n
