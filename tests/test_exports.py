"""Every ``repro`` module exports only names it defines.

A name left in an ``__all__`` after its definition is deleted fails only
when something star-imports its module; walking every module catches it in
the change that deletes the definition.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    dangling = []
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        dangling += [
            f"{module_info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not dangling, f"names in __all__ that do not resolve: {dangling}"
