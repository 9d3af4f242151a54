import importlib
import pkgutil

import pytest

import sphere_chroma

MODULES = [sphere_chroma] + [
    importlib.import_module(f"sphere_chroma.{info.name}")
    for info in pkgutil.iter_modules(sphere_chroma.__path__)
    if not info.ispkg
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
