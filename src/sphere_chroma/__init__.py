"""Sphere graphs of connect sums of S^1 x S^2, and the machinery that
colors them: Kneser-style partition graphs, exact chromatic numbers,
double-cover homology colorings, and Farey balls with fins.

The package exports the names in its library modules' ``__all__`` lists,
but imports no module until one of those names is first asked for
(PEP 562), so ``python -m sphere_chroma.cli chi`` loads ``graphcore``
and ``graphbase`` alone.  A name is looked up in the modules in the
order of ``_LIBRARY``, each imported as the lookup reaches it.
``graphbase`` and ``counting`` are not in it: ``graphcore`` and
``covercolor`` re-export their names.  Every module of the package is in
``_SUBMODULES``, so that importing it by name never starts that lookup.
"""

import importlib

_LIBRARY = ("graphcore", "kneser", "spheres", "covercolor", "farey")
_SUBMODULES = (*_LIBRARY, "graphbase", "counting", "cli")


def __getattr__(name):
    # ``from sphere_chroma import cli`` and ``from . import graphcore`` ask
    # here before they import the submodule, so its name must fail at once
    if name.startswith("_") and name != "__all__" or name in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name == "__all__":
        value = [n for m in _LIBRARY for n in _module(m).__all__]
    else:
        owner = next((m for m in map(_module, _LIBRARY) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})


def _module(name):
    return importlib.import_module(f"{__name__}.{name}")
