import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sphere_chroma

MODULES = [sphere_chroma] + [
    importlib.import_module(f"sphere_chroma.{info.name}")
    for info in pkgutil.iter_modules(sphere_chroma.__path__)
    if not info.ispkg
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_public_definition_exported(module):
    defined = [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []


def test_every_module_is_a_listed_submodule():
    # an unlisted module imported as ``from . import name`` would send its
    # name through the package __getattr__, which imports every library module
    files = sorted(p.stem for p in Path(sphere_chroma.__file__).parent.glob("*.py"))
    assert sorted([*sphere_chroma._SUBMODULES, "__init__"]) == files


LIBRARY = [importlib.import_module(f"sphere_chroma.{name}")
           for name in ("graphcore", "kneser", "spheres", "covercolor", "farey")]

# package-level names that callers already import; each must keep resolving
PACKAGE_NAMES_BEFORE = [
    "Graph", "Coloring", "ChiCertificate", "ChiUndecided", "SchemaError",
    "validate_coloring", "greedy_dsatur", "clique_lower_bound",
    "chromatic_number_exact", "export_dimacs_kcolor", "export_dot", "to_json",
    "from_json", "TwoBlockPartition", "kg", "nested", "total_kneser",
    "remove_singleton_partitions", "sphere_graph_holed",
    "verify_lemma_sphere_kneser", "verify_petersen_isomorphism",
    "CutSystemModel", "glued_sphere_graph", "homology_class",
    "enumerate_double_covers", "cover_h2", "lift_classes",
    "verify_coloring_proper", "count_colors", "used_color_count",
    "farey_ball", "add_fins", "parity_coloring", "chi_farey_ball",
]


def test_package_all_is_the_modules_all():
    names = [name for module in LIBRARY for name in module.__all__]
    assert sphere_chroma.__all__ == names
    assert len(set(names)) == len(names)


def test_earlier_package_names_still_import():
    missing = [name for name in PACKAGE_NAMES_BEFORE
               if name not in sphere_chroma.__all__ or not hasattr(sphere_chroma, name)]
    assert missing == []


def test_star_import_binds_the_package_all():
    namespace = {}
    exec("from sphere_chroma import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sphere_chroma.__all__)
    assert len(namespace) == 58
    assert all(namespace[name] is getattr(sphere_chroma, name) for name in namespace)


@pytest.mark.parametrize(
    "path", sorted(Path(sphere_chroma.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_assert_in_src(path):
    # python -O strips assert statements, so a runtime check must raise
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
