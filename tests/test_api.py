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


def test_package_dir_lists_every_name():
    assert set(sphere_chroma.__all__) <= set(dir(sphere_chroma))


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


def _load_reference(monkeypatch, text):
    # `load_reference_three_coloring` with the shipped file's text replaced
    from importlib import resources

    from sphere_chroma import spheres

    class File:
        def joinpath(self, name):
            return self

        def read_text(self):
            return text

    monkeypatch.setattr(resources, "files", lambda package: File())
    return spheres.load_reference_three_coloring()


def _input_checks():
    from sphere_chroma import covercolor, graphbase, kneser
    model3 = covercolor.CutSystemModel(3)
    return {
        "cover-r-above-cap": (lambda mp: covercolor.enumerate_double_covers(9),
                              ValueError, "r must be in 1..8, got 9"),
        "relation-above-dim": (lambda mp: covercolor.GF2Quotient.from_relations(2, [4]),
                               ValueError, "relation out of range for declared dimension"),
        "cover-of-another-r": (lambda mp: covercolor.cover_h2(
                                   model3, covercolor.DoubleCover(2, (1, 0))),
                               ValueError, "cover has r=2, model has r=3"),
        "partition-of-another-n": (lambda mp: covercolor.homology_class(
                                       model3, kneser.TwoBlockPartition.from_block(4, [1])),
                                   ValueError, "partition is over 4 labels, model has 6"),
        "too-few-rows": (lambda mp: graphbase.Graph.from_rows(["a", "b"], [2]),
                         ValueError, "1 adjacency rows for 2 vertices"),
        "repeated-element": (lambda mp: kneser.TwoBlockPartition.from_block(4, [2, 2]),
                             ValueError, "repeated element 2"),
        "mask-above-range": (lambda mp: kneser.TwoBlockPartition(3, 9),
                             ValueError, "mask 0x9 out of range for n=3"),
        "negative-mask": (lambda mp: kneser.TwoBlockPartition(3, -2),
                          ValueError, "mask -0x2 out of range for n=3"),
        "empty-block": (lambda mp: kneser.TwoBlockPartition(3, 7),
                        ValueError, "both blocks must be nonempty"),
        "one-element-ground-set": (lambda mp: kneser.all_partitions(1),
                                   ValueError, "need n >= 2, got 1"),
        "unknown-package-name": (lambda mp: sphere_chroma.nope, AttributeError,
                                 "module 'sphere_chroma' has no attribute 'nope'"),
        "reference-not-a-list": (lambda mp: _load_reference(mp, "{}"),
                                 ValueError, "reference coloring data is not a list"),
        "reference-bad-record": (lambda mp: _load_reference(mp, '[{"partition": "1 2|3 4 5"}]'),
                                 ValueError,
                                 "bad reference coloring record: {'partition': '1 2|3 4 5'}"),
    }


INPUT_CHECKS = _input_checks()


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_names_its_fault(monkeypatch, case):
    # each library input check, with the exception and message it raises
    call, kind, message = INPUT_CHECKS[case]
    with pytest.raises(kind) as err:
        call(monkeypatch)
    assert type(err.value) is kind and str(err.value) == message
