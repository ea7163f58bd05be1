"""The package's library surface: every name in ``npstat.__all__`` is there,
and a submodule is imported only when one of its names is first used."""

import importlib
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import npstat


def npstat_modules_around(name):
    """The npstat modules loaded in a new ``python -S`` after ``import npstat``,
    and then after looking ``name`` up on the package."""
    src = Path(npstat.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import npstat\n"
        "print(*sorted(m for m in sys.modules if m.startswith('npstat')))\n"
        f"npstat.{name}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('npstat')))\n"
    )
    child = subprocess.run([sys.executable, "-S", "-c", probe],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()


def test_import_loads_no_submodule():
    assert npstat_modules_around("parse_trees") == [
        "npstat", "npstat npstat.base npstat.treebank"]


def test_annotations_resolve_to_the_classes():
    assert typing.get_type_hints(npstat.classify_np)["np"] is npstat.Tree
    assert (typing.get_type_hints(npstat.build_pronoun_indefinite_table)["aggregate"]
            is npstat.AggregateCounts)
    for name in npstat.__all__:
        value = getattr(npstat, name)
        members = inspect.getmembers(value, inspect.isfunction) if inspect.isclass(value) else []
        for function in [value] * inspect.isfunction(value) + [f for _, f in members]:
            if function.__module__.startswith("npstat."):  # not a NamedTuple's own __new__
                typing.get_type_hints(function)  # NameError for a name it cannot find


def test_classify_np_loads_no_node_model_until_called():
    # Its annotation names the node model through the package, not an import.
    assert npstat_modules_around("classify_np") == [
        "npstat", "npstat npstat.base npstat.givenness"]


@pytest.mark.parametrize("name", ["ReportFormat", "InputError", "DegenerateInput",
                                  "ConfigError"])
def test_base_names_load_only_base(name):
    # ReportFormat lives in base so that --format need not load the report
    # layer; npstat.report re-exports it.
    assert npstat_modules_around(name) == ["npstat", "npstat npstat.base"]


# The one base class of each of exits 2, 3 and 4.
EXIT_BASES = ["InputError", "DegenerateInput", "ConfigError"]

# Each documented exit code's classes: (name, its base in npstat.base, the builtin
# base a library caller may catch it by).
EXIT_CLASSES = [
    ("RootNotFound", "InputError", FileNotFoundError),
    ("DegenerateMargin", "DegenerateInput", ValueError),
    ("ZeroDenominator", "DegenerateInput", ZeroDivisionError),
    ("ClassifierConfigError", "ConfigError", ValueError),
    ("EmptyInflectionSet", "ConfigError", ValueError),
]


@pytest.mark.parametrize("name, base, builtin", EXIT_CLASSES,
                         ids=[name for name, _, _ in EXIT_CLASSES])
def test_exit_classes_derive_from_their_base(name, base, builtin):
    error = getattr(npstat, name)("x")
    assert isinstance(error, builtin)
    assert [other for other in EXIT_BASES if isinstance(error, getattr(npstat, other))] == [
        base]


def test_exit_bases_are_distinct_value_errors():
    for base in [getattr(npstat, name) for name in EXIT_BASES]:
        assert base.__module__ == "npstat.base"
        assert base.__bases__ == (ValueError,)
    # A bare ZeroDivisionError is a defect, not degenerate input.
    assert not issubclass(ZeroDivisionError, npstat.DegenerateInput)


def test_every_export_is_its_submodules_object():
    wrong = [
        name for name in npstat.__all__
        if getattr(npstat, name)
        is not getattr(importlib.import_module(f"npstat.{npstat._SUBMODULE_OF[name]}"), name)
    ]
    assert wrong == []


def test_exports_are_listed_once():
    assert sorted(npstat._SUBMODULE_OF) == sorted(npstat.__all__)
    assert len(npstat.__all__) == len(set(npstat.__all__))


def test_dir_lists_every_export():
    assert set(npstat.__all__) <= set(dir(npstat))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from npstat import *", namespace)
    unbound = [name for name in npstat.__all__
               if namespace.get(name) is not getattr(npstat, name)]
    assert unbound == []


def test_submodules_are_attributes():
    assert npstat.corpus is importlib.import_module("npstat.corpus")
    assert npstat.report.render_rows is npstat.render_rows


def test_aliases_of_moved_names_are_gone():
    # Each name has one home module, and the package serves it from there.
    aliases = {"report": ["parse_records"], "stats": ["ratio_report", "ZeroDenominator"],
               "queries": ["ClauseContext", "GrammaticalPosition"]}
    for module, names in aliases.items():
        for name in names:
            assert not hasattr(importlib.import_module(f"npstat.{module}"), name), name
    for name in ("parse_records", "ratio_report", "ZeroDenominator"):
        assert getattr(npstat, name) is getattr(npstat.render, name)
    for name in ("ClauseContext", "GrammaticalPosition"):
        assert getattr(npstat, name) is getattr(npstat.givenness, name)
    for module in (npstat, npstat.treebank):
        with pytest.raises(AttributeError):
            module.is_punctuation
    assert not hasattr(npstat.AggregateCounts, "from_cells")
    for module in ("brackets", "cascade"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"npstat.{module}")


def test_moved_names_are_the_same_objects_where_they_were():
    assert npstat.ReportFormat is npstat.report.ReportFormat


def test_tree_and_bracketed_text_names_are_treebanks_own():
    # perfbench/traced.py imports parse_trees from npstat.treebank.
    for name in ("Internal", "Leaf", "NodeLabel", "TreebankSyntaxError", "parse_trees"):
        assert getattr(npstat.treebank, name).__module__ == "npstat.treebank", name


# The names npstat.queries defines, each family's and the shared.
QUERY_NAMES = [
    "ADVERBIAL_CATEGORIES", "AdverbialRecord", "EmptyInflectionSet", "FrameType",
    "LateClosureMatch", "NPOccurrence", "VERB_TAGS",
    "VerbFrameProfile", "extract_np_occurrences", "find_late_closure_configs",
    "profile_verb_frames", "survey_fronted_adverbials", "walk_np_occurrences",
]


def test_queries_package_keeps_its_surface():
    from npstat import queries

    assert queries.__all__ == QUERY_NAMES
    assert set(QUERY_NAMES) <= set(dir(queries))
    wrong = [
        name for name, family in queries._FAMILY_OF.items()
        if getattr(queries, name)
        is not getattr(importlib.import_module(f"npstat.queries.{family}"), name)
    ]
    assert wrong == []
    assert sorted([*queries._FAMILY_OF, "VERB_TAGS"]) == QUERY_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        queries.no_such_name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        npstat.no_such_name
    assert not hasattr(npstat, "no_such_name")


def test_table1_axes_are_defined_in_givenness():
    from npstat import givenness

    for name in ("ClauseContext", "GrammaticalPosition", "GivennessCategory"):
        assert getattr(givenness, name).__module__ == "npstat.givenness"


def test_readme_library_example_runs(capsys, fixture_corpus):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert 'CorpusSource("treebank/")' in code
    exec(code.replace('"treebank/"', repr(str(fixture_corpus))), {})
    assert capsys.readouterr().out.splitlines() == [
        "GrammaticalPosition.SUBJECT ClauseContext.MATRIX GivennessCategory.DEFINITE",
        "8.0 p<0.01",
    ]
