"""Structural NP queries, givenness classification and contingency statistics
over bracketed constituency treebanks.

The package splits into seven layers:

* :mod:`npstat.treebank`  — bracketed-tree parser, serializer;
* :mod:`npstat.queries`   — structural queries, one module per family:
  subject/non-subject NPs and their clause contexts (``occurrences``),
  verb-final local ambiguities (``late_closure``), fronted adverbials
  (``adverbials``), verb complement frames (``frames``);
* :mod:`npstat.givenness` — six-way form-based NP classification, and the
  grammatical position and clause context enums: the three axes of Table 1;
* :mod:`npstat.stats`     — 2x2 Pearson chi-square;
* :mod:`npstat.corpus`    — directory ingestion and mergeable aggregation;
* :mod:`npstat.render`    — text/TSV/JSON-records row rendering and the
  percentage helper;
* :mod:`npstat.report`    — the frequency-table report; :mod:`npstat.cli`
  wires it all together.

Every name in ``__all__`` is re-exported here, but ``import npstat`` alone
imports no submodule: a name's submodule is imported the first time the name
(or the submodule, as ``npstat.corpus``) is looked up on the package.  So a
caller, the command line included, pays only for the layers it uses.
"""

from importlib import import_module

# Submodule -> the names it exports; each is imported on first access.
_EXPORTS = {
    "treebank": (
        "EMPTY_POS", "PUNCTUATION_TAGS", "ConfigError", "DegenerateInput",
        "EmptyConstituent", "InputError", "Internal", "Leaf", "NodeLabel",
        "ReportFormat", "SourceSpan", "Tree", "TreebankSyntaxError",
        "UnbalancedBrackets", "is_empty_category", "is_punctuation",
        "parse_trees", "serialize_tree",
    ),
    "queries": (
        "ADVERBIAL_CATEGORIES", "VERB_TAGS", "AdverbialRecord",
        "EmptyInflectionSet", "FrameType", "LateClosureMatch", "NPOccurrence",
        "VerbFrameProfile", "extract_np_occurrences",
        "find_late_closure_configs", "profile_verb_frames",
        "survey_fronted_adverbials",
    ),
    "givenness": (
        "DEFAULT_CONFIG", "ClassifierConfig", "ClassifierConfigError",
        "ClauseContext", "GivennessCategory", "GrammaticalPosition", "NotAnNP",
        "classify_np",
    ),
    "stats": (
        "ChiSquareResult", "ContingencyTable2x2", "DegenerateMargin",
        "SignificanceBand", "build_pronoun_indefinite_table", "chi_square_2x2",
    ),
    "corpus": (
        "AggregateCounts", "CorpusSource", "RootNotFound", "aggregate",
        "aggregate_corpus", "corpus_files", "merge", "read_files",
    ),
    "render": (
        "ZeroDenominator", "parse_records", "ratio_report", "render_rows",
    ),
    "report": ("Table1Block", "Table1Report", "Table1Row"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
