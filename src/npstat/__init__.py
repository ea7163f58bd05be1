"""Structural NP queries, givenness classification and contingency statistics
over bracketed constituency treebanks.

The package splits into six layers:

* :mod:`npstat.treebank`  — bracketed-tree parser, serializer;
* :mod:`npstat.queries`   — structural queries: subject/non-subject NPs,
  clause contexts, verb-final local ambiguities, fronted adverbials,
  verb complement frames;
* :mod:`npstat.givenness` — six-way form-based NP classification;
* :mod:`npstat.stats`     — 2x2 Pearson chi-square and percentage helpers;
* :mod:`npstat.corpus`    — directory ingestion and mergeable aggregation;
* :mod:`npstat.report`    — text/TSV/JSON-records rendering and the
  frequency-table report; :mod:`npstat.cli` wires it all together.
"""

from .treebank import (
    EMPTY_POS,
    PUNCTUATION_TAGS,
    EmptyConstituent,
    Internal,
    Leaf,
    NodeLabel,
    SourceSpan,
    Tree,
    TreebankSyntaxError,
    UnbalancedBrackets,
    is_empty_category,
    is_punctuation,
    parse_trees,
    serialize_tree,
)
from .queries import (
    ADVERBIAL_CATEGORIES,
    VERB_TAGS,
    AdverbialRecord,
    ClauseContext,
    EmptyInflectionSet,
    FrameType,
    GrammaticalPosition,
    LateClosureMatch,
    NPOccurrence,
    SubjectTagCrosscheck,
    VerbFrameProfile,
    crosscheck_subject_tags,
    extract_np_occurrences,
    find_late_closure_configs,
    profile_verb_frames,
    survey_fronted_adverbials,
)
from .givenness import (
    DEFAULT_CONFIG,
    ClassifierConfig,
    ClassifierConfigError,
    GivennessCategory,
    NotAnNP,
    classify_np,
)
from .stats import (
    ChiSquareResult,
    ContingencyTable2x2,
    DegenerateMargin,
    SignificanceBand,
    ZeroDenominator,
    build_pronoun_indefinite_table,
    chi_square_2x2,
    ratio_report,
)
from .corpus import (
    AggregateCounts,
    CorpusSource,
    RootNotFound,
    aggregate,
    aggregate_corpus,
    corpus_files,
    ingest,
    merge,
    read_files,
)
from .report import (
    ReportFormat,
    Table1Block,
    Table1Report,
    Table1Row,
    parse_records,
    render_rows,
)

__version__ = "0.1.0"

__all__ = [
    "ADVERBIAL_CATEGORIES",
    "AdverbialRecord",
    "AggregateCounts",
    "ChiSquareResult",
    "ClassifierConfig",
    "ClassifierConfigError",
    "ClauseContext",
    "ContingencyTable2x2",
    "CorpusSource",
    "DEFAULT_CONFIG",
    "DegenerateMargin",
    "EMPTY_POS",
    "EmptyConstituent",
    "EmptyInflectionSet",
    "FrameType",
    "GivennessCategory",
    "GrammaticalPosition",
    "Internal",
    "LateClosureMatch",
    "Leaf",
    "NodeLabel",
    "NotAnNP",
    "NPOccurrence",
    "PUNCTUATION_TAGS",
    "ReportFormat",
    "RootNotFound",
    "SignificanceBand",
    "SourceSpan",
    "SubjectTagCrosscheck",
    "Table1Block",
    "Table1Report",
    "Table1Row",
    "Tree",
    "TreebankSyntaxError",
    "UnbalancedBrackets",
    "VERB_TAGS",
    "VerbFrameProfile",
    "ZeroDenominator",
    "aggregate",
    "aggregate_corpus",
    "build_pronoun_indefinite_table",
    "chi_square_2x2",
    "classify_np",
    "corpus_files",
    "crosscheck_subject_tags",
    "extract_np_occurrences",
    "find_late_closure_configs",
    "ingest",
    "is_empty_category",
    "is_punctuation",
    "merge",
    "parse_records",
    "parse_trees",
    "profile_verb_frames",
    "ratio_report",
    "read_files",
    "render_rows",
    "serialize_tree",
    "survey_fronted_adverbials",
]
