"""Command-line interface over the whole pipeline.

Subcommands::

    parse         per-file parse check (sentence counts, skip status)
    table1        givenness x position x context frequency table
    chisq         2x2 pronoun/indefinite chi-square (from corpus or --cells)
    late-closure  verb-final VP + immediately following NP configurations
    adverbials    fronted-adverbial survey with comma-delimitation rates
    verb          complement-frame profile for one verb lemma

Common behavior: --corpus defaults to $NPSTAT_CORPUS; --format selects
aligned text, TSV, or line-delimited JSON records.  Every corpus subcommand
reads the corpus in one serial pass through :func:`npstat.corpus.read_files`;
a file that fails to parse is skipped with one warning naming the first defect
in reading order.  Exit codes: 0 success, 1 every corpus file failed to parse
(then only ``parse`` writes to stdout), 2 missing/unusable input, 3 degenerate
statistics input, 4 configuration error, 70 internal error (a defect in npstat
itself).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import (
    AggregateCounts,
    CorpusSource,
    RootNotFound,
    aggregate_corpus,
    parsed_files,
    read_files,
)
from .givenness import (
    DEFAULT_CONFIG,
    ClassifierConfig,
    ClassifierConfigError,
    classify_np,
)
from .queries import (
    ClauseContext,
    EmptyInflectionSet,
    FrameType,
    find_late_closure_configs,
    profile_verb_frames,
    survey_fronted_adverbials,
)
from .report import ReportFormat, Table1Block, Table1Report, render_rows
from .stats import (
    ContingencyTable2x2,
    DegenerateMargin,
    ZeroDenominator,
    build_pronoun_indefinite_table,
    chi_square_2x2,
    ratio_report,
)
from .treebank import Tree

CORPUS_ENV_VAR = "NPSTAT_CORPUS"

EXIT_OK = 0
EXIT_ALL_FILES_FAILED = 1
EXIT_MISSING_INPUT = 2
EXIT_DEGENERATE_STATS = 3
EXIT_CONFIG_ERROR = 4
EXIT_INTERNAL_ERROR = 70  # EX_SOFTWARE

DEFAULT_VERB_LEXICON: dict[str, tuple[str, ...]] = {
    "return": ("return", "returns", "returned", "returning"),
    "realize": ("realize", "realizes", "realized", "realizing"),
    "disclose": ("disclose", "discloses", "disclosed", "disclosing"),
}

_CONTEXT_TOKENS = {
    "matrix": (ClauseContext.MATRIX,),
    "tc": (ClauseContext.EMBEDDED_TC,),
    "rc": (ClauseContext.EMBEDDED_RC,),
    "other": (ClauseContext.EMBEDDED_OTHER,),
    "all": tuple(ClauseContext),
}


class MissingInput(Exception):
    """No usable corpus/counts input for the requested command."""


class LexiconError(ValueError):
    """Malformed verb inflection lexicon file."""


def _context_set(text: str) -> frozenset[ClauseContext]:
    contexts: set[ClauseContext] = set()
    for token in text.replace(",", " ").split():
        if token not in _CONTEXT_TOKENS:
            raise argparse.ArgumentTypeError(
                f"unknown context {token!r} (choose from matrix, tc, rc, other, all)"
            )
        contexts.update(_CONTEXT_TOKENS[token])
    if not contexts:
        raise argparse.ArgumentTypeError("at least one context is required")
    return frozenset(contexts)


def _corpus_source(args: argparse.Namespace) -> CorpusSource:
    root = args.corpus or os.environ.get(CORPUS_ENV_VAR)
    if not root:
        raise MissingInput(
            f"no corpus directory: pass --corpus DIR or set ${CORPUS_ENV_VAR}"
        )
    return CorpusSource(root_path=Path(root), include_glob=args.glob)


def _classifier(args: argparse.Namespace) -> ClassifierConfig:
    path = getattr(args, "classifier_config", None)
    if path:
        return ClassifierConfig.from_file(path)
    return DEFAULT_CONFIG


def _load_lexicon(path: str) -> dict[str, tuple[str, ...]]:
    """Read ``lemma = form1 form2 ...`` lines; ``#`` starts a comment."""
    lexicon: dict[str, tuple[str, ...]] = {}
    try:
        content = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise LexiconError(f"cannot read lexicon {path}: {err}") from err
    for lineno, raw_line in enumerate(content.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LexiconError(f"{path}:{lineno}: expected 'lemma = forms...'")
        lemma, _, forms = line.partition("=")
        lexicon[lemma.strip()] = tuple(forms.split())
    return lexicon


def _all_files_failed(counts: AggregateCounts) -> bool:
    """True, after telling the user, when no file parsed and some were skipped."""
    if counts.files_skipped > 0 and counts.files_processed == 0:
        print("error: every corpus file failed to parse", file=sys.stderr)
        return True
    return False


def _sentences(
    args: argparse.Namespace, files: AggregateCounts
) -> Iterator[tuple[str, int, Tree]]:
    """Every (file_id, sentence index, tree) of the corpus, tallying ``files``."""
    for file_id, trees in parsed_files(_corpus_source(args), files):
        for idx, tree in enumerate(trees):
            yield file_id, idx, tree


# --- subcommand handlers -------------------------------------------------

def cmd_parse(args: argparse.Namespace) -> int:
    files = AggregateCounts()
    rows: list[list] = []
    for file_id, trees in read_files(_corpus_source(args)):
        if trees is None:
            files.files_skipped += 1
            rows.append([file_id, 0, "skipped"])
        else:
            files.files_processed += 1
            rows.append([file_id, len(trees), "ok"])
    print(render_rows(("file", "sentences", "status"), rows, args.format, "parse-file"))
    return EXIT_ALL_FILES_FAILED if _all_files_failed(files) else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    if args.from_counts is not None:
        block = Table1Block.from_counts(args.from_counts)
    else:
        agg = aggregate_corpus(_corpus_source(args), _classifier(args))
        if _all_files_failed(agg):
            return EXIT_ALL_FILES_FAILED
        label = Path(_corpus_source(args).root_path).name or "corpus"
        block = Table1Block.from_aggregate(agg, label=label)
    print(Table1Report(blocks=(block,)).render(args.format))
    return EXIT_OK


def _render_chisq(
    table: ContingencyTable2x2,
    fmt: ReportFormat,
    row_labels: tuple[str, str],
    col_labels: tuple[str, str],
) -> str:
    result = chi_square_2x2(table)
    cells = render_rows(
        ("row", *col_labels),
        [[row_labels[0], table.a, table.b], [row_labels[1], table.c, table.d]],
        fmt,
        "chisq-cell-row",
    )
    verdict = render_rows(
        ("statistic", "df", "significance"),
        [[round(result.statistic, 4), result.degrees_of_freedom,
          result.significance_band.value]],
        fmt,
        "chisq-result",
    )
    joiner = "\n" if fmt is ReportFormat.STRUCTURED_RECORDS else "\n\n"
    return cells + joiner + verdict


def cmd_chisq(args: argparse.Namespace) -> int:
    if args.cells is not None:
        a, b, c, d = args.cells
        table = ContingencyTable2x2(a, b, c, d)
        rendering = _render_chisq(table, args.format, ("row1", "row2"), ("col1", "col2"))
    else:
        agg = aggregate_corpus(_corpus_source(args), _classifier(args))
        if _all_files_failed(agg):
            return EXIT_ALL_FILES_FAILED
        table = build_pronoun_indefinite_table(agg, args.contexts)
        rendering = _render_chisq(
            table, args.format, ("pronoun", "indefinite"), ("subject", "non_subject")
        )
    print(rendering)
    return EXIT_OK


def cmd_late_closure(args: argparse.Namespace) -> int:
    config = _classifier(args)
    files = AggregateCounts()
    rows: list[list] = []
    for file_id, idx, tree in _sentences(args, files):
        for match in find_late_closure_configs(tree, file_id, idx):
            category = classify_np(match.critical_np, config)
            rows.append(
                [file_id, idx, match.final_verb.token,
                 match.critical_np.text(), category.value]
            )
    if _all_files_failed(files):
        return EXIT_ALL_FILES_FAILED
    print(
        render_rows(
            ("file", "sentence", "verb", "np", "givenness"),
            rows,
            args.format,
            "late-closure-match",
        )
    )
    return EXIT_OK


def cmd_adverbials(args: argparse.Namespace) -> int:
    columns = ("category", "fronted", "not_comma_delimited", "pct_not_delimited")
    if args.from_counts is not None:
        if len(args.from_counts) != 2:
            raise MissingInput("expected --from-counts NOT_DELIMITED TOTAL")
        not_delimited, total = args.from_counts
        rows = [["ALL", total, not_delimited, ratio_report(not_delimited, total)]]
        print(render_rows(columns, rows, args.format, "adverbial-row"))
        return EXIT_OK
    files = AggregateCounts()
    totals: Counter[str] = Counter()
    uncommaed: Counter[str] = Counter()
    for file_id, idx, tree in _sentences(args, files):
        for record in survey_fronted_adverbials(tree, file_id, idx):
            key = record.category if record.category in ("SBAR", "PP") else "other"
            totals[key] += 1
            if not record.comma_delimited:
                uncommaed[key] += 1
    if _all_files_failed(files):
        return EXIT_ALL_FILES_FAILED
    rows = []
    grand_total = sum(totals.values())
    if grand_total:
        grand_uncommaed = sum(uncommaed.values())
        rows.append(["ALL", grand_total, grand_uncommaed,
                     ratio_report(grand_uncommaed, grand_total)])
        for key in ("SBAR", "PP", "other"):
            if totals[key]:
                rows.append([key, totals[key], uncommaed[key],
                             ratio_report(uncommaed[key], totals[key])])
    print(render_rows(columns, rows, args.format, "adverbial-row"))
    return EXIT_OK


def cmd_verb(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon) if args.lexicon else DEFAULT_VERB_LEXICON
    inflections = lexicon.get(args.verb, ())
    if not inflections:
        raise EmptyInflectionSet(
            f"no inflections configured for {args.verb!r}; add it to the lexicon"
        )
    files = AggregateCounts()
    profile = profile_verb_frames(
        (tree for _, _, tree in _sentences(args, files)), args.verb, inflections
    )
    if _all_files_failed(files):
        return EXIT_ALL_FILES_FAILED
    rows: list[list] = [[frame.value, profile.counts[frame]] for frame in FrameType]
    rows.append(["total", profile.total])
    print(render_rows(("frame", "count"), rows, args.format, "verb-frame"))
    return EXIT_OK


# --- parser construction -------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, classifier: bool = False) -> None:
    sub.add_argument(
        "--format",
        choices=[f.value for f in ReportFormat],
        default=ReportFormat.ALIGNED_TEXT.value,
        help="output format (default: text)",
    )
    sub.add_argument(
        "--corpus", metavar="DIR",
        help=f"treebank directory (default: ${CORPUS_ENV_VAR})",
    )
    sub.add_argument(
        "--glob", default="*", metavar="PATTERN",
        help="filename pattern under the corpus root (default: *)",
    )
    if classifier:
        sub.add_argument(
            "--classifier-config", metavar="FILE",
            help="override the default givenness classifier configuration",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npstat",
        description="Structural NP queries, givenness classification and "
                    "contingency statistics over bracketed treebanks.",
    )
    parser.add_argument(
        "--dump-default-config", action="store_true",
        help="print the default classifier configuration and exit",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("parse", help="parse-check every corpus file")
    _add_common(p)
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("table1", help="givenness frequency table")
    _add_common(p, classifier=True)
    p.add_argument(
        "--from-counts", type=int, nargs=36, metavar="N",
        help="render from 36 explicit counts instead of a corpus: per "
             "givenness category (empty-category, pronoun, proper-name, "
             "definite, indefinite, not-classified) the six cells "
             "subj-TC subj-RC subj-matrix nonsubj-TC nonsubj-RC nonsubj-matrix",
    )
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser("chisq", help="pronoun/indefinite x subject/non-subject chi-square")
    _add_common(p, classifier=True)
    p.add_argument(
        "--cells", type=int, nargs=4, metavar=("A", "B", "C", "D"),
        help="test an explicit 2x2 table (row-major) instead of a corpus",
    )
    p.add_argument(
        "--contexts", type=_context_set, default=frozenset(ClauseContext),
        metavar="LIST",
        help="comma-separated clause contexts to pool: matrix, tc, rc, other, all "
             "(default: all)",
    )
    p.set_defaults(handler=cmd_chisq)

    p = sub.add_parser("late-closure", help="list verb-final-VP + following-NP configurations")
    _add_common(p, classifier=True)
    p.set_defaults(handler=cmd_late_closure)

    p = sub.add_parser("adverbials", help="fronted-adverbial comma survey")
    _add_common(p)
    p.add_argument(
        "--from-counts", type=int, nargs=2, metavar=("NOT_DELIMITED", "TOTAL"),
        help="compute the percentage from explicit counts instead of a corpus",
    )
    p.set_defaults(handler=cmd_adverbials)

    p = sub.add_parser("verb", help="complement-frame profile for a verb lemma")
    _add_common(p)
    p.add_argument("--verb", required=True, metavar="LEMMA", help="lemma to profile")
    p.add_argument(
        "--lexicon", metavar="FILE",
        help="inflection lexicon ('lemma = form ...' lines; default covers "
             + ", ".join(sorted(DEFAULT_VERB_LEXICON)),
    )
    p.set_defaults(handler=cmd_verb)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handled --help or a usage error
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_MISSING_INPUT

    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")

    if args.dump_default_config:
        print(DEFAULT_CONFIG.dump())
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return EXIT_MISSING_INPUT

    if isinstance(getattr(args, "format", None), str):
        args.format = ReportFormat(args.format)
    try:
        return args.handler(args)
    except RootNotFound as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except MissingInput as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (DegenerateMargin, ZeroDenominator) as err:
        print(f"error: degenerate statistics input: {err}", file=sys.stderr)
        return EXIT_DEGENERATE_STATS
    except (ClassifierConfigError, EmptyInflectionSet, LexiconError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValueError as err:  # bad explicit counts, malformed cells, ...
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as err:  # a defect in npstat, not in its input
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
