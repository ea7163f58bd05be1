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
a file that cannot be read or fails to parse is skipped with one warning
giving the reason (for a parse failure, the first defect in reading order), and
a corpus in which no file matches ``--glob`` gets one warning too.
Handlers return nothing: :func:`main` sets every exit code from the exception
a command raises.  The reader raises :class:`EveryFileFailed` once it has read
the last file, if files were listed and none parsed.
Exit codes: 0 success, 1 every corpus file failed to parse (then only
``parse`` writes to stdout), 2 missing/unusable input (a usage error or an
:class:`~npstat.treebank.InputError`), 3 degenerate statistics input (a
``DegenerateInput``), 4 configuration error (a ``ConfigError``: also a config or
lexicon file that cannot be read or decoded, or a lemma it lacks, which ``verb``
checks after the corpus), 70 any other exception, ``ValueError`` included: a
defect in npstat itself, 141 stdout was closed before the output was written
(e.g. piped into ``head``, or fd 1 closed at start): no error line then, though
skip warnings and exit 1's line may be on stderr already.  :func:`run` escapes
what stdout cannot encode.

Each command is a fresh process, so start-up is paid on every run.  This module
imports at the top only what building the argument parser and
``--dump-default-config`` need (:mod:`npstat.givenness` and
:mod:`npstat.treebank`); each handler imports the layers it runs.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from .givenness import (
    DEFAULT_CONFIG,
    ClassifierConfig,
    ClauseContext,
    classify_overt,
    read_key_items,
)
from .treebank import EMPTY_POS, ConfigError, DegenerateInput, InputError, ReportFormat

if TYPE_CHECKING:
    from .corpus import AggregateCounts, CorpusSource, FileResult
    from .stats import ContingencyTable2x2
    from .treebank import Leaf, Tree

CORPUS_ENV_VAR = "NPSTAT_CORPUS"

EXIT_OK = 0
EXIT_ALL_FILES_FAILED = 1
EXIT_MISSING_INPUT = 2
EXIT_DEGENERATE_STATS = 3
EXIT_CONFIG_ERROR = 4
EXIT_INTERNAL_ERROR = 70  # EX_SOFTWARE
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

DEFAULT_VERB_LEXICON: dict[str, tuple[str, ...]] = {
    "return": ("return", "returns", "returned", "returning"),
    "realize": ("realize", "realizes", "realized", "realizing"),
    "disclose": ("disclose", "discloses", "disclosed", "disclosing"),
}

# --contexts token -> the clause contexts it selects; "all" pools every context.
_CONTEXT_TOKENS = {
    "matrix": (ClauseContext.MATRIX,),
    "tc": (ClauseContext.EMBEDDED_TC,),
    "rc": (ClauseContext.EMBEDDED_RC,),
    "other": (ClauseContext.EMBEDDED_OTHER,),
    "all": tuple(ClauseContext),
}


class EveryFileFailed(Exception):
    """Corpus files were listed and none of them parsed."""


def _context_set(text: str) -> frozenset[ClauseContext]:
    contexts: set[ClauseContext] = set()
    for token in text.replace(",", " ").split():
        if token not in _CONTEXT_TOKENS:
            raise argparse.ArgumentTypeError(
                f"unknown context {token!r} (choose from {', '.join(_CONTEXT_TOKENS)})"
            )
        contexts.update(_CONTEXT_TOKENS[token])
    if not contexts:
        raise argparse.ArgumentTypeError("at least one context is required")
    return frozenset(contexts)


def _corpus_source(args: argparse.Namespace) -> CorpusSource:
    from .corpus import CorpusSource

    root = args.corpus or os.environ.get(CORPUS_ENV_VAR)
    if not root:
        raise InputError(
            f"no corpus directory: pass --corpus DIR or set ${CORPUS_ENV_VAR}"
        )
    return CorpusSource(root_path=Path(root), include_glob=args.glob)


def _classifier(args: argparse.Namespace) -> ClassifierConfig:
    path = getattr(args, "classifier_config", None)
    if path:
        return ClassifierConfig.from_file(path)
    return DEFAULT_CONFIG


def _read_corpus(source: CorpusSource) -> Iterator[FileResult]:
    """:func:`npstat.corpus.read_files`, telling the user which files were
    skipped and why, or that no file matched.  Once the stream is exhausted,
    it raises :class:`EveryFileFailed` if files were listed and none parsed."""
    from .corpus import read_files

    listed = parsed = False
    for file_id, trees, reason in read_files(source):
        listed = True
        if reason is None:
            parsed = True
        else:
            print(f"WARNING: skipping {file_id}: {reason}", file=sys.stderr)
        yield file_id, trees, reason
    if not listed:
        print(f"warning: no file under {source.root_path} matches --glob "
              f"{source.include_glob!r}", file=sys.stderr)
    elif not parsed:
        raise EveryFileFailed("every corpus file failed to parse")


def _sentences(source: CorpusSource) -> Iterator[tuple[str, int, Tree]]:
    """Every (file_id, sentence index, tree) of the corpus files that parsed."""
    for file_id, trees, _ in _read_corpus(source):
        for idx, tree in enumerate(trees or ()):
            yield file_id, idx, tree


def _aggregate(source: CorpusSource, config: ClassifierConfig) -> AggregateCounts:
    """Table 1's cells over the corpus files that parsed."""
    from .corpus import aggregate

    return aggregate(((file_id, tree) for file_id, _, tree in _sentences(source)), config)


# --- subcommand handlers -------------------------------------------------

def cmd_parse(args: argparse.Namespace) -> None:
    from .render import render_rows

    rows: list[list] = []
    failed: EveryFileFailed | None = None
    try:
        for file_id, trees, _ in _read_corpus(_corpus_source(args)):
            rows.append([file_id, 0, "skipped"] if trees is None
                        else [file_id, len(trees), "ok"])
    except EveryFileFailed as err:
        failed = err  # the rows, which name every skipped file, still print
    print(render_rows(("file", "sentences", "status"), rows, args.format, "parse-file"))
    if failed:
        raise failed


def cmd_table1(args: argparse.Namespace) -> None:
    from .report import Table1Block, Table1Report

    if args.from_counts is not None:
        block = Table1Block.from_counts(args.from_counts)
    else:
        source = _corpus_source(args)
        agg = _aggregate(source, _classifier(args))
        block = Table1Block.from_aggregate(agg, label=source.root_path.name or "corpus")
    print(Table1Report(blocks=(block,)).render(args.format))


def _render_chisq(
    table: ContingencyTable2x2,
    fmt: ReportFormat,
    row_labels: tuple[str, str],
    col_labels: tuple[str, str],
) -> str:
    from .render import render_rows
    from .stats import chi_square_2x2

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


def cmd_chisq(args: argparse.Namespace) -> None:
    from .stats import ContingencyTable2x2, build_pronoun_indefinite_table

    if args.cells is not None:
        a, b, c, d = args.cells
        table = ContingencyTable2x2(a, b, c, d)
        rendering = _render_chisq(table, args.format, ("row1", "row2"), ("col1", "col2"))
    else:
        agg = _aggregate(_corpus_source(args), _classifier(args))
        table = build_pronoun_indefinite_table(agg, args.contexts)
        rendering = _render_chisq(
            table, args.format, ("pronoun", "indefinite"), ("subject", "non_subject")
        )
    print(rendering)


def cmd_late_closure(args: argparse.Namespace) -> None:
    from .queries import walk_late_closure
    from .render import render_rows

    config = _classifier(args)
    rows: list[list] = []
    for file_id, idx, tree in _sentences(_corpus_source(args)):
        leaves: list[Leaf] = []
        for _, verb, np, start, end in walk_late_closure(tree, leaves):
            # Only -NONE- leaves lie between the verb and the NP's first overt
            # leaf, so these are exactly the NP's overt leaves.
            overt = [l for l in leaves[start + 1:end] if l.pos != EMPTY_POS]
            rows.append([file_id, idx, verb.token, " ".join(l.token for l in overt),
                         classify_overt(np, overt, config).value])
    print(
        render_rows(
            ("file", "sentence", "verb", "np", "givenness"),
            rows,
            args.format,
            "late-closure-match",
        )
    )


def cmd_adverbials(args: argparse.Namespace) -> None:
    from .render import ratio_report, render_rows

    columns = ("category", "fronted", "not_comma_delimited", "pct_not_delimited")
    if args.from_counts is not None:
        not_delimited, total = args.from_counts
        if not_delimited < 0 or total < 0:
            raise InputError("counts must be non-negative")
        if not_delimited > total:
            raise InputError(f"NOT_DELIMITED ({not_delimited}) exceeds TOTAL ({total})")
        rows = [["ALL", total, not_delimited, ratio_report(not_delimited, total)]]
        print(render_rows(columns, rows, args.format, "adverbial-row"))
        return
    from .queries import survey_fronted_adverbials

    totals: Counter[str] = Counter()
    uncommaed: Counter[str] = Counter()
    for file_id, idx, tree in _sentences(_corpus_source(args)):
        for record in survey_fronted_adverbials(tree, file_id, idx):
            key = record.category if record.category in ("SBAR", "PP") else "other"
            totals[key] += 1
            if not record.comma_delimited:
                uncommaed[key] += 1
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


def cmd_verb(args: argparse.Namespace) -> None:
    from .queries import FrameType, profile_verb_frames
    from .render import render_rows

    lexicon = DEFAULT_VERB_LEXICON
    if args.lexicon:
        lexicon = {lemma: tuple(forms) for _, lemma, forms in read_key_items(
            args.lexicon, "lexicon", "lemma = forms...", ConfigError)}
    # The corpus is checked first, then the lemma, before any file is read.
    profile = profile_verb_frames(
        (tree for _, _, tree in _sentences(_corpus_source(args))), args.verb,
        lexicon.get(args.verb, ()),
    )
    rows: list[list] = [[frame.value, profile.counts[frame]] for frame in FrameType]
    rows.append(["total", profile.total])
    print(render_rows(("frame", "count"), rows, args.format, "verb-frame"))


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
        "--contexts", type=_context_set, metavar="LIST",
        help=f"comma-separated clause contexts to pool: {', '.join(_CONTEXT_TOKENS)} "
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

    if not (args.dump_default_config or getattr(args, "command", None)):
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return EXIT_MISSING_INPUT

    if isinstance(getattr(args, "format", None), str):
        args.format = ReportFormat(args.format)
    try:
        code = EXIT_OK
        try:
            if args.dump_default_config:
                print(DEFAULT_CONFIG.dump())
            else:
                args.handler(args)
        except EveryFileFailed as err:  # parse has printed its rows
            print(f"error: {err}", file=sys.stderr)
            code = EXIT_ALL_FILES_FAILED
        if sys.stdout is None:  # started with fd 1 closed: print wrote nothing
            return EXIT_BROKEN_PIPE
        sys.stdout.flush()  # buffered output meets a closed pipe here
        return code
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # exit cannot fail again, and exit as if killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DegenerateInput as err:
        print(f"error: degenerate statistics input: {err}", file=sys.stderr)
        return EXIT_DEGENERATE_STATS
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as err:  # a defect in npstat, not in its input
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def run() -> None:
    """Entry point of the ``npstat`` command and of ``python -m npstat.cli``."""
    # Trees hold no reference cycles, so reference counting frees them, and a
    # command leaves the same small amount of cyclic garbage (its argument
    # parser) however large the corpus.  The cyclic collector would only
    # rescan live trees, during the run and once more over every object at
    # exit; freezing moves what is left out of the exit sweep.  ``main`` keeps
    # the caller's GC state, so tests and library callers are unaffected.
    gc.disable()
    # Where stdout would fail on a character its encoding cannot hold, write an
    # escape instead, as on stderr.  Python's surrogateescape, which writes an
    # undecodable file-name byte back as it was, stays; stdout is None if the
    # command starts with file descriptor 1 closed.
    if getattr(sys.stdout, "errors", None) == "strict":
        sys.stdout.reconfigure(errors="backslashreplace")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
