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
:class:`~npstat.base.InputError`), 3 degenerate statistics input (a
``DegenerateInput``), 4 configuration error (a ``ConfigError``: also a config or
lexicon file that cannot be read or decoded, or a lemma it lacks, which ``verb``
checks after the corpus), 70 any other exception, ``ValueError`` included: a
defect in npstat itself, 141 stdout was closed before the output was written
(e.g. piped into ``head``, or fd 1 closed at start): no error line then, though
skip warnings and exit 1's line may be on stderr already.  :func:`run` escapes
what stdout cannot encode.

Each command is a fresh process, so start-up is paid on every run.  This module
imports at the top only what building the argument parser and
``--dump-default-config`` need (:mod:`npstat.givenness` and :mod:`npstat.base`,
which load neither the node model nor the classifier's rule cascade).  The
subcommand handlers are in :mod:`npstat.commands`, which :func:`main` imports
only when it runs a subcommand, and each handler imports the layers it runs.
The handlers import nothing from this module, so ``python -m npstat.cli``, which
runs it as ``__main__``, runs it once.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Sequence

from .base import (CORPUS_ENV_VAR, DEFAULT_VERB_LEXICON, ConfigError, DegenerateInput,
                   EveryFileFailed, InputError, ReportFormat)
from .givenness import DEFAULT_CONFIG, ClauseContext

EXIT_OK = 0
EXIT_ALL_FILES_FAILED = 1
EXIT_MISSING_INPUT = 2
EXIT_DEGENERATE_STATS = 3
EXIT_CONFIG_ERROR = 4
EXIT_INTERNAL_ERROR = 70  # EX_SOFTWARE
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# --contexts token -> the clause contexts it selects; "all" pools every context.
_CONTEXT_TOKENS = {
    "matrix": (ClauseContext.MATRIX,),
    "tc": (ClauseContext.EMBEDDED_TC,),
    "rc": (ClauseContext.EMBEDDED_RC,),
    "other": (ClauseContext.EMBEDDED_OTHER,),
    "all": tuple(ClauseContext),
}


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

    p = sub.add_parser("table1", help="givenness frequency table")
    _add_common(p, classifier=True)
    p.add_argument(
        "--from-counts", type=int, nargs=36, metavar="N",
        help="render from 36 explicit counts instead of a corpus: per "
             "givenness category (empty-category, pronoun, proper-name, "
             "definite, indefinite, not-classified) the six cells "
             "subj-TC subj-RC subj-matrix nonsubj-TC nonsubj-RC nonsubj-matrix",
    )

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

    p = sub.add_parser("late-closure", help="list verb-final-VP + following-NP configurations")
    _add_common(p, classifier=True)

    p = sub.add_parser("adverbials", help="fronted-adverbial comma survey")
    _add_common(p)
    p.add_argument(
        "--from-counts", type=int, nargs=2, metavar=("NOT_DELIMITED", "TOTAL"),
        help="compute the percentage from explicit counts instead of a corpus",
    )

    p = sub.add_parser("verb", help="complement-frame profile for a verb lemma")
    _add_common(p)
    p.add_argument("--verb", required=True, metavar="LEMMA", help="lemma to profile")
    p.add_argument(
        "--lexicon", metavar="FILE",
        help="inflection lexicon ('lemma = form ...' lines; default covers "
             + ", ".join(sorted(DEFAULT_VERB_LEXICON)),
    )

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
                from . import commands

                getattr(commands, "cmd_" + args.command.replace("-", "_"))(args)
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
