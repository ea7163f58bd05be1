"""Subcommand handlers of the ``npstat`` command and the corpus reading they
share.  :func:`npstat.cli.main` imports this module only to run a subcommand,
whose handler is named after it (``cmd_late_closure`` for ``late-closure``),
and each handler imports the layers it runs.

A count-only mode (``table1 --from-counts``, ``chisq --cells``, ``adverbials
--from-counts``) fills what its corpus mode computes from the trees, and both
render through the same code.  ``table1``, ``chisq``, ``adverbials`` and
``verb`` fold the bare trees of :func:`_trees`; only ``late-closure``, which
prints file ids and sentence indices, enumerates :func:`_read_corpus` itself,
and prints each :func:`~npstat.queries.find_late_closure_configs` match's NP
by ``Tree.text`` and :func:`~npstat.givenness.classify_np`.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Iterator

from .base import (CORPUS_ENV_VAR, DEFAULT_VERB_LEXICON, ConfigError, EveryFileFailed,
                   InputError, ReportFormat)
from .givenness import DEFAULT_CONFIG, ClassifierConfig, classify_np, read_key_items

if TYPE_CHECKING:
    from .corpus import CorpusSource, FileResult
    from .treebank import Tree


def _corpus_source(args: argparse.Namespace) -> CorpusSource:
    from pathlib import Path

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


def _trees(source: CorpusSource) -> Iterator[Tree]:
    """The trees of the corpus files that parsed, in reading order."""
    for _, trees, _ in _read_corpus(source):
        yield from trees or ()


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
        from .corpus import aggregate

        source = _corpus_source(args)
        agg = aggregate(_trees(source), _classifier(args))
        name = source.root_path.name  # "" for ".", ".." for "sub/..": no directory's name
        block = Table1Block.from_aggregate(agg, label="corpus" if name in ("", "..") else name)
    print(Table1Report(blocks=(block,)).render(args.format))


def cmd_chisq(args: argparse.Namespace) -> None:
    from .render import render_rows
    from .stats import ContingencyTable2x2, build_pronoun_indefinite_table, chi_square_2x2

    if args.cells is not None:
        table = ContingencyTable2x2(*args.cells)
        row_labels, col_labels = ("row1", "row2"), ("col1", "col2")
    else:
        from .corpus import aggregate

        agg = aggregate(_trees(_corpus_source(args)), _classifier(args))
        table = build_pronoun_indefinite_table(agg, args.contexts)
        row_labels, col_labels = ("pronoun", "indefinite"), ("subject", "non_subject")
    result = chi_square_2x2(table)
    cells = render_rows(
        ("row", *col_labels),
        [[row_labels[0], table.a, table.b], [row_labels[1], table.c, table.d]],
        args.format,
        "chisq-cell-row",
    )
    verdict = render_rows(
        ("statistic", "df", "significance"),
        [[round(result.statistic, 4), result.degrees_of_freedom,
          result.significance_band.value]],
        args.format,
        "chisq-result",
    )
    print(cells, verdict, sep="\n" if args.format is ReportFormat.STRUCTURED_RECORDS else "\n\n")


def cmd_late_closure(args: argparse.Namespace) -> None:
    from .queries import find_late_closure_configs
    from .render import render_rows

    config = _classifier(args)
    rows: list[list] = []
    for file_id, trees, _ in _read_corpus(_corpus_source(args)):
        for idx, tree in enumerate(trees or ()):
            for m in find_late_closure_configs(tree, file_id, idx):
                rows.append([file_id, idx, m.final_verb.token, m.critical_np.text(),
                             classify_np(m.critical_np, config).value])
    print(render_rows(("file", "sentence", "verb", "np", "givenness"), rows, args.format,
                      "late-closure-match"))


def cmd_adverbials(args: argparse.Namespace) -> None:
    from .render import ratio_report, render_rows

    # Per key: the fronted adverbials, and those not comma-delimited.
    totals: Counter[str] = Counter()
    uncommaed: Counter[str] = Counter()
    if args.from_counts is not None:
        not_delimited, total = args.from_counts
        if not_delimited < 0 or total < 0:
            raise InputError("counts must be non-negative")
        if not_delimited > total:
            raise InputError(f"NOT_DELIMITED ({not_delimited}) exceeds TOTAL ({total})")
        totals["ALL"], uncommaed["ALL"] = total, not_delimited
        keys: tuple[str, ...] = ("ALL",)  # printed even when empty, which exits 3
    else:
        from .queries import survey_fronted_adverbials

        for tree in _trees(_corpus_source(args)):
            for record in survey_fronted_adverbials(tree):
                key = record.category if record.category in ("SBAR", "PP") else "other"
                totals[key] += 1
                if not record.comma_delimited:
                    uncommaed[key] += 1
        totals["ALL"], uncommaed["ALL"] = sum(totals.values()), sum(uncommaed.values())
        keys = tuple(key for key in ("ALL", "SBAR", "PP", "other") if totals[key])
    rows = [[key, totals[key], uncommaed[key], ratio_report(uncommaed[key], totals[key])]
            for key in keys]
    print(render_rows(("category", "fronted", "not_comma_delimited", "pct_not_delimited"),
                      rows, args.format, "adverbial-row"))


def cmd_verb(args: argparse.Namespace) -> None:
    from .queries import FrameType, profile_verb_frames
    from .render import render_rows

    lexicon = DEFAULT_VERB_LEXICON
    if args.lexicon:
        lexicon = {lemma: tuple(forms) for _, lemma, forms in read_key_items(
            args.lexicon, "lexicon", "lemma = forms...", ConfigError)}
    # The corpus is checked first, then the lemma, before any file is read.
    profile = profile_verb_frames(_trees(_corpus_source(args)), args.verb,
                                  lexicon.get(args.verb, ()))
    rows: list[list] = [[frame.value, profile.counts[frame]] for frame in FrameType]
    rows.append(["total", profile.total])
    print(render_rows(("frame", "count"), rows, args.format, "verb-frame"))
