"""Directory ingestion and corpus-level aggregation.

:func:`read_files` is the one ingestion path: it visits files in lexicographic
path order and parses each one.  A file that fails to decode or parse is
reported through logging with one warning, which names the first defect in
reading order, and skipped; the run continues.  Counts accumulate into
:class:`AggregateCounts`, a dense
(givenness category x grammatical position x clause context) table whose
``merge`` is associative and commutative, so any partition of the corpus
combines to the same result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .givenness import ClassifierConfig, DEFAULT_CONFIG, GivennessCategory, classify_np
from .queries import ClauseContext, GrammaticalPosition, extract_np_occurrences
from .treebank import Tree, TreebankSyntaxError, parse_trees

log = logging.getLogger(__name__)

CellKey = tuple[GivennessCategory, GrammaticalPosition, ClauseContext]


class RootNotFound(FileNotFoundError):
    pass


@dataclass(frozen=True)
class CorpusSource:
    root_path: Path
    include_glob: str = "*"


def _all_cell_keys() -> list[CellKey]:
    return [
        (cat, pos, ctx)
        for cat in GivennessCategory
        for pos in GrammaticalPosition
        for ctx in ClauseContext
    ]


def _zero_cells() -> dict[CellKey, int]:
    return {key: 0 for key in _all_cell_keys()}


@dataclass
class AggregateCounts:
    """Dense occurrence counts plus ingestion counters."""

    cells: dict[CellKey, int] = field(default_factory=_zero_cells)
    files_processed: int = 0
    sentences_processed: int = 0
    files_skipped: int = 0

    def cell(self, category: GivennessCategory, position: GrammaticalPosition,
             context: ClauseContext) -> int:
        return self.cells[(category, position, context)]

    def increment(self, category: GivennessCategory, position: GrammaticalPosition,
                  context: ClauseContext, by: int = 1) -> None:
        self.cells[(category, position, context)] += by

    def total(self) -> int:
        return sum(self.cells.values())

    @classmethod
    def from_cells(cls, cells: dict[CellKey, int]) -> "AggregateCounts":
        agg = cls()
        for key, value in cells.items():
            agg.cells[key] += value
        return agg


def merge(x: AggregateCounts, y: AggregateCounts) -> AggregateCounts:
    """Cell-wise and counter-wise sum; identity element is AggregateCounts()."""
    out = AggregateCounts()
    for key in out.cells:
        out.cells[key] = x.cells[key] + y.cells[key]
    out.files_processed = x.files_processed + y.files_processed
    out.sentences_processed = x.sentences_processed + y.sentences_processed
    out.files_skipped = x.files_skipped + y.files_skipped
    return out


def corpus_files(source: CorpusSource) -> list[Path]:
    """All matching files under the root, lexicographic by relative path."""
    root = Path(source.root_path)
    if not root.is_dir():
        raise RootNotFound(f"corpus root {root} does not exist")
    files = [p for p in root.rglob(source.include_glob) if p.is_file()]
    return sorted(files, key=lambda p: p.relative_to(root).as_posix())


def _read_trees(path: Path, file_id: str) -> list[Tree] | None:
    try:
        return parse_trees(path.read_text(encoding="utf-8"))
    except (TreebankSyntaxError, UnicodeDecodeError) as err:
        log.warning("skipping %s: %s", file_id, err)
        return None


def read_files(source: CorpusSource) -> Iterator[tuple[str, list[Tree] | None]]:
    """Parse every corpus file in order: ``(file_id, trees)`` pairs.

    ``file_id`` is the path relative to the corpus root.  ``trees`` is None
    for a file that failed to decode or parse; it gets one ``skipping`` warning.
    Raises :class:`RootNotFound` when called, not when first iterated.
    """
    root = Path(source.root_path)
    file_ids = [path.relative_to(root).as_posix() for path in corpus_files(source)]
    return ((file_id, _read_trees(root / file_id, file_id)) for file_id in file_ids)


def parsed_files(
    source: CorpusSource, files: AggregateCounts
) -> Iterator[tuple[str, list[Tree]]]:
    """The files of :func:`read_files` that parsed, tallied in ``files``.

    Each parsed file adds one to ``files.files_processed``, each skipped one
    to ``files.files_skipped``.
    """
    for file_id, trees in read_files(source):
        if trees is None:
            files.files_skipped += 1
        else:
            files.files_processed += 1
            yield file_id, trees


def ingest(source: CorpusSource) -> Iterator[tuple[str, Tree]]:
    """Open a corpus directory as a stream of (file_id, tree) pairs."""
    return (
        (file_id, tree)
        for file_id, trees in read_files(source) if trees is not None
        for tree in trees
    )


def aggregate(
    stream: Iterable[tuple[str, Tree]], config: ClassifierConfig = DEFAULT_CONFIG
) -> AggregateCounts:
    """Run extraction + classification over a stream and tally every cell.

    Sentence indices restart at 0 for each file_id, matching the order the
    stream delivers a file's sentences.
    """
    agg = AggregateCounts()
    next_index: dict[str, int] = {}
    for file_id, tree in stream:
        sentence_index = next_index.get(file_id, 0)
        next_index[file_id] = sentence_index + 1
        for occ in extract_np_occurrences(tree, file_id, sentence_index):
            agg.increment(classify_np(occ.node, config), occ.position, occ.context)
        agg.sentences_processed += 1
    return agg


def aggregate_corpus(
    source: CorpusSource, config: ClassifierConfig = DEFAULT_CONFIG
) -> AggregateCounts:
    """Aggregate a whole corpus in one fold, counting processed and skipped files."""
    files = AggregateCounts()
    total = aggregate(
        ((file_id, tree) for file_id, trees in parsed_files(source, files) for tree in trees),
        config,
    )
    total.files_processed = files.files_processed
    total.files_skipped = files.files_skipped
    return total
