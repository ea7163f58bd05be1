"""Directory ingestion and corpus-level aggregation.

:func:`read_files` is the one ingestion path: it visits files in lexicographic
path order and parses each one as UTF-8 text (a leading byte-order mark is
dropped).  A file that cannot be read, decoded or parsed is reported through
logging with one warning, which names the reason (for a parse error, the first
defect in reading order), and skipped; the run continues.  Counts accumulate
into :class:`AggregateCounts`, a dense (givenness category x grammatical
position x clause context) table whose ``merge`` is associative and
commutative, so any partition of the corpus combines to the same result.
"""

from __future__ import annotations

import logging
from collections import Counter
from pathlib import Path, PurePath
from typing import Iterable, Iterator, NamedTuple

from .givenness import ClassifierConfig, DEFAULT_CONFIG, GivennessCategory, classify_overt
from .queries import ClauseContext, GrammaticalPosition, walk_np_occurrences
from .treebank import EMPTY_POS, Leaf, SlottedRecord, Tree, TreebankSyntaxError, parse_trees

log = logging.getLogger(__name__)

CellKey = tuple[GivennessCategory, GrammaticalPosition, ClauseContext]


class RootNotFound(FileNotFoundError):
    pass


class CorpusSource(NamedTuple):
    root_path: Path
    include_glob: str = "*"


def _zero_cells() -> dict[CellKey, int]:
    return {
        (cat, pos, ctx): 0
        for cat in GivennessCategory for pos in GrammaticalPosition for ctx in ClauseContext
    }


class AggregateCounts(SlottedRecord):
    """Dense occurrence counts plus ingestion counters."""

    __slots__ = _fields = ("cells", "files_processed", "sentences_processed", "files_skipped")

    def __init__(
        self,
        cells: dict[CellKey, int] | None = None,
        files_processed: int = 0,
        sentences_processed: int = 0,
        files_skipped: int = 0,
    ) -> None:
        self.cells = _zero_cells() if cells is None else cells
        self.files_processed = files_processed
        self.sentences_processed = sentences_processed
        self.files_skipped = files_skipped

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
    """All matching files under the root, lexicographic by relative path.

    A pattern that is absolute or has a ``..`` component could reach files
    outside the root: it raises ValueError before anything is listed.
    """
    pattern = PurePath(source.include_glob)
    if pattern.anchor or ".." in pattern.parts:
        raise ValueError(
            f"glob pattern {source.include_glob!r} must be relative to the corpus "
            "root, with no '..' component")
    root = Path(source.root_path)
    if not root.is_dir():
        raise RootNotFound(f"corpus root {root} does not exist")
    files = [p for p in root.rglob(source.include_glob) if p.is_file()]
    return sorted(files, key=lambda p: p.relative_to(root).as_posix())


def _read_trees(path: Path, file_id: str) -> list[Tree] | None:
    try:
        return parse_trees(path.read_text(encoding="utf-8-sig"))
    except (OSError, TreebankSyntaxError, UnicodeDecodeError) as err:
        log.warning("skipping %s: %s", file_id, err)
        return None


def read_files(source: CorpusSource) -> Iterator[tuple[str, list[Tree] | None]]:
    """Parse every corpus file in order: ``(file_id, trees)`` pairs.

    ``file_id`` is the path relative to the corpus root.  ``trees`` is None
    for a file that failed to read, decode or parse; it gets one ``skipping``
    warning.
    Raises :class:`RootNotFound` when called, not when first iterated.
    """
    root = Path(source.root_path)
    file_ids = [path.relative_to(root).as_posix() for path in corpus_files(source)]
    return ((file_id, _read_trees(root / file_id, file_id)) for file_id in file_ids)


class FileTally:
    """How many corpus files one pass parsed and how many it skipped."""

    __slots__ = ("files_processed", "files_skipped")

    def __init__(self) -> None:
        self.files_processed = 0
        self.files_skipped = 0


def parsed_files(
    source: CorpusSource, files: FileTally
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

    One walk per sentence: the cascade classifies each NP from its slice of
    the leaves the extraction walk collected.  Counting a whole sentence's
    list of keys at once hashes each key once and never counts half a sentence.
    """
    counts: Counter[CellKey] = Counter()
    sentences = 0
    for _, tree in stream:
        leaves: list[Leaf] = []
        counts.update([
            (classify_overt(node, [l for l in leaves[start:end] if l.pos != EMPTY_POS],
                            config), position, context)
            for node, position, context, start, end in walk_np_occurrences(tree, leaves)
        ])
        sentences += 1
    agg = AggregateCounts.from_cells(counts)
    agg.sentences_processed = sentences
    return agg


def aggregate_corpus(
    source: CorpusSource, config: ClassifierConfig = DEFAULT_CONFIG
) -> AggregateCounts:
    """Aggregate a whole corpus in one fold, counting processed and skipped files."""
    files = FileTally()
    total = aggregate(
        ((file_id, tree) for file_id, trees in parsed_files(source, files) for tree in trees),
        config,
    )
    total.files_processed = files.files_processed
    total.files_skipped = files.files_skipped
    return total
