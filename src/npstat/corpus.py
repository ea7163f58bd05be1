"""Directory ingestion and corpus-level aggregation.

:func:`read_files` is the one ingestion path: it visits files in lexicographic
path order and parses each one as UTF-8 text (a leading byte-order mark is
dropped).  A file that cannot be read, decoded or parsed is skipped, and the
reason (for a parse error, the first defect in reading order) is handed back
to the caller; nothing is printed.  Counts accumulate into
:class:`AggregateCounts`, a dense (givenness category x grammatical position x
clause context) table whose ``merge`` is associative and commutative, so any
partition of the corpus combines to the same result.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import suppress
from fnmatch import fnmatchcase
from pathlib import Path, PurePath
from typing import Iterable, Iterator, NamedTuple

from .givenness import (ClassifierConfig, ClauseContext, DEFAULT_CONFIG, GivennessCategory,
                        GrammaticalPosition, classify_overt, leading_overt)
from .treebank import InputError, Leaf, SlottedRecord, Tree, TreebankSyntaxError, parse_trees

CellKey = tuple[GivennessCategory, GrammaticalPosition, ClauseContext]
# (file_id, trees, reason): a skipped file has no trees and says why.
FileResult = tuple[str, list[Tree] | None, str | None]


class RootNotFound(FileNotFoundError, InputError):
    """The corpus root is not a directory."""


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
    """All files under the root whose path ends in a match of the pattern, sorted by
    relative path, from one walk that never enters a directory symlink.  A pattern that
    could reach outside the root, names no file or holds a partial ``**`` raises InputError.
    """
    pattern = PurePath(source.include_glob)
    if pattern.anchor or ".." in pattern.parts:
        raise InputError(
            f"glob pattern {source.include_glob!r} must be relative to the corpus "
            "root, with no '..' component")
    if not pattern.parts or pattern.parts[-1] == "**" or source.include_glob.endswith("/"):
        raise InputError(f"glob pattern {source.include_glob!r} must end in a file name")
    root = Path(source.root_path)
    if not root.is_dir():
        raise RootNotFound(f"corpus root {root} does not exist")
    names = [part for part in pattern.parts if part != "**"]
    if any("**" in name for name in names):
        raise InputError("Invalid pattern: '**' can only be an entire path component")
    # An entry may match names[i] for i in reached; a '**' before it (free[i]) keeps i below.
    free = [prev == "**" for prev, part in zip(("**", *pattern.parts), pattern.parts)
            if part != "**"]
    last, files, stack = len(names) - 1, [], [(str(root), {0})]
    while stack:
        directory, reached = stack.pop()
        with suppress(OSError), os.scandir(directory) as entries:  # unreadable: no files
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    stack.append((entry.path, {i for i in reached if free[i]} | {
                        i + 1 for i in reached if i < last and fnmatchcase(entry.name, names[i])}))
                elif last in reached and fnmatchcase(entry.name, names[last]) and entry.is_file():
                    files.append(Path(entry.path))
    return sorted(files, key=Path.as_posix)  # the root starts every path


def _read_trees(path: Path) -> tuple[list[Tree] | None, str | None]:
    try:
        return parse_trees(path.read_text(encoding="utf-8-sig")), None
    except (OSError, TreebankSyntaxError, UnicodeDecodeError) as err:
        return None, str(err)


def read_files(source: CorpusSource) -> Iterator[FileResult]:
    """Parse every corpus file in order: ``(file_id, trees, reason)`` triples.

    ``file_id`` is the path relative to the corpus root.  For a file that
    failed to read, decode or parse, ``trees`` is None and ``reason`` says why;
    otherwise ``reason`` is None.  Nothing is printed or logged.
    Raises :class:`RootNotFound` when called, not when first iterated.
    """
    skip = len(Path(source.root_path).parts)
    return (("/".join(path.parts[skip:]), *_read_trees(path)) for path in corpus_files(source))


def aggregate(
    stream: Iterable[tuple[str, Tree]], config: ClassifierConfig = DEFAULT_CONFIG
) -> AggregateCounts:
    """Run extraction + classification over a stream and tally every cell.

    One node-stack walk per sentence, which collects no leaves: the cascade
    classifies each NP from its left edge, at most two leaves however large
    the NP.  NPs are taken innermost first, so a scan takes a nested NP's
    left edge from ``known`` and no node is scanned twice.  Counting a whole
    sentence's list of keys at once hashes each key once and never counts
    half a sentence.
    """
    from .queries import walk_np_occurrences
    counts: Counter[CellKey] = Counter()
    sentences = 0
    for _, tree in stream:
        known: dict[Tree, list[Leaf]] = {}
        counts.update([
            (classify_overt(node, known.setdefault(node, leading_overt(node, known)), config),
             position, context)
            for node, position, context in reversed(walk_np_occurrences(tree))
        ])
        sentences += 1
    agg = AggregateCounts.from_cells(counts)
    agg.sentences_processed = sentences
    return agg


def aggregate_corpus(
    source: CorpusSource, config: ClassifierConfig = DEFAULT_CONFIG
) -> AggregateCounts:
    """Aggregate a whole corpus, one file's trees at a time; a skipped file is
    counted in ``files_skipped``, and nothing is printed."""
    counts = AggregateCounts()

    def parsed() -> Iterator[tuple[str, Tree]]:
        for file_id, trees, _ in read_files(source):
            if trees is None:
                counts.files_skipped += 1
            else:
                counts.files_processed += 1
                for tree in trees:
                    yield file_id, tree

    return merge(counts, aggregate(parsed(), config))
