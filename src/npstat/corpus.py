"""Directory ingestion and corpus-level aggregation.

:func:`read_files` is the one ingestion path: it visits files in lexicographic
path order and parses each one as UTF-8 text (a leading byte-order mark is
dropped).  It works on strings: the listing's walk builds each file's id, its
``/``-separated path relative to the root, and the file is opened in text mode,
with universal newlines, by the root's prefix and that id; no
:class:`~pathlib.Path` is made per file.  :func:`corpus_files` gives the same
listing as ``Path`` objects.  A file that cannot be read, decoded or parsed is
skipped, and the reason (for a parse error, the first defect in reading order)
is handed back to the caller; nothing is printed.  Counts accumulate into
:class:`AggregateCounts`, a dense (givenness category x grammatical position x
clause context) table whose ``merge`` is associative and commutative, so any
partition of the corpus combines to the same result.

:func:`aggregate` folds a stream of bare trees, wherever they were read
from.  It classifies each NP with :func:`classify_overt`, the only copy of
the givenness rule cascade of :mod:`npstat.givenness`, from the first two
overt leaves, which the node model's :func:`leading_overt` finds however
large the NP.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import suppress
from fnmatch import fnmatchcase
from pathlib import Path, PurePath
from typing import Iterable, Iterator, NamedTuple

from .base import InputError, SlottedRecord
from .givenness import (ClassifierConfig, ClauseContext, DEFAULT_CONFIG, GivennessCategory,
                        GrammaticalPosition)
from .treebank import (EMPTY_POS, PUNCTUATION_TAGS, Internal, Leaf, Tree, TreebankSyntaxError,
                       last_overt_leaf, leading_overt, parse_trees)

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


def merge(x: AggregateCounts, y: AggregateCounts) -> AggregateCounts:
    """Cell-wise and counter-wise sum; identity element is AggregateCounts()."""
    out = AggregateCounts()
    for key in out.cells:
        out.cells[key] = x.cells[key] + y.cells[key]
    out.files_processed = x.files_processed + y.files_processed
    out.sentences_processed = x.sentences_processed + y.sentences_processed
    out.files_skipped = x.files_skipped + y.files_skipped
    return out


def _listing(source: CorpusSource) -> tuple[str, list[str]]:
    """:func:`corpus_files` as strings: the root with a trailing separator, and
    the sorted ``/``-separated paths of the files relative to it."""
    pattern = PurePath(source.include_glob)
    if pattern.anchor or ".." in pattern.parts:
        raise InputError(
            f"glob pattern {source.include_glob!r} must be relative to the corpus "
            "root, with no '..' component")
    if not pattern.parts or pattern.parts[-1] == "**" or source.include_glob.endswith("/"):
        raise InputError(f"glob pattern {source.include_glob!r} must end in a file name")
    root = Path(source.root_path)
    if not root.is_dir():
        raise RootNotFound(f"corpus root {root} is not a directory")
    names = [part for part in pattern.parts if part != "**"]
    if any("**" in name for name in names):
        raise InputError("Invalid pattern: '**' can only be an entire path component")
    # An entry may match names[i] for i in reached; a '**' before it (free[i]) keeps i below.
    free = [prev == "**" for prev, part in zip(("**", *pattern.parts), pattern.parts)
            if part != "**"]
    # Per directory to scan: its path, its path relative to the root, and reached.
    last, files, stack = len(names) - 1, [], [(str(root), "", {0})]
    while stack:
        directory, relative, reached = stack.pop()
        try:
            entries = os.scandir(directory)
        except OSError as err:
            if not relative:
                raise InputError(
                    f"cannot list corpus root {root}: {err.strerror or err}") from None
            continue  # an unreadable subdirectory holds no files
        with suppress(OSError), entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    below = {i for i in reached if free[i]} | {
                        i + 1 for i in reached if i < last and fnmatchcase(entry.name, names[i])}
                    stack.append((entry.path, relative + entry.name + "/", below))
                elif last in reached and fnmatchcase(entry.name, names[last]) and entry.is_file():
                    files.append(relative + entry.name)
    return os.path.join(root, ""), sorted(files)


def corpus_files(source: CorpusSource) -> list[Path]:
    """All files under the root whose path ends in a match of the pattern, sorted by
    relative path, from one walk that never enters a directory symlink.  A pattern that
    could reach outside the root, names no file or holds a partial ``**`` raises InputError,
    and so does a root that cannot be listed; a subdirectory that cannot be listed holds
    no files.
    """
    prefix, files = _listing(source)
    return [Path(prefix + file) for file in files]


def _read_trees(path: str) -> tuple[list[Tree] | None, str | None]:
    try:
        with open(path, encoding="utf-8-sig") as stream:
            text = stream.read()
        return parse_trees(text), None
    except (OSError, TreebankSyntaxError, UnicodeDecodeError) as err:
        return None, str(err)


def read_files(source: CorpusSource) -> Iterator[FileResult]:
    """Parse every corpus file in order: ``(file_id, trees, reason)`` triples.

    ``file_id`` is the path relative to the corpus root.  For a file that
    failed to read, decode or parse, ``trees`` is None and ``reason`` says why;
    otherwise ``reason`` is None.  Nothing is printed or logged.
    Raises :class:`RootNotFound`, or InputError for a root that cannot be
    listed, when called, not when first iterated.
    """
    prefix, files = _listing(source)
    return ((file, *_read_trees(prefix + file)) for file in files)


def classify_overt(
    np: Internal, overt: list[Leaf], config: ClassifierConfig
) -> GivennessCategory:
    """The rule cascade, its only copy, over an NP node and its leaves other
    than ``-NONE-`` in surface order.  It reads only ``overt[:2]``, so
    :func:`leading_overt` suffices, and a caller that holds them all may pass
    them all."""
    if not overt:
        return GivennessCategory.EMPTY_CATEGORY

    first = overt[0]
    if len(overt) == 1 and first.pos in config.pronoun_pos_tags:
        return GivennessCategory.PRONOUN

    # The head: the rightmost child that is an overt, non-punctuation leaf.
    for child in reversed(np.children):
        if type(child) is Leaf and child.pos != EMPTY_POS and child.pos not in PUNCTUATION_TAGS:
            if child.pos in config.proper_pos_tags:
                return GivennessCategory.PROPER_NAME
            break

    word = first.token.lower()
    if word in config.definite_determiners:
        return GivennessCategory.DEFINITE
    if first.pos == "PRP$":
        return GivennessCategory.DEFINITE
    initial = np.children[0]
    if type(initial) is Internal and initial.label.category == "NP":
        last = last_overt_leaf(initial)
        if last is not None and last.pos == "POS":
            return GivennessCategory.DEFINITE

    if word in config.indefinite_determiners:
        return GivennessCategory.INDEFINITE
    if first.pos == "CD":
        return GivennessCategory.INDEFINITE

    return GivennessCategory.NOT_CLASSIFIED


def aggregate(
    trees: Iterable[Tree], config: ClassifierConfig = DEFAULT_CONFIG
) -> AggregateCounts:
    """Run extraction + classification over a stream of trees and tally every
    cell; each tree counts as one sentence.

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
    for tree in trees:
        known: dict[Tree, list[Leaf]] = {}
        counts.update([
            (classify_overt(node, known.setdefault(node, leading_overt(node, known)), config),
             position, context)
            for node, position, context in reversed(walk_np_occurrences(tree))
        ])
        sentences += 1
    cells = _zero_cells()
    cells.update(counts)
    return AggregateCounts(cells, sentences_processed=sentences)


def aggregate_corpus(
    source: CorpusSource, config: ClassifierConfig = DEFAULT_CONFIG
) -> AggregateCounts:
    """Aggregate a whole corpus, one file's trees at a time; a skipped file is
    counted in ``files_skipped``, and nothing is printed."""
    processed = skipped = 0

    def parsed() -> Iterator[Tree]:
        nonlocal processed, skipped
        for _, trees, _ in read_files(source):
            if trees is None:
                skipped += 1
            else:
                processed += 1
                yield from trees

    agg = aggregate(parsed(), config)
    agg.files_processed, agg.files_skipped = processed, skipped
    return agg
