"""Form-based givenness classification of NPs.

An NP is assigned exactly one of six categories by a deterministic rule
cascade, ordered specific to general:

1. empty-category: only ``-NONE-`` leaves.
2. pronoun: a single overt leaf tagged as a (possessive) personal pronoun.
3. proper-name: the head (rightmost overt, non-punctuation leaf among the
   NP's direct children) is tagged as a proper noun.
4. definite: starts with a definite determiner, a possessive pronoun, or a
   genitive NP (initial child ending in a ``POS`` clitic).
5. indefinite: starts with an indefinite determiner or a number.
6. not-classified: everything else (bare plurals, mass nouns, quantified or
   coordinated NPs, ...).

The module also defines the other two axes of Table 1,
:class:`GrammaticalPosition` and :class:`ClauseContext`, so that the cell
key of :class:`npstat.corpus.AggregateCounts` comes from one module; the
structural queries that assign them live in :mod:`npstat.queries`.

The classifier never consults discourse context; it is a surface heuristic
over the NP's own leaves, so identical trees always classify identically.
The cascade is :func:`classify_overt`.  Of the NP's overt leaves it reads
only the first two, which :func:`leading_overt` finds by a left-to-right scan
that stops there, however large the NP; a caller that already holds the
leaves may pass them all.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Iterator

from .treebank import (EMPTY_POS, ConfigError, Internal, Leaf, SlottedRecord, Tree,
                       is_punctuation, last_overt_leaf)


class GivennessCategory(Enum):
    # Members are singletons: a cell key hashes by identity, in C, not by name.
    __hash__ = object.__hash__
    EMPTY_CATEGORY = "empty-category"
    PRONOUN = "pronoun"
    PROPER_NAME = "proper-name"
    DEFINITE = "definite"
    INDEFINITE = "indefinite"
    NOT_CLASSIFIED = "not-classified"


class GrammaticalPosition(Enum):
    __hash__ = object.__hash__  # see GivennessCategory
    SUBJECT = "subject"
    NON_SUBJECT = "non-subject"


class ClauseContext(Enum):
    __hash__ = object.__hash__  # see GivennessCategory
    MATRIX = "matrix"
    EMBEDDED_TC = "embedded-tc"
    EMBEDDED_RC = "embedded-rc"
    EMBEDDED_OTHER = "embedded-other"


class NotAnNP(TypeError):
    """classify_np was handed a node that is not an internal NP."""


class ClassifierConfigError(ConfigError):
    """Invalid classifier configuration (overlapping determiner sets, bad file)."""


def read_key_items(
    path, noun: str, shape: str, error: type[ConfigError]
) -> Iterator[tuple[int, str, list[str]]]:
    """``(lineno, key, items)`` for each ``key = item item ...`` line of a UTF-8
    config file.  Lines end only at ``\\n``, ``#`` starts a comment and blank
    lines are skipped.  An unreadable file or a line without ``=`` raises
    ``error``, naming the file ``noun`` and the expected line ``shape``."""
    try:
        content = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise error(f"cannot read {noun} {path}: {err}") from err
    for lineno, raw in enumerate(content.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected '{shape}', got {line!r}")
        key, _, items = line.partition("=")
        yield lineno, key.strip(), items.split()


DEFAULT_PRONOUN_POS_TAGS = frozenset({"PRP", "PRP$"})
DEFAULT_PROPER_POS_TAGS = frozenset({"NNP", "NNPS"})
DEFAULT_DEFINITE_DETERMINERS = frozenset({"the", "this", "that", "these", "those"})
DEFAULT_INDEFINITE_DETERMINERS = frozenset(
    {"a", "an", "some", "several", "many", "few", "another", "one"}
)


class ClassifierConfig(SlottedRecord):
    """Tag and determiner sets of the cascade; determiners are lower-cased."""

    __slots__ = _fields = (
        "pronoun_pos_tags",
        "proper_pos_tags",
        "definite_determiners",
        "indefinite_determiners",
    )

    def __init__(
        self,
        pronoun_pos_tags: frozenset[str] = DEFAULT_PRONOUN_POS_TAGS,
        proper_pos_tags: frozenset[str] = DEFAULT_PROPER_POS_TAGS,
        definite_determiners: frozenset[str] = DEFAULT_DEFINITE_DETERMINERS,
        indefinite_determiners: frozenset[str] = DEFAULT_INDEFINITE_DETERMINERS,
    ) -> None:
        self.pronoun_pos_tags = pronoun_pos_tags
        self.proper_pos_tags = proper_pos_tags
        self.definite_determiners = frozenset(d.lower() for d in definite_determiners)
        self.indefinite_determiners = frozenset(d.lower() for d in indefinite_determiners)
        overlap = self.definite_determiners & self.indefinite_determiners
        if overlap:
            raise ClassifierConfigError(
                f"determiner sets overlap: {sorted(overlap)}")

    @classmethod
    def from_file(cls, path) -> "ClassifierConfig":
        """Load from a plain key/value file: ``key = item item ...``.

        Unknown keys are rejected; omitted keys keep their defaults.
        """
        values = {}
        for lineno, key, items in read_key_items(path, "classifier config", "key = items",
                                                 ClassifierConfigError):
            if key not in cls._fields:
                raise ClassifierConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = frozenset(items)
        return cls(**values)

    def dump(self) -> str:
        lines = ["# npstat givenness classifier configuration"]
        for name in self._fields:
            items = " ".join(sorted(getattr(self, name)))
            lines.append(f"{name} = {items}")
        return "\n".join(lines) + "\n"


DEFAULT_CONFIG = ClassifierConfig()


def classify_np(np: Tree, config: ClassifierConfig = DEFAULT_CONFIG) -> GivennessCategory:
    """Apply the rule cascade to one NP node; first matching rule wins."""
    if not (isinstance(np, Internal) and np.category == "NP"):
        raise NotAnNP(f"expected an internal NP node, got {np!r}")
    return classify_overt(np, leading_overt(np), config)


def leading_overt(np: Tree, known: dict[Tree, list[Leaf]] | None = None) -> list[Leaf]:
    """The first two leaves other than ``-NONE-`` under ``np`` (fewer if it
    has fewer), found left to right.  A node below ``np`` that ``known`` maps
    to its own result is not scanned again."""
    overt: list[Leaf] = []
    stack = [np]
    while stack and len(overt) < 2:
        node = stack.pop()
        if type(node) is Leaf:
            if node.pos != EMPTY_POS:
                overt.append(node)
        elif known and node in known:
            overt += known[node]
        else:
            stack.extend(reversed(node.children))  # type: ignore[attr-defined]
    return overt[:2]


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

    head = next(
        (
            child
            for child in reversed(np.children)
            if type(child) is Leaf
            and child.pos != EMPTY_POS
            and not is_punctuation(child)
        ),
        None,
    )
    if head is not None and head.pos in config.proper_pos_tags:
        return GivennessCategory.PROPER_NAME

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
