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
The cascade itself, which reads tree nodes, is
:func:`npstat.corpus.classify_overt`, beside the aggregation that runs it on
every NP.  This module holds the axes and the configuration, which the command
line needs to build its parser and to print ``--dump-default-config``, and
imports only :mod:`npstat.base`; :func:`classify_np` loads the node model and
the cascade when it is first called.  Its annotation names the node model
through the ``npstat`` package, so ``typing.get_type_hints`` resolves it and
loads the node model only then.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

import npstat

from .base import ConfigError, SlottedRecord


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
    config file; a leading byte-order mark is dropped.  The file is read with
    universal newlines, as corpus files are, so a line ends at ``\\n``,
    ``\\r\\n`` or a lone ``\\r`` and nowhere else (not at a form feed or
    U+2028).  ``#`` starts a comment and blank lines are skipped.  An
    unreadable file, a line without ``=`` or a key given twice raises
    ``error``, naming the file ``noun`` and the expected line ``shape``."""
    try:
        with open(path, encoding="utf-8-sig") as stream:
            content = stream.read()
    except (OSError, UnicodeDecodeError) as err:
        raise error(f"cannot read {noun} {path}: {err}") from err
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(content.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected '{shape}', got {line!r}")
        key, _, items = line.partition("=")
        key = key.strip()
        if key in seen:
            raise error(f"{path}:{lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        yield lineno, key, items.split()


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


def classify_np(np: npstat.Tree, config: ClassifierConfig = DEFAULT_CONFIG) -> GivennessCategory:
    """Apply the rule cascade to one NP node; first matching rule wins."""
    corpus = npstat.corpus  # the first call loads the node model and the cascade
    if not (isinstance(np, corpus.Internal) and np.category == "NP"):
        raise NotAnNP(f"expected an internal NP node, got {np!r}")
    return corpus.classify_overt(np, corpus.leading_overt(np), config)
