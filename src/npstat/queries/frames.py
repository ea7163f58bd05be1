"""Verb frame profiling: counts of NP-complement / that-clause /
reduced-clause / intransitive uses for a configured set of inflections.
Verb frames read only each internal node's children, so they scan a plain
node stack.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from ..treebank import ConfigError, Internal, Leaf, Tree, is_empty_category
from . import VERB_TAGS, _complement_kind


class FrameType(Enum):
    NP_COMPLEMENT = "np-complement"
    THAT_CLAUSE = "that-clause"
    REDUCED_CLAUSE = "reduced-clause"
    INTRANSITIVE = "intransitive"


class VerbFrameProfile(NamedTuple):
    lemma: str
    counts: dict[FrameType, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class EmptyInflectionSet(ConfigError):
    """The inflection set for a verb lemma is empty; lexicon is misconfigured."""


def _sbar_kind(sbar: Internal) -> str | None:
    """Complement type of an SBAR: "that", "reduced", or None."""
    clause_index = next(
        (
            i
            for i, c in enumerate(sbar.children)
            if isinstance(c, Internal) and c.category == "S"
        ),
        None,
    )
    return None if clause_index is None else _complement_kind(sbar, clause_index)


def _frame_of(parent: Internal, verb_index: int) -> FrameType:
    internals = [c for c in parent.children[verb_index + 1:] if isinstance(c, Internal)]
    if any(c.category == "NP" and not is_empty_category(c) for c in internals):
        return FrameType.NP_COMPLEMENT
    sbar_kinds = [_sbar_kind(c) for c in internals if c.category == "SBAR"]
    if "that" in sbar_kinds:
        return FrameType.THAT_CLAUSE
    if "reduced" in sbar_kinds or any(c.category == "S" for c in internals):
        return FrameType.REDUCED_CLAUSE
    return FrameType.INTRANSITIVE


def profile_verb_frames(
    trees: Iterable[Tree], lemma: str, inflections: Sequence[str] | set[str]
) -> VerbFrameProfile:
    """Count complement frames for all verb-tagged leaves matching ``inflections``.

    Matching is by case-folded surface form.  An NP sibling made only of empty
    elements (an object trace) does not count as an NP complement.
    """
    forms = {f.lower() for f in inflections}
    if not forms:
        raise EmptyInflectionSet(f"no inflections configured for {lemma!r}; add it to the lexicon")
    counts = {frame: 0 for frame in FrameType}
    for tree in trees:
        stack = [tree] if type(tree) is Internal else []
        while stack:
            node = stack.pop()
            for i, child in enumerate(node.children):
                if type(child) is not Leaf:
                    stack.append(child)
                elif child.pos in VERB_TAGS and child.token.lower() in forms:
                    counts[_frame_of(node, i)] += 1
    return VerbFrameProfile(lemma=lemma, counts=counts)
