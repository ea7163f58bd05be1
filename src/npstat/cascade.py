"""The givenness rule cascade of :mod:`npstat.givenness`, over tree nodes.

:func:`classify_overt` is the cascade's only copy.  Of the NP's overt leaves it
reads only the first two, which :func:`leading_overt` finds by a left-to-right
scan that stops there, however large the NP; a caller that already holds the
leaves may pass them all.  Only the commands that classify NPs load this
module, and with it the node model of :mod:`npstat.treebank`.
"""

from __future__ import annotations

from .givenness import ClassifierConfig, GivennessCategory
from .treebank import EMPTY_POS, PUNCTUATION_TAGS, Internal, Leaf, Tree, last_overt_leaf


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
            and child.pos not in PUNCTUATION_TAGS
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
