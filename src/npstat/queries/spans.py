"""NP occurrences with their leaf spans, which the library offers and no command
uses: :func:`extract_np_occurrences` gives :func:`walk_np_occurrences`'s
occurrences the NP leaf ranges of a walk that counts leaves and keeps none."""

from __future__ import annotations

from typing import NamedTuple

from ..givenness import ClauseContext, GrammaticalPosition
from ..treebank import Internal, Leaf, SourceSpan, Tree
from .occurrences import walk_np_occurrences


class NPOccurrence(NamedTuple):
    node: Internal
    position: GrammaticalPosition
    context: ClauseContext
    span: SourceSpan


def _np_ranges(tree: Tree) -> dict[Internal, tuple[int, int]]:
    """Each NP's half-open leaf range ``(start, end)``, keyed by node."""
    ranges = {}
    leaves = 0
    # One frame per node on the path from the root, below one that holds the
    # root: the iterator over its children, the node if it is an NP, and the
    # leaves counted before it.  An NP's range is set when its frame pops.
    stack = [(iter((tree,)), None, 0)]
    while stack:
        children, np, start = stack[-1]
        for child in children:
            if type(child) is Leaf:
                leaves += 1
                continue
            stack.append((iter(child.children),
                          child if child.label.category == "NP" else None, leaves))
            break
        else:
            stack.pop()
            if np is not None:
                ranges[np] = (start, leaves)
    return ranges


def extract_np_occurrences(
    tree: Tree, file_id: str = "", sentence_index: int = 0
) -> list[NPOccurrence]:
    """Find every NP in subject or non-subject position, with clause context.

    NPs whose parent is neither an S nor a VP (e.g. NPs inside PPs or other
    NPs) are not occurrences of either kind and are omitted.  An NP gets the
    context of its nearest S ancestor, or matrix when there is none.  Each
    span is the NP's leaf range.
    """
    ranges = _np_ranges(tree)
    return [
        NPOccurrence(node, position, context,
                     SourceSpan(file_id, sentence_index, *ranges[node]))
        for node, position, context in walk_np_occurrences(tree)
    ]
