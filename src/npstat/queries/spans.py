"""NP occurrences with their leaf spans, which the library offers and no command
uses: :func:`extract_np_occurrences` joins :func:`walk_np_occurrences`'s
occurrences to the NP leaf ranges of :func:`walk_sentence`."""

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


def walk_sentence(tree: Tree, leaves: list[Leaf]) -> list[list]:
    """The leaf walk behind NP spans (:func:`extract_np_occurrences`).

    One ``[node, start, end]`` entry per NP, in pre-order, where
    ``[start, end)`` is the node's leaf range.  The sentence's leaves are
    appended to ``leaves``.
    """
    add_leaf = leaves.append
    out = []
    # One frame per node on the path from the root, below one that holds the
    # root: the iterator over its children, and its entry (None unless it is
    # an NP).  An entry's end is set when its frame pops.
    stack = [(iter((tree,)), None)]
    while stack:
        children, entry = stack[-1]
        for child in children:
            if type(child) is Leaf:
                add_leaf(child)
                continue
            child_entry = [child, len(leaves), 0] if child.label.category == "NP" else None
            if child_entry:
                out.append(child_entry)
            stack.append((iter(child.children), child_entry))
            break
        else:
            stack.pop()
            if entry is not None:
                entry[2] = len(leaves)
    return out


def extract_np_occurrences(
    tree: Tree, file_id: str = "", sentence_index: int = 0
) -> list[NPOccurrence]:
    """Find every NP in subject or non-subject position, with clause context.

    NPs whose parent is neither an S nor a VP (e.g. NPs inside PPs or other
    NPs) are not occurrences of either kind and are omitted.  An NP gets the
    context of its nearest S ancestor, or matrix when there is none.  Spans
    come from :func:`walk_sentence`'s NP ranges, joined by node.
    """
    ranges = {node: (start, end) for node, start, end in walk_sentence(tree, [])}
    return [
        NPOccurrence(node, position, context,
                     SourceSpan(file_id, sentence_index, *ranges[node]))
        for node, position, context in walk_np_occurrences(tree)
    ]
