"""NP occurrence extraction.

Every NP is classified as a subject (child of an S with a VP among its later
siblings) or a non-subject (child of a VP, or child of an S with no later VP
sibling); NPs under any other parent are skipped.  Each occurrence also gets
a clause context: matrix, embedded that-clause complement, embedded reduced
(zero-complementizer) complement, or other embedding (relatives, adverbial
clauses, ...).  The context is inherited down the sentence walk: an S takes
its context from its parent and grandparent when the walk enters it, and
every other node passes its own on to its children.

:func:`walk_np_occurrences` is extraction's walk: a plain pre-order node
stack that gives each occurrence with its position and context and collects
no leaves, so :func:`npstat.corpus.aggregate` classifies each NP from its
left edge.  :func:`walk_sentence` is the leaf walk behind NP spans.
"""

from __future__ import annotations

from typing import NamedTuple

from ..givenness import ClauseContext, GrammaticalPosition
from ..treebank import Internal, Leaf, SourceSpan, Tree
from . import _complement_kind


class NPOccurrence(NamedTuple):
    node: Internal
    position: GrammaticalPosition
    context: ClauseContext
    span: SourceSpan


def _embedded_context(
    parent: Internal, grandparent: Internal | None, clause_index: int
) -> ClauseContext:
    """Context of the S at ``parent.children[clause_index]``; an S or SBAR lies
    at or above ``parent``."""
    category = parent.label.category
    if category == "SBAR" and grandparent is not None \
            and grandparent.label.category == "VP":
        kind = _complement_kind(parent, clause_index)
        if kind:
            return ClauseContext.EMBEDDED_TC if kind == "that" else ClauseContext.EMBEDDED_RC
    if category == "VP":
        return ClauseContext.EMBEDDED_RC
    return ClauseContext.EMBEDDED_OTHER


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


def walk_np_occurrences(tree: Tree) -> list[tuple[Internal, GrammaticalPosition, ClauseContext]]:
    """:func:`extract_np_occurrences` as ``(node, position, context)`` triples,
    in pre-order, from a plain node stack that collects no leaves."""
    subject, non_subject = GrammaticalPosition.SUBJECT, GrammaticalPosition.NON_SUBJECT
    out = []
    # Per node: its parent, its position if it is an occurrence, the context
    # its NP children take, and whether an S or SBAR lies above it.
    stack = [(tree, None, None, ClauseContext.MATRIX, False)] if type(tree) is Internal else []
    pop, push = stack.pop, stack.append
    while stack:
        node, parent, position, context, under_clause = pop()
        if position is not None:
            out.append((node, position, context))
        category = node.label.category
        under_clause = under_clause or category in ("S", "SBAR")
        # Children are pushed right to left; in an S, NPs left of a VP are subjects.
        position = non_subject if category in ("S", "VP") else None
        children = node.children
        i = len(children)
        for child in reversed(children):
            i -= 1
            if type(child) is Leaf:
                continue
            child_category = child.label.category
            if child_category == "NP":
                push((child, node, position, context, under_clause))
                continue
            if child_category == "VP" and category == "S":
                position = subject
            push((child, node, None, _embedded_context(node, parent, i)
                  if child_category == "S" and under_clause else context, under_clause))
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
