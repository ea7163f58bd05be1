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
left edge.  Occurrences with their leaf spans, which no command needs, are
:mod:`npstat.queries.spans`.
"""

from __future__ import annotations

from ..givenness import ClauseContext, GrammaticalPosition
from ..treebank import Internal, Leaf, Tree
from . import _complement_kind


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


def walk_np_occurrences(tree: Tree) -> list[tuple[Internal, GrammaticalPosition, ClauseContext]]:
    """:func:`~npstat.queries.spans.extract_np_occurrences` as ``(node,
    position, context)`` triples, in pre-order, from a plain node stack that
    collects no leaves."""
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
