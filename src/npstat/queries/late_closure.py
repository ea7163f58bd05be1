"""Clause-final verb + adjacent NP configurations.

A VP whose last overt, non-punctuation leaf is verb-tagged, string-adjacent
to the first leaf of a following NP with no punctuation in between.  These
are the locally ambiguous "the NP could be an object or the next subject"
positions.  :func:`walk_late_closure` is a leaf walk of its own that settles
each match as the leaves are read, reading each tag once, and hands the
leaves it collects to the ``late-closure`` command.
"""

from __future__ import annotations

from typing import NamedTuple

from ..treebank import EMPTY_POS, PUNCTUATION_TAGS, Internal, Leaf, SourceSpan, Tree
from . import VERB_TAGS


class LateClosureMatch(NamedTuple):
    vp_node: Internal
    final_verb: Leaf
    critical_np: Internal
    span: SourceSpan


def walk_late_closure(
    tree: Tree, leaves: list[Leaf]
) -> list[tuple[Internal, Leaf, Internal, int, int]]:
    """:func:`find_late_closure_configs` as ``(vp, verb, np, start, end)``
    rows in VP pre-order, ``[start, end)`` running from the verb through the
    NP, from one leaf walk that appends the sentence's leaves to ``leaves``.

    A VP that pops while the last overt leaf so far is a verb inside it waits
    for the next overt leaf: punctuation kills it, and otherwise it takes the
    outermost open NP entered after the verb, the highest ancestor of that
    leaf whose first overt leaf it is (an NP that closes first is no longer a
    candidate).  The row is made when that NP closes.
    """
    add_leaf = leaves.append
    rows = []  # one slot per VP, reserved as it is entered
    waiting = []  # (slot, vp, verb position) of VPs that end in the last overt leaf
    verb_at = -1  # position of the last overt leaf if it is a verb
    candidate = None  # the candidate NP's frame
    # Per node on the path from the root, below one that holds the root: the
    # iterator over its children, the node, and its frame: for an NP the rows
    # that wait for its end, for a VP its slot and its first leaf's position.
    stack = [(iter((tree,)), tree, None)]
    while stack:
        children, node, frame = stack[-1]
        for child in children:
            if type(child) is Leaf:
                add_leaf(child)
                pos = child.pos
                if pos == EMPTY_POS:
                    continue
                if waiting:
                    if candidate is not None and pos not in PUNCTUATION_TAGS:
                        candidate += waiting
                    waiting = []
                candidate = None
                verb_at = len(leaves) - 1 if pos in VERB_TAGS else -1
                continue
            category = child.label.category
            child_frame = None
            if category == "NP":
                child_frame = []
                if candidate is None:
                    candidate = child_frame
            elif category == "VP":
                child_frame = (len(rows), len(leaves))
                rows.append(None)
            stack.append((iter(child.children), child, child_frame))
            break
        else:
            stack.pop()
            if type(frame) is list:
                if frame is candidate:
                    candidate = None
                for slot, vp, verb in frame:
                    rows[slot] = (vp, leaves[verb], node, verb, len(leaves))
            elif frame is not None and verb_at >= frame[1]:
                waiting.append((frame[0], node, verb_at))
    return [row for row in rows if row is not None]


def find_late_closure_configs(
    tree: Tree, file_id: str = "", sentence_index: int = 0
) -> list[LateClosureMatch]:
    """Locate VP-final verbs immediately followed by the first leaf of an NP.

    The adjacency test runs over the surface leaf sequence: empty elements are
    skipped, and any punctuation leaf between the verb and the NP kills the
    match.  When several nested NPs start at the adjacent leaf, the maximal
    one is reported.
    """
    return [
        LateClosureMatch(vp, verb, np, SourceSpan(file_id, sentence_index, start, end))
        for vp, verb, np, start, end in walk_late_closure(tree, [])
    ]
