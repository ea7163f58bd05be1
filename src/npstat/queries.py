"""Structural queries over parsed sentences.

Four families of query live here:

* NP occurrence extraction: every NP is classified as a subject (child of an
  S with a VP among its later siblings) or a non-subject (child of a VP, or
  child of an S with no later VP sibling); NPs under any other parent are
  skipped.  Each occurrence also gets a clause context: matrix, embedded
  that-clause complement, embedded reduced (zero-complementizer) complement,
  or other embedding (relatives, adverbial clauses, ...).  The context is
  inherited down the sentence walk: an S takes its context from its parent
  and grandparent when the walk enters it, and every other node passes its
  own on to its children.
* Clause-final verb + adjacent NP configurations: a VP whose last overt,
  non-punctuation leaf is verb-tagged, string-adjacent to the first leaf of a
  following NP with no punctuation in between.  These are the locally
  ambiguous "the NP could be an object or the next subject" positions.
* Fronted adverbials: adjunct constituents preceding the subject of the root
  clause, with a flag for whether a comma follows them.
* Verb frame profiling: counts of NP-complement / that-clause /
  reduced-clause / intransitive uses for a configured set of inflections.

Empty elements (``-NONE-`` leaves) are transparent everywhere adjacency or
surface order is involved.

:func:`walk_np_occurrences` is extraction's walk: a plain pre-order node
stack that gives each occurrence with its position and context and collects
no leaves, so :func:`npstat.corpus.aggregate` classifies each NP from its
left edge.  :func:`walk_sentence` is the leaf walk behind NP spans.
:func:`walk_late_closure` is a leaf walk of its own that settles each match
as the leaves are read, reading each tag once, and hands the leaves it
collects to the ``late-closure`` command.  Verb frames read only each
internal node's children, so they scan a plain node stack too; the adverbial
survey only scans the root's children.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .givenness import ClauseContext, GrammaticalPosition
from .treebank import (
    EMPTY_POS,
    PUNCTUATION_TAGS,
    Internal,
    Leaf,
    SourceSpan,
    Tree,
    is_empty_category,
)

VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})

# Constituent categories counted as fronted adverbials; S covers fronted
# participial clauses.
ADVERBIAL_CATEGORIES = frozenset({"PP", "SBAR", "ADVP", "S"})


class NPOccurrence(NamedTuple):
    node: Internal
    position: GrammaticalPosition
    context: ClauseContext
    span: SourceSpan


class LateClosureMatch(NamedTuple):
    vp_node: Internal
    final_verb: Leaf
    critical_np: Internal
    span: SourceSpan


class AdverbialRecord(NamedTuple):
    category: str
    comma_delimited: bool
    span: SourceSpan


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


class EmptyInflectionSet(ValueError):
    """The inflection set for a verb lemma is empty; lexicon is misconfigured."""


def _complementizer_slot(sbar: Internal, clause_index: int) -> Leaf | None:
    """Nearest leaf sibling preceding ``sbar.children[clause_index]``."""
    for child in reversed(sbar.children[:clause_index]):
        if isinstance(child, Leaf):
            return child
    return None


def _is_overt_that(leaf: Leaf | None) -> bool:
    return leaf is not None and leaf.pos == "IN" and leaf.token.lower() == "that"


def _embedded_context(
    parent: Internal, grandparent: Internal | None, clause_index: int
) -> ClauseContext:
    """Context of the S at ``parent.children[clause_index]``; an S or SBAR lies
    at or above ``parent``."""
    category = parent.label.category
    if category == "SBAR" and grandparent is not None \
            and grandparent.label.category == "VP":
        comp = _complementizer_slot(parent, clause_index)
        if _is_overt_that(comp):
            return ClauseContext.EMBEDDED_TC
        if comp is not None and comp.pos == EMPTY_POS:
            return ClauseContext.EMBEDDED_RC
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


def survey_fronted_adverbials(
    tree: Tree, file_id: str = "", sentence_index: int = 0
) -> list[AdverbialRecord]:
    """Record each adjunct child of the root S that precedes the subject.

    ``comma_delimited`` is true when the next overt leaf after the adjunct is
    a comma.  Sentences whose root is not an S yield no records; stacked
    adverbials are each counted.
    """
    if not (isinstance(tree, Internal) and tree.category == "S"):
        return []
    categories = [child.category for child in tree.children]  # None for a leaf
    if "VP" not in categories:
        return []
    # The subject is the first NP with a VP among its later siblings; with no
    # subject, the first VP ends the adjuncts.
    last_vp = len(categories) - 1 - categories[::-1].index("VP")
    boundary = next((i for i in range(last_vp) if categories[i] == "NP"), categories.index("VP"))

    # ``start`` counts the leaves of the children before ``child``; the overt
    # leaf after an adjunct comes from a lazy scan of its later siblings.
    records = []
    start = 0
    for k, child in enumerate(tree.children[:boundary]):
        end = start + len(child.leaves())
        if isinstance(child, Internal) and child.category in ADVERBIAL_CATEGORIES:
            following = next(
                (
                    node
                    for sibling in tree.children[k + 1:]
                    for node in sibling.iter_nodes()
                    if isinstance(node, Leaf) and node.pos != EMPTY_POS
                ),
                None,
            )
            records.append(
                AdverbialRecord(
                    category=child.category,
                    comma_delimited=following is not None and following.pos == ",",
                    span=SourceSpan(file_id, sentence_index, start, end),
                )
            )
        start = end
    return records


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
    if clause_index is None:
        return None
    comp = _complementizer_slot(sbar, clause_index)
    if _is_overt_that(comp):
        return "that"
    if comp is not None and comp.pos == EMPTY_POS:
        return "reduced"
    return None


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
        raise EmptyInflectionSet(f"no inflections configured for {lemma!r}")
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
