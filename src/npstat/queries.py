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

:func:`walk_sentence` is the sentence walk behind extraction and late
closure, which filter its entries.  It collects the leaves and gives every
internal node with its parent, child index, clause context and half-open leaf
range, so neither query collects a subtree's leaves again.  Verb frames read
only each internal node's children, so they scan a plain node stack; the
adverbial survey only scans the root's children.  :func:`walk_np_occurrences`
and :func:`walk_late_closure` hand the sentence's leaves to callers that
classify each NP from them: :func:`npstat.corpus.aggregate` and the
``late-closure`` command.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .treebank import (
    EMPTY_POS,
    Internal,
    Leaf,
    SourceSpan,
    Tree,
    is_empty_category,
    is_punctuation,
)

VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})

# Constituent categories counted as fronted adverbials; S covers fronted
# participial clauses.
ADVERBIAL_CATEGORIES = frozenset({"PP", "SBAR", "ADVP", "S"})


class GrammaticalPosition(Enum):
    SUBJECT = "subject"
    NON_SUBJECT = "non-subject"


class ClauseContext(Enum):
    MATRIX = "matrix"
    EMBEDDED_TC = "embedded-tc"
    EMBEDDED_RC = "embedded-rc"
    EMBEDDED_OTHER = "embedded-other"


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


def _position_in_parent(parent: Internal, child_index: int) -> GrammaticalPosition | None:
    """Grammatical position of the NP at ``parent.children[child_index]``."""
    cat = parent.label.category
    if cat == "S":
        later_vp = any(
            type(sib) is Internal and sib.label.category == "VP"
            for sib in parent.children[child_index + 1:]
        )
        return GrammaticalPosition.SUBJECT if later_vp else GrammaticalPosition.NON_SUBJECT
    if cat == "VP":
        return GrammaticalPosition.NON_SUBJECT
    return None


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
    """The one sentence walk behind NP extraction and late closure.

    One ``[node, parent, index, context, start, end]`` entry per internal node,
    in pre-order: ``node`` is ``parent.children[index]`` (the root's parent is
    None), ``context`` is the clause context its NP children take, and
    ``[start, end)`` is its leaf range.  The sentence's leaves are appended to
    ``leaves``.
    """
    if type(tree) is not Internal:
        leaves.extend(tree.leaves())
        return []
    add_leaf = leaves.append
    root = [tree, None, 0, ClauseContext.MATRIX, len(leaves), 0]
    out = [root]
    # One frame per node on the path from the root: the iterator over its
    # children, its entry, and whether an S or SBAR lies on the path down to
    # and including the node.  An entry's end is set when its frame pops.
    stack = [(enumerate(tree.children), root, tree.label.category in ("S", "SBAR"))]
    while stack:
        children, entry, under_clause = stack[-1]
        for i, child in children:
            if type(child) is Leaf:
                add_leaf(child)
                continue
            category = child.label.category
            context = entry[3]
            if category == "S" and under_clause:
                context = _embedded_context(entry[0], entry[1], i)
            child_entry = [child, entry[0], i, context, len(leaves), 0]
            out.append(child_entry)
            stack.append((enumerate(child.children), child_entry,
                          under_clause or category in ("S", "SBAR")))
            break
        else:
            stack.pop()
            entry[5] = len(leaves)
    return out


def walk_np_occurrences(
    tree: Tree, leaves: list[Leaf]
) -> list[tuple[Internal, GrammaticalPosition, ClauseContext, int, int]]:
    """:func:`extract_np_occurrences` over :func:`walk_sentence`: ``(node,
    position, context, start, end)`` per occurrence, in pre-order."""
    return [
        (node, position, context, start, end)
        for node, parent, i, context, start, end in walk_sentence(tree, leaves)
        if node.label.category == "NP" and parent is not None
        and (position := _position_in_parent(parent, i)) is not None
    ]


def extract_np_occurrences(
    tree: Tree, file_id: str = "", sentence_index: int = 0
) -> list[NPOccurrence]:
    """Find every NP in subject or non-subject position, with clause context.

    NPs whose parent is neither an S nor a VP (e.g. NPs inside PPs or other
    NPs) are not occurrences of either kind and are omitted.  An NP gets the
    context of its nearest S ancestor, or matrix when there is none.
    """
    return [
        NPOccurrence(node, position, context,
                     SourceSpan(file_id, sentence_index, start, end))
        for node, position, context, start, end in walk_np_occurrences(tree, [])
    ]


class SubjectTagCrosscheck(NamedTuple):
    """Agreement between positional subjecthood and the SBJ function tag."""

    agree: int
    disagree: int

    @property
    def disagreement_rate(self) -> float:
        total = self.agree + self.disagree
        return self.disagree / total if total else 0.0


def crosscheck_subject_tags(occurrences: Iterable[NPOccurrence]) -> SubjectTagCrosscheck:
    """Compare positional subject status against the annotated SBJ tag.

    Positional classification never consults function tags; this validation
    signal quantifies how often the two disagree on a given corpus.
    """
    agree = disagree = 0
    for occ in occurrences:
        positional = occ.position is GrammaticalPosition.SUBJECT
        tagged = "SBJ" in occ.node.label.function_tags
        if positional == tagged:
            agree += 1
        else:
            disagree += 1
    return SubjectTagCrosscheck(agree=agree, disagree=disagree)


def walk_late_closure(
    tree: Tree, leaves: list[Leaf]
) -> list[tuple[Internal, Leaf, Internal, int, int]]:
    """:func:`find_late_closure_configs` over :func:`walk_sentence`: ``(vp,
    verb, np, start, end)`` per match, with ``[start, end)`` the leaf range
    from the verb through the NP."""
    np_starts: dict[int, list] = {}  # NPs by the position of their first overt leaf
    vps = []
    for node, _, _, _, start, end in walk_sentence(tree, leaves):
        category = node.label.category
        if category == "NP":
            first = next((j for j in range(start, end) if leaves[j].pos != EMPTY_POS), None)
            if first is not None:
                np_starts.setdefault(first, []).append((node, start, end))
        elif category == "VP":
            vps.append((node, start, end))

    matches = []
    for node, start, end in vps:
        i = next(
            (
                j
                for j in range(end - 1, start - 1, -1)
                if leaves[j].pos != EMPTY_POS
                and not is_punctuation(leaves[j])
            ),
            None,
        )
        if i is None or leaves[i].pos not in VERB_TAGS:
            continue
        following = next(
            (j for j in range(i + 1, len(leaves)) if leaves[j].pos != EMPTY_POS), None
        )
        if following is None or is_punctuation(leaves[following]):
            continue
        candidates = np_starts.get(following)
        if candidates:
            critical, _, np_end = max(candidates, key=lambda np: np[2] - np[1])
            matches.append((node, leaves[i], critical, i, np_end))
    return matches


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
    boundary = None
    for i, child in enumerate(tree.children):
        if isinstance(child, Internal) and child.category == "NP" \
                and _position_in_parent(tree, i) is GrammaticalPosition.SUBJECT:
            boundary = i
            break
    if boundary is None:
        boundary = next(
            (
                i
                for i, child in enumerate(tree.children)
                if isinstance(child, Internal) and child.category == "VP"
            ),
            None,
        )
    if boundary is None:
        return []

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
