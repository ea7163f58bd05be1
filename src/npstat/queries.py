"""Structural queries over parsed sentences.

Four families of query live here:

* NP occurrence extraction: every NP is classified as a subject (child of an
  S with a VP among its later siblings) or a non-subject (child of a VP, or
  child of an S with no later VP sibling); NPs under any other parent are
  skipped.  Each occurrence also gets a clause context: matrix, embedded
  that-clause complement, embedded reduced (zero-complementizer) complement,
  or other embedding (relatives, adverbial clauses, ...).
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

One leaf-span index per sentence (:func:`_leaf_spans`, built in a single walk)
gives every internal node's half-open range of surface leaves.  Occurrence
spans, late-closure adjacency and the adverbial comma test all read that index
instead of collecting a subtree's leaves again for each node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .treebank import (
    EMPTY_POS,
    PUNCTUATION_TAGS,
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


@dataclass(frozen=True)
class NPOccurrence:
    node: Internal
    position: GrammaticalPosition
    context: ClauseContext
    span: SourceSpan


@dataclass(frozen=True)
class LateClosureMatch:
    vp_node: Internal
    final_verb: Leaf
    critical_np: Internal
    span: SourceSpan


@dataclass(frozen=True)
class AdverbialRecord:
    category: str
    comma_delimited: bool
    span: SourceSpan


class FrameType(Enum):
    NP_COMPLEMENT = "np-complement"
    THAT_CLAUSE = "that-clause"
    REDUCED_CLAUSE = "reduced-clause"
    INTRANSITIVE = "intransitive"


@dataclass(frozen=True)
class VerbFrameProfile:
    lemma: str
    counts: dict[FrameType, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class EmptyInflectionSet(ValueError):
    """The inflection set for a verb lemma is empty; lexicon is misconfigured."""


def _leaf_spans(tree: Tree) -> tuple[list[Leaf], dict[int, tuple[int, int]]]:
    """Surface leaves, and the half-open leaf range of every internal node.

    ``spans[id(node)] == (start, end)`` means ``leaves[start:end]`` are the
    node's leaves.  The walk keeps an iterator stack, so any depth is safe.
    """
    leaves: list[Leaf] = []
    spans: dict[int, tuple[int, int]] = {}
    opened: list[tuple[int, int]] = []  # (id, start) of each node on the path
    stack = [iter((tree,))]
    while stack:
        for node in stack[-1]:
            if isinstance(node, Leaf):
                leaves.append(node)
            else:
                opened.append((id(node), len(leaves)))
                stack.append(iter(node.children))  # type: ignore[attr-defined]
                break
        else:
            stack.pop()
            if opened:
                key, start = opened.pop()
                spans[key] = (start, len(leaves))
    return leaves, spans


def _span_of(
    node: Internal, spans: dict[int, tuple[int, int]], file_id: str, sentence_index: int
) -> SourceSpan:
    start, end = spans[id(node)]
    return SourceSpan(file_id, sentence_index, start, end)


def _position_in_parent(parent: Internal, child_index: int) -> GrammaticalPosition | None:
    """Grammatical position of the NP at ``parent.children[child_index]``."""
    cat = parent.category
    if cat == "S":
        later_vp = any(
            isinstance(sib, Internal) and sib.category == "VP"
            for sib in parent.children[child_index + 1:]
        )
        return GrammaticalPosition.SUBJECT if later_vp else GrammaticalPosition.NON_SUBJECT
    if cat == "VP":
        return GrammaticalPosition.NON_SUBJECT
    return None


def _ancestry_of(tree: Tree, target: Tree) -> list[Internal] | None:
    """Chain of ancestors from the root down to (excluding) ``target``.

    Nodes are matched by identity, so the result is well-defined even when
    structurally equal subtrees occur more than once.
    """
    path: list[Internal] = []
    stack = [iter((tree,))]
    while stack:
        for node in stack[-1]:
            if node is target:
                return path
            if isinstance(node, Internal):
                path.append(node)
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
            if path:
                path.pop()
    return None


def _complementizer_slot(sbar: Internal, clause: Tree) -> Leaf | None:
    """Nearest leaf sibling preceding ``clause`` among ``sbar``'s children."""
    clause_index = next(i for i, c in enumerate(sbar.children) if c is clause)
    for child in reversed(sbar.children[:clause_index]):
        if isinstance(child, Leaf):
            return child
    return None


def _is_overt_that(leaf: Leaf | None) -> bool:
    return leaf is not None and leaf.pos == "IN" and leaf.token.lower() == "that"


def _context_of_clause(ancestry: list[Internal], governing: Internal) -> ClauseContext:
    """Clause context of a governing clause given its ancestor chain."""
    if not any(a.category in ("S", "SBAR") for a in ancestry):
        return ClauseContext.MATRIX
    parent = ancestry[-1] if ancestry else None
    grandparent = ancestry[-2] if len(ancestry) >= 2 else None
    if parent is not None and parent.category == "SBAR" and grandparent is not None \
            and grandparent.category == "VP":
        comp = _complementizer_slot(parent, governing)
        if _is_overt_that(comp):
            return ClauseContext.EMBEDDED_TC
        if comp is not None and comp.pos == EMPTY_POS:
            return ClauseContext.EMBEDDED_RC
    if parent is not None and parent.category == "VP":
        return ClauseContext.EMBEDDED_RC
    return ClauseContext.EMBEDDED_OTHER


def _governing_clause(np_ancestry: list[Internal]) -> tuple[Internal, list[Internal]]:
    """Nearest S ancestor (with its own ancestry); falls back to the root."""
    for i in range(len(np_ancestry) - 1, -1, -1):
        if np_ancestry[i].category == "S":
            return np_ancestry[i], np_ancestry[:i]
    return np_ancestry[0], []


def extract_np_occurrences(
    tree: Tree, file_id: str = "", sentence_index: int = 0
) -> list[NPOccurrence]:
    """Find every NP in subject or non-subject position, with clause context.

    NPs whose parent is neither an S nor a VP (e.g. NPs inside PPs or other
    NPs) are not occurrences of either kind and are omitted.
    """
    _, spans = _leaf_spans(tree)
    out: list[NPOccurrence] = []
    if not isinstance(tree, Internal):
        return out
    # One shared path from the root: ``ancestry[j]`` is the node whose
    # children ``stack[j]`` is walking, so ``ancestry[-1]`` is their parent.
    ancestry: list[Internal] = [tree]
    stack = [enumerate(tree.children)]
    while stack:
        for i, child in stack[-1]:
            if not isinstance(child, Internal):
                continue
            if child.category == "NP":
                position = _position_in_parent(ancestry[-1], i)
                if position is not None:
                    governing, gov_ancestry = _governing_clause(ancestry)
                    context = _context_of_clause(gov_ancestry, governing)
                    out.append(
                        NPOccurrence(
                            node=child,
                            position=position,
                            context=context,
                            span=_span_of(child, spans, file_id, sentence_index),
                        )
                    )
            ancestry.append(child)
            stack.append(enumerate(child.children))
            break
        else:
            stack.pop()
            ancestry.pop()
    return out


def clause_context_of(occurrence: NPOccurrence, tree: Tree) -> ClauseContext:
    """Recompute the clause context of an occurrence extracted from ``tree``."""
    ancestry = _ancestry_of(tree, occurrence.node)
    if ancestry is None:
        raise ValueError("occurrence node does not belong to this tree")
    governing, gov_ancestry = _governing_clause(ancestry)
    return _context_of_clause(gov_ancestry, governing)


@dataclass(frozen=True)
class SubjectTagCrosscheck:
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


def find_late_closure_configs(
    tree: Tree,
    file_id: str = "",
    sentence_index: int = 0,
    punctuation_tags: frozenset[str] = PUNCTUATION_TAGS,
) -> list[LateClosureMatch]:
    """Locate VP-final verbs immediately followed by the first leaf of an NP.

    The adjacency test runs over the surface leaf sequence: empty elements are
    skipped, and any punctuation leaf between the verb and the NP kills the
    match.  When several nested NPs start at the adjacent leaf, the maximal
    one is reported.
    """
    leaves, spans = _leaf_spans(tree)

    # One pre-order pass: the first overt leaf position of every NP, and the VPs.
    np_starts: dict[int, list[Internal]] = {}
    vps: list[Internal] = []
    for node in tree.iter_nodes():
        if not isinstance(node, Internal):
            continue
        if node.category == "NP":
            start, end = spans[id(node)]
            first = next((j for j in range(start, end) if leaves[j].pos != EMPTY_POS), None)
            if first is not None:
                np_starts.setdefault(first, []).append(node)
        elif node.category == "VP":
            vps.append(node)

    matches: list[LateClosureMatch] = []
    for node in vps:
        start, end = spans[id(node)]
        i = next(
            (
                j
                for j in range(end - 1, start - 1, -1)
                if leaves[j].pos != EMPTY_POS
                and not is_punctuation(leaves[j], punctuation_tags)
            ),
            None,
        )
        if i is None or leaves[i].pos not in VERB_TAGS:
            continue
        following = next(
            (j for j in range(i + 1, len(leaves)) if leaves[j].pos != EMPTY_POS), None
        )
        if following is None or is_punctuation(leaves[following], punctuation_tags):
            continue
        candidates = np_starts.get(following)
        if not candidates:
            continue
        critical = max(candidates, key=lambda np: spans[id(np)][1] - spans[id(np)][0])
        matches.append(
            LateClosureMatch(
                vp_node=node,
                final_verb=leaves[i],
                critical_np=critical,
                span=SourceSpan(file_id, sentence_index, i, spans[id(critical)][1]),
            )
        )
    return matches


def survey_fronted_adverbials(
    tree: Tree,
    file_id: str = "",
    sentence_index: int = 0,
    adverbial_categories: frozenset[str] = ADVERBIAL_CATEGORIES,
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

    leaves, spans = _leaf_spans(tree)
    records = []
    for child in tree.children[:boundary]:
        if not (isinstance(child, Internal) and child.category in adverbial_categories):
            continue
        end = spans[id(child)][1]
        following = next(
            (j for j in range(end, len(leaves)) if leaves[j].pos != EMPTY_POS), None
        )
        comma = following is not None and leaves[following].pos == ","
        records.append(
            AdverbialRecord(
                category=child.category,
                comma_delimited=comma,
                span=_span_of(child, spans, file_id, sentence_index),
            )
        )
    return records


def _sbar_kind(sbar: Internal) -> str | None:
    """Complement type of an SBAR: "that", "reduced", or None."""
    clause = next(
        (c for c in sbar.children if isinstance(c, Internal) and c.category == "S"), None
    )
    if clause is None:
        return None
    comp = _complementizer_slot(sbar, clause)
    if _is_overt_that(comp):
        return "that"
    if comp is not None and comp.pos == EMPTY_POS:
        return "reduced"
    return None


def _frame_of(parent: Internal, verb_index: int) -> FrameType:
    siblings = [c for c in parent.children[verb_index + 1:]]
    internals = [c for c in siblings if isinstance(c, Internal)]
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
        for node in tree.iter_nodes():
            if not isinstance(node, Internal):
                continue
            for i, child in enumerate(node.children):
                if (
                    isinstance(child, Leaf)
                    and child.pos in VERB_TAGS
                    and child.token.lower() in forms
                ):
                    counts[_frame_of(node, i)] += 1
    return VerbFrameProfile(lemma=lemma, counts=counts)
