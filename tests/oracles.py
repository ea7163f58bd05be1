"""Independent re-implementations of the query definitions for cross-checking.

Everything here restates the definitional text naively — flat parent maps and
literal sibling scans — deliberately sharing no traversal code with the
library, so agreement is meaningful evidence.  The oracles over a whole
sentence walk it with an explicit stack, so they reach any depth the parser
does.  :func:`oracle_parse` reads every bracket and word as its own token,
where the library splits the text at each ``(`` and reads one opening at a
time, and is the reference for the parser's trees and errors.
:func:`reference_aggregate_cells` is the other exception: it is the
composition that :func:`npstat.corpus.aggregate` fuses into one walk, kept as
that walk's reference, with each NP classified by :func:`oracle_givenness`.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from npstat.corpus import AggregateCounts
from npstat.givenness import ClassifierConfig, GivennessCategory
from npstat.queries import VERB_TAGS, LateClosureMatch, extract_np_occurrences
from npstat.treebank import (
    EmptyConstituent,
    Internal,
    Leaf,
    NodeLabel,
    Tree,
    TreebankSyntaxError,
    UnbalancedBrackets,
    is_punctuation,
)

if TYPE_CHECKING:
    from npstat.corpus import CellKey

# The tags a head is never taken from, as the Penn Treebank tags punctuation.
_PUNCTUATION_TAGS = {",", ".", ":", "``", "''", "-LRB-", "-RRB-", "$", "#"}

# One token per bracket and per word: a preterminal is four tokens.
_ORACLE_TOKEN_RE = re.compile(r"[()]|[^()\s]+")


def _oracle_offset(text: str, k: int) -> int:
    return next(islice(_ORACLE_TOKEN_RE.finditer(text), k, None)).start()


def oracle_parse(text: str) -> list[Tree]:
    """Reference parser: every bracket and every word is its own token.

    The same trees, and the same error class, message and offset, as
    :func:`npstat.treebank.parse_trees` must give.  One loop with an explicit
    stack of frames ``[token index of '(', label, items]``; a labeled frame's
    lone word item sits at token index + 2.
    """
    tokens = _ORACLE_TOKEN_RE.findall(text)
    trees: list[Tree] = []
    stack: list[list] = []
    for k, tok in enumerate(tokens):
        if tok == ")":
            if not stack:
                raise UnbalancedBrackets("unmatched ')'", _oracle_offset(text, k))
            start, label, items = stack.pop()
            if label is None:
                if not items:
                    raise EmptyConstituent("empty constituent '()'",
                                           _oracle_offset(text, start))
                if not stack:
                    trees.extend(items)
                    continue
                node = items[0]
            elif not items:
                raise EmptyConstituent(f"constituent {label!r} has no children",
                                       _oracle_offset(text, start))
            elif isinstance(items[0], str):
                node = Leaf(label, items[0])
            else:
                node = Internal(NodeLabel.from_string(label), tuple(items))
            (stack[-1][2] if stack else trees).append(node)
            continue
        if not stack:
            if tok != "(":
                raise TreebankSyntaxError(f"stray text {tok!r} between trees",
                                          _oracle_offset(text, k))
            stack.append([k, None, []])
            continue
        frame = stack[-1]
        start, label, items = frame
        if items:
            if label is None:
                if len(stack) > 1:
                    raise EmptyConstituent("constituent has no label",
                                           _oracle_offset(text, start))
                if tok != "(":
                    raise TreebankSyntaxError(f"stray token {tok!r} outside a constituent",
                                              _oracle_offset(text, k))
            elif isinstance(items[0], str) or tok != "(":
                word_at = start + 2 if isinstance(items[0], str) else k
                raise TreebankSyntaxError(f"word {tokens[word_at]!r} outside a preterminal",
                                          _oracle_offset(text, word_at))
        if tok == "(":
            stack.append([k, None, []])
        elif label is None:
            frame[1] = tok
        else:
            items.append(tok)
    if stack:
        raise UnbalancedBrackets("unclosed '('", _oracle_offset(text, stack[-1][0]))
    return trees


def _parent_map(tree: Tree) -> tuple[dict[int, Internal], list[Tree]]:
    """``id(child) -> parent`` for every node but the root, and every node in
    pre-order; an explicit stack, so any depth works."""
    parent_of: dict[int, Internal] = {}
    order: list[Tree] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Internal):
            for child in node.children:
                parent_of[id(child)] = node
            stack.extend(reversed(node.children))
    return parent_of, order


def oracle_occurrences(tree: Tree) -> dict[int, tuple[str, str]]:
    """Map id(np_node) -> (position value, context value) per the definitions.

    Subject: NP child of an S with a VP among its later siblings.
    Non-subject: NP child of a VP, or of an S with no later VP sibling.
    Context of the nearest S ancestor (else the root): matrix with no S/SBAR
    ancestor; embedded-tc under an SBAR child of VP whose last leaf before
    the clause is an overt "that"; embedded-rc as a direct S child of VP or
    under an SBAR child of VP with an empty complementizer; otherwise other.
    """
    parent_of, order = _parent_map(tree)

    def ancestors(node: Tree) -> Iterator[Internal]:
        """Nearest first, up to the root; lazy, so a search stops where it hits."""
        while id(node) in parent_of:
            node = parent_of[id(node)]
            yield node

    results: dict[int, tuple[str, str]] = {}
    for node in order:
        if not (isinstance(node, Internal) and node.category == "NP"):
            continue
        parent = parent_of.get(id(node))
        if parent is None:
            continue
        index = next(i for i, c in enumerate(parent.children) if c is node)
        if parent.category == "S":
            later_vp = any(
                isinstance(c, Internal) and c.category == "VP"
                for c in parent.children[index + 1:]
            )
            position = "subject" if later_vp else "non-subject"
        elif parent.category == "VP":
            position = "non-subject"
        else:
            continue

        governing = next((a for a in ancestors(node) if a.category == "S"), tree)
        if not any(a.category in ("S", "SBAR") for a in ancestors(governing)):
            context = "matrix"
        else:
            context = "embedded-other"
            above = ancestors(governing)
            enclosing, outer = next(above, None), next(above, None)
            if (
                enclosing is not None
                and enclosing.category == "SBAR"
                and outer is not None
                and outer.category == "VP"
            ):
                complementizer = None
                for child in enclosing.children:
                    if child is governing:
                        break
                    if isinstance(child, Leaf):
                        complementizer = child
                if (
                    complementizer is not None
                    and complementizer.pos == "IN"
                    and complementizer.token.lower() == "that"
                ):
                    context = "embedded-tc"
                elif complementizer is not None and complementizer.pos == "-NONE-":
                    context = "embedded-rc"
            elif enclosing is not None and enclosing.category == "VP":
                context = "embedded-rc"
        results[id(node)] = (position, context)
    return results


def oracle_leaf_ranges(tree: Tree) -> dict[int, tuple[int, int]]:
    """Map id(internal node) -> half-open range of its leaves in the sentence.

    Leaves are numbered in pre-order.  A node's range runs from the start of
    its first child's range to the end of its last child's; children are
    settled before their parents by visiting the nodes in reverse pre-order.
    """
    _, order = _parent_map(tree)
    span: dict[int, tuple[int, int]] = {}
    leaves = 0
    for node in order:
        if isinstance(node, Leaf):
            span[id(node)] = (leaves, leaves + 1)
            leaves += 1
    ranges: dict[int, tuple[int, int]] = {}
    for node in reversed(order):
        if isinstance(node, Internal):
            span[id(node)] = ranges[id(node)] = (
                span[id(node.children[0])][0], span[id(node.children[-1])][1]
            )
    return ranges


def late_closure_match_is_sound(tree: Tree, match: LateClosureMatch) -> bool:
    """Re-verify a match from the raw leaf sequence alone."""
    if match.final_verb.pos not in VERB_TAGS:
        return False
    vp_content = [
        l for l in match.vp_node.leaves()
        if l.pos != "-NONE-" and not is_punctuation(l)
    ]
    if not vp_content or vp_content[-1] is not match.final_verb:
        return False
    leaves = tree.leaves()
    verb_at = next(i for i, l in enumerate(leaves) if l is match.final_verb)
    following = next(
        (l for l in leaves[verb_at + 1:] if l.pos != "-NONE-"), None
    )
    if following is None or is_punctuation(following):
        return False
    np_first_overt = next(
        (l for l in match.critical_np.leaves() if l.pos != "-NONE-"), None
    )
    if np_first_overt is not following:
        return False
    return match.critical_np.category == "NP"


def oracle_late_closure(tree: Tree) -> list[tuple[Internal, Leaf, Internal]]:
    """Every ``(vp, verb, np)`` late-closure triple, VPs in pre-order.

    A VP's verb is its last leaf that is neither ``-NONE-`` nor punctuation,
    and must be verb-tagged.  The next leaf after it in the sentence that is
    not ``-NONE-`` must not be punctuation, and the NP is the highest ancestor
    of that leaf whose first overt leaf it is.  First and last leaves are
    settled children before parents, in reverse pre-order.
    """
    parent_of, order = _parent_map(tree)
    leaves = [node for node in order if isinstance(node, Leaf)]
    at = {id(leaf): k for k, leaf in enumerate(leaves)}
    first_overt: dict[int, Leaf | None] = {}
    last_content: dict[int, Leaf | None] = {}
    for node in reversed(order):
        if isinstance(node, Leaf):
            overt = node.pos != "-NONE-"
            first_overt[id(node)] = node if overt else None
            last_content[id(node)] = node if overt and not is_punctuation(node) else None
        else:
            firsts = [first_overt[id(c)] for c in node.children]
            lasts = [last_content[id(c)] for c in node.children]
            first_overt[id(node)] = next((l for l in firsts if l is not None), None)
            last_content[id(node)] = next((l for l in reversed(lasts) if l is not None), None)

    triples = []
    for vp in order:
        if not (isinstance(vp, Internal) and vp.category == "VP"):
            continue
        verb = last_content[id(vp)]
        if verb is None or verb.pos not in VERB_TAGS:
            continue
        following = next(
            (leaves[k] for k in range(at[id(verb)] + 1, len(leaves))
             if leaves[k].pos != "-NONE-"),
            None,
        )
        if following is None or is_punctuation(following):
            continue
        # Above the first ancestor that starts with an earlier overt leaf,
        # every ancestor does too, so the climb stops there.
        nps = []
        node = following
        while id(node) in parent_of:
            node = parent_of[id(node)]
            if first_overt[id(node)] is not following:
                break
            if node.category == "NP":
                nps.append(node)
        if nps:
            triples.append((vp, verb, nps[-1]))
    return triples


def oracle_verb_frames(trees: list[Tree], forms: set[str]) -> dict[str, int]:
    """Frame value -> count over every verb-tagged leaf whose token matches one
    of ``forms`` when both are lower-cased, by a literal scan of the leaf's
    later siblings.

    NP complement: a later NP sibling with an overt leaf.  Otherwise
    that-clause: a later SBAR sibling whose last leaf child before its first S
    child is an overt "that".  Otherwise reduced clause: such an SBAR whose
    leaf is ``-NONE-``, or a later S sibling.  Otherwise intransitive.
    """
    counts = {"np-complement": 0, "that-clause": 0, "reduced-clause": 0, "intransitive": 0}
    forms = {form.lower() for form in forms}
    for tree in trees:
        parent_of, order = _parent_map(tree)
        for leaf in order:
            if not (isinstance(leaf, Leaf) and leaf.pos in VERB_TAGS
                    and leaf.token.lower() in forms and id(leaf) in parent_of):
                continue
            siblings = parent_of[id(leaf)].children
            index = next(i for i, c in enumerate(siblings) if c is leaf)
            later = [c for c in siblings[index + 1:] if isinstance(c, Internal)]
            complementizers = []
            for sbar in (c for c in later if c.category == "SBAR"):
                comp = None
                for child in sbar.children:
                    if isinstance(child, Internal) and child.category == "S":
                        complementizers.append(comp)
                        break
                    if isinstance(child, Leaf):
                        comp = child
            if any(c.category == "NP" and any(l.pos != "-NONE-" for l in c.leaves())
                   for c in later):
                frame = "np-complement"
            elif any(c is not None and c.pos == "IN" and c.token.lower() == "that"
                     for c in complementizers):
                frame = "that-clause"
            elif any(c is not None and c.pos == "-NONE-" for c in complementizers) \
                    or any(c.category == "S" for c in later):
                frame = "reduced-clause"
            else:
                frame = "intransitive"
            counts[frame] += 1
    return counts


def with_comma_after(node: Tree, target: Leaf) -> Tree:
    """Copy of the tree with a comma leaf spliced in right after ``target``."""
    if isinstance(node, Leaf):
        return node
    assert isinstance(node, Internal)
    children: list[Tree] = []
    for child in node.children:
        if child is target:
            children.append(child)
            children.append(Leaf(",", ","))
        else:
            children.append(with_comma_after(child, target))
    return Internal(label=node.label, children=tuple(children))


def oracle_givenness(np: Internal, config: ClassifierConfig) -> tuple[str, str]:
    """``(category value, rule)`` for one NP by the six rules of the
    :mod:`npstat.givenness` docstring, the first that matches winning.

    Overt leaves are those of ``np.leaves()`` other than ``-NONE-``.
    1. empty-category: no overt leaf.
    2. pronoun: exactly one overt leaf, tagged as a pronoun.
    3. proper-name: the head, the rightmost direct child that is an overt
       leaf and not punctuation, is tagged as a proper noun.
    4. definite: the first overt leaf is a definite determiner (rule
       ``determiner``) or is tagged ``PRP$`` (``possessive``), or the first
       child is an NP whose last overt leaf is tagged ``POS`` (``genitive``).
    5. indefinite: the first overt leaf is an indefinite determiner
       (``determiner``) or is tagged ``CD`` (``number``).
    6. not-classified.
    Determiners compare lower-cased.
    """
    overt = [leaf for leaf in np.leaves() if leaf.pos != "-NONE-"]
    if not overt:
        return "empty-category", "empty"
    if len(overt) == 1 and overt[0].pos in config.pronoun_pos_tags:
        return "pronoun", "pronoun"
    head = None
    for child in reversed(np.children):
        if isinstance(child, Leaf) and child.pos != "-NONE-" \
                and child.pos not in _PUNCTUATION_TAGS:
            head = child
            break
    if head is not None and head.pos in config.proper_pos_tags:
        return "proper-name", "head"
    word, tag = overt[0].token.lower(), overt[0].pos
    if word in config.definite_determiners:
        return "definite", "determiner"
    if tag == "PRP$":
        return "definite", "possessive"
    first = np.children[0]
    if isinstance(first, Internal) and first.category == "NP":
        genitive = [leaf for leaf in first.leaves() if leaf.pos != "-NONE-"]
        if genitive and genitive[-1].pos == "POS":
            return "definite", "genitive"
    if word in config.indefinite_determiners:
        return "indefinite", "determiner"
    if tag == "CD":
        return "indefinite", "number"
    return "not-classified", "rest"


def reference_aggregate_cells(trees: list[Tree], config: ClassifierConfig) -> dict[CellKey, int]:
    """The cells :func:`npstat.corpus.aggregate` must give for ``trees``:
    :func:`oracle_givenness` on every occurrence that
    :func:`extract_np_occurrences` finds.  It shares no left-edge scan and no
    cascade with ``aggregate`` or ``classify_np``."""
    agg = AggregateCounts()
    for tree in trees:
        for occ in extract_np_occurrences(tree):
            category, _ = oracle_givenness(occ.node, config)
            agg.increment(GivennessCategory(category), occ.position, occ.context)
    return agg.cells
