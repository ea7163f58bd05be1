"""Fronted adverbials: adjunct constituents preceding the subject of the
root clause, with a flag for whether a comma follows them.  The survey only
scans the root's children.
"""

from __future__ import annotations

from typing import NamedTuple

from ..treebank import EMPTY_POS, Internal, Leaf, SourceSpan, Tree

# Constituent categories counted as fronted adverbials; S covers fronted
# participial clauses.
ADVERBIAL_CATEGORIES = frozenset({"PP", "SBAR", "ADVP", "S"})


class AdverbialRecord(NamedTuple):
    category: str
    comma_delimited: bool
    span: SourceSpan


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
