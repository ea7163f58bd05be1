"""Fronted adverbials: adjunct constituents preceding the subject of the
root clause, with a flag for whether a comma follows them.  The survey only
scans the root's children; the overt leaf after an adjunct is the first that
:func:`~npstat.treebank.leading_overt` finds among its later siblings.
"""

from __future__ import annotations

from typing import NamedTuple

from ..treebank import Internal, SourceSpan, Tree, leading_overt

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
    if type(tree) is not Internal or tree.label.category != "S":
        return []
    children = tree.children
    categories = [child.label.category if type(child) is Internal else None
                  for child in children]
    if "VP" not in categories:
        return []
    # The subject is the first NP with a VP among its later siblings; with no
    # subject, the first VP ends the adjuncts.
    earlier = categories[:len(categories) - 1 - categories[::-1].index("VP")]
    boundary = earlier.index("NP") if "NP" in earlier else categories.index("VP")

    # ``start`` counts the leaves of the children before the k-th.
    records = []
    start = 0
    for k in range(boundary):
        end = start + len(children[k].leaves())
        if categories[k] in ADVERBIAL_CATEGORIES:
            after = next(filter(None, map(leading_overt, children[k + 1:])), None)
            comma = after is not None and after[0].pos == ","
            records.append(AdverbialRecord(categories[k], comma,
                                           SourceSpan(file_id, sentence_index, start, end)))
        start = end
    return records
