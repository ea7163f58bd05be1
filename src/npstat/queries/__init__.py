"""Structural queries over parsed sentences, one module per family:

* :mod:`~npstat.queries.occurrences` — NPs in subject or non-subject
  position, with their clause contexts;
* :mod:`~npstat.queries.spans` — those occurrences with their leaf spans,
  from a walk that counts leaves;
* :mod:`~npstat.queries.late_closure` — a VP-final verb string-adjacent to
  a following NP, the "object or next subject" ambiguity;
* :mod:`~npstat.queries.adverbials` — fronted adverbials and their commas;
* :mod:`~npstat.queries.frames` — verb complement frames.

Empty elements (``-NONE-`` leaves) are transparent everywhere adjacency or
surface order is involved.

Every name in ``__all__`` can be imported from this package, but a family's
module is imported the first time one of its names is looked up here.  Each
command runs one family, so it compiles and loads only that one.
"""

from __future__ import annotations

from importlib import import_module

from ..treebank import EMPTY_POS, Internal, Leaf

VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})

# Family module -> the names it defines; each is imported on first access.
_FAMILIES = {
    "occurrences": ("walk_np_occurrences",),
    "spans": ("NPOccurrence", "extract_np_occurrences"),
    "late_closure": ("LateClosureMatch", "find_late_closure_configs"),
    "adverbials": (
        "ADVERBIAL_CATEGORIES", "AdverbialRecord", "survey_fronted_adverbials",
    ),
    "frames": (
        "EmptyInflectionSet", "FrameType", "VerbFrameProfile",
        "profile_verb_frames",
    ),
}
_FAMILY_OF = {name: family for family, names in _FAMILIES.items() for name in names}

__all__ = sorted(["VERB_TAGS", *_FAMILY_OF])


def _complement_kind(sbar: Internal, clause_index: int) -> str | None:
    """"that" if the nearest leaf sibling before ``sbar.children[clause_index]``
    is an overt *that*, "reduced" if it is an empty complementizer, else None."""
    for child in reversed(sbar.children[:clause_index]):
        if isinstance(child, Leaf):
            if child.pos == "IN" and child.token.lower() == "that":
                return "that"
            return "reduced" if child.pos == EMPTY_POS else None
    return None


def __getattr__(name: str):
    family = _FAMILY_OF.get(name)
    if family is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{family}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
