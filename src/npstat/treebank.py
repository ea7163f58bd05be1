"""Constituency trees: the node model every layer of npstat shares.

An ``Internal`` node carries a :class:`NodeLabel` and a non-empty tuple of
children, a ``Leaf`` carries a raw part-of-speech tag and a surface token.
Nodes are read-only by convention and compare and hash by identity, so two
equal-looking subtrees are still two nodes; labels and :class:`SourceSpan`
records compare by value.  Labels of internal nodes are decomposed into a
category, a sequence of function tags and an optional coindex; leaf tags are
kept verbatim (so ``-NONE-`` and ``-LRB-`` survive untouched).

Leaf collection keeps an explicit stack, so nesting depth is unbounded.

This module holds what every command that reads or builds trees loads: the
node model and the labels.  The exit-code exception classes, which every run
loads, are :mod:`npstat.base`.  The bracketed-text parser and serializer are
:mod:`npstat.brackets`, which the first lookup of one of its names here imports.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import import_module
from typing import Iterator, NamedTuple

from .base import SlottedRecord

EMPTY_POS = "-NONE-"

# Brown- and WSJ-style punctuation preterminal tags, currency included.
PUNCTUATION_TAGS = frozenset({",", ".", ":", "``", "''", "-LRB-", "-RRB-", "$", "#"})


_GAP_RE = re.compile(r"^(?P<base>.*?)(?P<gap>=\d+)$")


class NodeLabel(NamedTuple):
    """Decomposed nonterminal label, e.g. ``NP-SBJ-1`` or ``VP=2``.

    ``function_tags`` keeps hyphen-separated tags in their original order;
    a gap index like ``=2`` is stored as a tag of that spelling and always
    serialized last, after the coindex.
    """

    category: str
    function_tags: tuple[str, ...] = ()
    coindex: int | None = None

    @classmethod
    @lru_cache(maxsize=4096)
    def from_string(cls, raw: str) -> "NodeLabel":
        gap = None
        base = raw
        m = _GAP_RE.match(raw)
        if m:
            base, gap = m.group("base"), m.group("gap")
        parts = base.split("-")
        category = parts[0]
        rest = parts[1:]
        if not category:
            # Labels like "-NONE-" only occur on leaves, where they are kept
            # raw; if one shows up on an internal node, keep it unsplit.
            return cls(category=raw)
        coindex = None
        if rest and rest[-1].isdigit():
            coindex = int(rest[-1])
            rest = rest[:-1]
        tags = tuple(rest) + ((gap,) if gap else ())
        return cls(category=category, function_tags=tags, coindex=coindex)

    def __str__(self) -> str:
        plain = [t for t in self.function_tags if not t.startswith("=")]
        gaps = [t for t in self.function_tags if t.startswith("=")]
        out = self.category + "".join("-" + t for t in plain)
        if self.coindex is not None:
            out += "-" + str(self.coindex)
        return out + "".join(gaps)


class Tree:
    """Base class for tree nodes; see :class:`Internal` and :class:`Leaf`.

    Equality and hashing are object identity, so neither walks a subtree.
    """

    __slots__ = ()

    def leaves(self) -> list["Leaf"]:
        """Leaves in surface order; an iterator stack keeps any depth safe."""
        out: list[Leaf] = []
        stack = [iter((self,))]
        while stack:
            for node in stack[-1]:
                if isinstance(node, Leaf):
                    out.append(node)
                else:
                    stack.append(iter(node.children))  # type: ignore[attr-defined]
                    break
            else:
                stack.pop()
        return out

    def iter_nodes(self) -> Iterator["Tree"]:
        """Pre-order traversal over all nodes, including leaves."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Internal):
                stack.extend(reversed(node.children))

    @property
    def category(self) -> str | None:
        return None

    def text(self) -> str:
        """Surface string: non-empty leaf tokens joined by spaces."""
        return " ".join(l.token for l in self.leaves() if l.pos != EMPTY_POS)


class Leaf(Tree):
    __slots__ = ("pos", "token")

    def __init__(self, pos: str, token: str) -> None:
        self.pos = pos
        self.token = token

    def __repr__(self) -> str:
        return f"<Leaf {self.pos} {self.token!r}>"

    def leaves(self) -> list["Leaf"]:
        return [self]


class Internal(Tree):
    __slots__ = ("label", "children")

    def __init__(self, label: NodeLabel, children: tuple[Tree, ...]) -> None:
        if not children:
            raise ValueError(f"internal node {label} has no children")
        self.label = label
        self.children = children

    def __repr__(self) -> str:
        return f"<Internal {self.label} children={len(self.children)}>"

    @property
    def category(self) -> str:
        return self.label.category


def last_overt_leaf(node: Tree) -> Leaf | None:
    """The rightmost non-``-NONE-`` leaf under ``node``, found right to left."""
    stack = [node]
    while stack:
        node = stack.pop()
        if type(node) is not Leaf:
            stack.extend(node.children)  # type: ignore[attr-defined]
        elif node.pos != EMPTY_POS:
            return node
    return None


def is_empty_category(node: Tree) -> bool:
    """True if every leaf under ``node`` is a ``-NONE-`` empty element."""
    return last_overt_leaf(node) is None


class SourceSpan(SlottedRecord):
    """Provenance of a match: file, sentence, and half-open leaf range."""

    __slots__ = _fields = ("file_id", "sentence_index", "start", "end")

    def __init__(self, file_id: str, sentence_index: int, start: int, end: int) -> None:
        if start >= end:
            raise ValueError(f"empty leaf range [{start}, {end})")
        self.file_id = file_id
        self.sentence_index = sentence_index
        self.start = start
        self.end = end


def __getattr__(name: str):
    from . import _EXPORTS  # the names npstat.brackets defines

    if name not in _EXPORTS["brackets"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.brackets"), name)
