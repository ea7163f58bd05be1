"""Read and write bracketed constituency treebanks.

An ``Internal`` node carries a :class:`NodeLabel` and a non-empty tuple of
children, a ``Leaf`` carries a raw part-of-speech tag and a surface token.
Nodes are read-only by convention and compare and hash by identity, so two
equal-looking subtrees are still two nodes; labels and :class:`SourceSpan`
records compare by value.  Labels of internal nodes are decomposed into a
category, a sequence of function tags and an optional coindex; leaf tags are
kept verbatim (so ``-NONE-`` and ``-LRB-`` survive untouched).

Both common top-level layouts are accepted: bare ``(S ...)`` trees and trees
wrapped in an extra unlabeled ``( ... )`` pair.  Nesting depth is unbounded:
parsing, leaf collection and serialization keep explicit stacks instead of
recursing.

The parser leaves tokenizing to string methods: it spaces out each ``)`` and
splits the text at each ``(``, so every chunk holds one opening's label, a
preterminal's word and the ``)`` that follow.  Its loop turns once per ``(``.
Labels are derived once per process: ``NodeLabel.from_string`` is cached.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

EMPTY_POS = "-NONE-"

# Brown- and WSJ-style punctuation preterminal tags, currency included.
PUNCTUATION_TAGS = frozenset({",", ".", ":", "``", "''", "-LRB-", "-RRB-", "$", "#"})


class TreebankSyntaxError(ValueError):
    """Malformed bracketed input; ``position`` is the offset into the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class InputError(ValueError):
    """Missing or unusable input, such as no corpus root or a negative count;
    the command line exits 2 on it, and on no other exception."""


class DegenerateInput(ValueError):
    """Statistics input that leaves the statistic undefined; the command line exits 3."""


class ConfigError(ValueError):
    """A classifier config or verb lexicon that cannot be used; the command line exits 4."""


class UnbalancedBrackets(TreebankSyntaxError):
    pass


class EmptyConstituent(TreebankSyntaxError):
    pass


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


def _position(text: str, chunk: int, count: int = 0) -> int:
    """Offset of the ``count``-th token after the ``chunk``-th ``(`` (chunk 0
    is the text before the first), or of that ``(`` when ``count`` is 0."""
    pieces = text.split("(")
    at = end = len("(".join(pieces[:chunk]))
    for token in pieces[chunk].replace(")", " ) ").split()[:count]:
        at = text.index(token, end)
        end = at + len(token)
    return at


def parse_trees(text: str) -> list[Tree]:
    """Parse a concatenation of bracketed trees into a list of :class:`Tree`.

    A top-level unlabeled ``( ... )`` wrapper is transparent: each group it
    contains becomes its own tree; deeper down, an unlabeled group holding one
    constituent collapses into it.  Nesting depth is unbounded: one loop reads
    the text one ``(`` at a time with an explicit stack, and raises
    :class:`UnbalancedBrackets` or :class:`EmptyConstituent` (subclasses of
    :class:`TreebankSyntaxError`) at the first defect it meets.
    """
    # Chunk i > 0 is what follows the i-th "(" up to the next one: a label,
    # then a word if the group is a preterminal, then the ")"s that close
    # groups.  Chunk 0, before any "(", must hold nothing.
    chunks = text.replace(")", " ) ").split("(")
    trees: list[Tree] = []
    labels: dict[str, NodeLabel] = {}  # per node, cheaper than from_string's cache
    # The innermost open group: the index of the chunk its "(" opens, its
    # label and its child nodes.  The label is None until the first token
    # after the "(", and stays None when that token is another "(".  Opening
    # a group pushes these three onto ``stack``, and closing it pops them
    # back; with no group open they are None, "" and ``trees``.
    start, label, items = None, "", trees
    stack: list[tuple] = []
    push, pop = stack.append, stack.pop
    new = object.__new__  # skip ``__init__``, a tenth of the parse: the loop checks first
    for i, chunk in enumerate(chunks):
        tokens = chunk.split()
        first = 0
        if i:
            # The "(" starts the next item of the innermost open group.
            if label is None and items and len(stack) > 1:
                raise EmptyConstituent("constituent has no label", _position(text, start))
            # Short paths: a labeled opening, and a whole preterminal.
            n = len(tokens)
            if n == 1 and tokens[0] != ")":
                push((start, label, items))
                start, label, items = i, tokens[0], []
                continue
            if n > 2 and tokens[2] == ")" and tokens[0] != ")" != tokens[1]:
                leaf = new(Leaf)
                leaf.pos, leaf.token = tokens[0], tokens[1]
                items.append(leaf)
                if n == 3:
                    continue
                first = 3
            else:
                push((start, label, items))
                start, label, items = i, None, []
        for k in range(first, len(tokens)):
            tok = tokens[k]
            if tok == ")":
                if not stack:
                    raise UnbalancedBrackets("unmatched ')'", _position(text, i, k + 1))
                if not items:
                    raise EmptyConstituent(
                        "empty constituent '()'" if label is None
                        else f"constituent {label!r} has no children", _position(text, start))
                if label is None:
                    # A nested unlabeled group holds one group; the wrapper, trees.
                    nodes = items
                    start, label, items = pop()
                    items.extend(nodes)
                    continue
                node = new(Internal)
                node.label = labels.get(label) or labels.setdefault(
                    label, NodeLabel.from_string(label))
                node.children = tuple(items)
                start, label, items = pop()
                items.append(node)
                continue
            # A word: the label or the next item of the innermost open group.
            if not stack:
                raise TreebankSyntaxError(
                    f"stray text {tok!r} between trees", _position(text, i, k + 1))
            if label is None:
                if not items:
                    label = tok
                    continue
                if len(stack) > 1:
                    raise EmptyConstituent("constituent has no label", _position(text, start))
                raise TreebankSyntaxError(
                    f"stray token {tok!r} outside a constituent", _position(text, i, k + 1))
            # A preterminal's word has a ")" next, and the short path took those:
            # any other token makes a word stray, and the end leaves it unclosed.
            if items or k < len(tokens) - 1 or i < len(chunks) - 1:
                raise TreebankSyntaxError(
                    f"word {tok!r} outside a preterminal", _position(text, i, k + 1))
    if stack:
        raise UnbalancedBrackets("unclosed '('", _position(text, start))
    return trees


def serialize_tree(tree: Tree) -> str:
    """Render the canonical single-space bracketed form of one tree."""
    parts: list[str] = []
    # Pending work, popped from the end: nodes to render and literal text.
    stack: list[Tree | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"({item.pos} {item.token})")
        else:
            assert isinstance(item, Internal)
            parts.append(f"({item.label}")
            stack.append(")")
            for child in reversed(item.children):
                stack += (child, " ")
    return "".join(parts)


def is_punctuation(leaf: Leaf) -> bool:
    """True if the leaf's POS tag is a punctuation tag."""
    return leaf.pos in PUNCTUATION_TAGS


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


class SlottedRecord:
    """Base of slotted value types whose ``__init__`` checks or fills in fields,
    which a ``NamedTuple`` cannot do.

    Equality, hash and repr are over the attributes named in ``_fields``, in
    order, as for a tuple; a subclass sets ``__slots__ = _fields = (...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


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


class ReportFormat(Enum):
    """Output formats of :mod:`npstat.report`, one per ``--format`` choice.

    Defined in this bottom layer, which every command loads, so that the
    command line can offer the format names without importing the report
    layer; :mod:`npstat.report` re-exports it.
    """

    ALIGNED_TEXT = "text"
    TAB_SEPARATED = "tsv"
    STRUCTURED_RECORDS = "records"
