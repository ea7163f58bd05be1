"""Constituency trees: the node model every layer of npstat shares, and the
bracketed text a treebank stores them in.

An ``Internal`` node carries a :class:`NodeLabel` and a non-empty tuple of
children, a ``Leaf`` carries a raw part-of-speech tag and a surface token.
Nodes are read-only by convention and compare and hash by identity, so two
equal-looking subtrees are still two nodes; labels and :class:`SourceSpan`
records compare by value.  Labels of internal nodes are decomposed into a
category, a sequence of function tags and an optional coindex; leaf tags are
kept verbatim (so ``-NONE-`` and ``-LRB-`` survive untouched).

The parser accepts both common top-level layouts: bare ``(S ...)`` trees and
trees wrapped in an extra unlabeled ``( ... )`` pair.  It leaves tokenizing to
string methods: it spaces out each ``)`` and splits the text at each ``(``, so
every chunk holds one opening's label, a preterminal's word and the ``)`` that
follow.  Its loop turns once per ``(``.  Labels are derived once per process,
not once per file, into the one table that ``NodeLabel.from_string`` fills
and the parser reads first.

Nothing recurses, so nesting depth is unbounded.  A walk that settles nothing
as a node closes pops a node stack: :meth:`Tree.leaves`, ``iter_nodes``,
:func:`last_overt_leaf`, :func:`leading_overt`, the occurrence and frame walks
and serialization.  One that does keeps an iterator stack and counts leaves:
the NP-span and late-closure walks.

Only the commands that read or build trees load this module.  The exit-code
exception classes, which every run loads, are :mod:`npstat.base`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .base import SlottedRecord

EMPTY_POS = "-NONE-"

# Brown- and WSJ-style punctuation preterminal tags, currency included.
PUNCTUATION_TAGS = frozenset({",", ".", ":", "``", "''", "-LRB-", "-RRB-", "$", "#"})


# Raw label -> its NodeLabel, kept across files and cleared when full: the
# parser reads it directly, and ``NodeLabel.from_string`` fills it.
_LABELS: dict[str, "NodeLabel"] = {}
_LABELS_MAX = 4096  # distinct raw labels held at once


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
    def from_string(cls, raw: str) -> "NodeLabel":
        """The label spelled ``raw``, from ``_LABELS`` or derived into it.

        A trailing ``=n`` gap or ``-n`` coindex takes ASCII digits only; other
        text stays a tag or category text, which ``str`` writes as read.  A label
        whose index has more digits than the lowest limit ``int()`` accepts, 640,
        is not kept, so it is read under the limit in force; a tree built before
        the limit changed keeps its labels."""
        label = _LABELS.get(raw)
        if label is not None:
            return label
        base, eq, gap = raw.rpartition("=")
        if not (eq and gap.isascii() and gap.isdigit()):
            base, gap = raw, ""
        category, *rest = base.split("-")
        index = rest[-1] if rest and rest[-1].isascii() and rest[-1].isdigit() else ""
        if not category:
            # Labels like "-NONE-" only occur on leaves, where they are kept
            # raw; if one shows up on an internal node, keep it unsplit.
            label = cls(raw)
        else:
            coindex = None
            if index:
                try:
                    coindex = int(index)
                except ValueError:  # more digits than int() converts: a tag
                    pass
                else:
                    rest.pop()
            if gap:
                rest.append("=" + gap)
            label = cls(category, tuple(rest), coindex)
        if len(index) <= 640:  # sys.int_info.str_digits_check_threshold
            if len(_LABELS) >= _LABELS_MAX:
                _LABELS.clear()
            _LABELS[raw] = label
        return label

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
        """Leaves in surface order (a leaf's is itself), from a node stack."""
        out: list[Leaf] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if type(node) is Leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.children))  # type: ignore[attr-defined]
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


def leading_overt(np: Tree, known: dict[Tree, list[Leaf]] | None = None) -> list[Leaf]:
    """The first two leaves other than ``-NONE-`` under ``np`` (fewer if it
    has fewer), found left to right.  A node below ``np`` that ``known`` maps
    to its own result is not scanned again."""
    overt: list[Leaf] = []
    stack = [np]
    while stack:
        node = stack.pop()
        if type(node) is Leaf:
            if node.pos != EMPTY_POS:
                overt.append(node)
                if len(overt) == 2:
                    return overt
        elif known and node in known:
            overt += known[node]
            if len(overt) >= 2:
                return overt[:2]
        else:
            stack.extend(reversed(node.children))  # type: ignore[attr-defined]
    return overt


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


class TreebankSyntaxError(ValueError):
    """Malformed bracketed input; ``position`` is the offset into the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnbalancedBrackets(TreebankSyntaxError):
    pass


class EmptyConstituent(TreebankSyntaxError):
    pass


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
    labels = _LABELS
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
                node.label = labels.get(label) or NodeLabel.from_string(label)
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
