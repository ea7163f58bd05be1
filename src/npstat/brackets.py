"""Read and write the bracketed text of a treebank.

Both common top-level layouts are accepted: bare ``(S ...)`` trees and trees
wrapped in an extra unlabeled ``( ... )`` pair.  Nesting depth is unbounded:
parsing and serialization keep explicit stacks instead of recursing.

The parser leaves tokenizing to string methods: it spaces out each ``)`` and
splits the text at each ``(``, so every chunk holds one opening's label, a
preterminal's word and the ``)`` that follow.  Its loop turns once per ``(``.
Labels are derived once per process: ``NodeLabel.from_string`` is cached.
Only commands that read a corpus import this module; :mod:`npstat.treebank`,
which holds the node model, serves its names too.
"""

from __future__ import annotations

from .treebank import Internal, Leaf, NodeLabel, Tree


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
