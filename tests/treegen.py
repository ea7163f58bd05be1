"""Seeded random tree generation for property tests, and structural comparison.

Trees are built directly from the node classes, so generation cannot depend
on the parser under test.  Categories are drawn from the set the structural
queries care about, plus leaves with realistic tag variety: overt words,
punctuation, and empty elements.  A few internal nodes are planted as a verb
with a ``(SBAR (IN that) (S ...))`` complement, which random draws almost
never assemble, so that-clause frames and contexts occur.

Nodes compare by identity, so round-trip tests compare trees with
:func:`same_trees`.
"""

import random
from typing import Sequence

from npstat.treebank import Internal, Leaf, NodeLabel, Tree

CATEGORIES = ("S", "SBAR", "VP", "NP", "PP", "ADVP")
FUNCTION_TAGS = ("SBJ", "TMP", "LOC", "PRD", "CLR", "ADV", "NOM")
OVERT_POS = (
    "DT", "NN", "NNS", "NNP", "NNPS", "PRP", "PRP$", "VB", "VBD", "VBZ",
    "VBG", "IN", "TO", "JJ", "RB", "CD", "POS", "MD", "WRB", "CC",
)
VERB_POS = ("VB", "VBD", "VBZ", "VBG")
# Share of grown internal nodes that become a planted that-clause complement.
THAT_CLAUSE_P = 0.05
PUNCT_POS_TOKEN = ((",", ","), (".", "."), (":", ";"), ("``", "``"), ("''", "''"))
WORDS = (
    "the", "a", "an", "that", "this", "some", "cat", "dogs", "Smith", "Larson",
    "it", "we", "they", "his", "ran", "sees", "worked", "ate", "became", "say",
    "on", "to", "of", "when", "big", "old", "almost", "quickly", "42", "three",
    "'s", "and", "joke", "bond", "location",
)
EMPTY_TOKENS = ("*", "*T*-1", "*T*-2", "0", "*U*", "*?*")


def random_label(rng: random.Random) -> NodeLabel:
    raw = rng.choice(CATEGORIES)
    for tag in rng.sample(FUNCTION_TAGS, k=rng.choice((0, 0, 0, 0, 1, 1, 2))):
        raw += f"-{tag}"
    if rng.random() < 0.12:
        raw += f"-{rng.randrange(1, 4)}"
    if rng.random() < 0.06:
        raw += f"={rng.randrange(1, 4)}"
    return NodeLabel.from_string(raw)


def random_leaf(rng: random.Random) -> Leaf:
    roll = rng.random()
    if roll < 0.10:
        return Leaf(pos="-NONE-", token=rng.choice(EMPTY_TOKENS))
    if roll < 0.22:
        pos, token = rng.choice(PUNCT_POS_TOKEN)
        return Leaf(pos=pos, token=token)
    return Leaf(pos=rng.choice(OVERT_POS), token=rng.choice(WORDS))


def that_clause(rng: random.Random, clause: Internal) -> Internal:
    """``(VP verb (SBAR (IN that) clause))``: a verb with a that-clause
    complement, which random labels and leaves almost never put together."""
    sbar = Internal(label=NodeLabel("SBAR"), children=(Leaf(pos="IN", token="that"), clause))
    verb = Leaf(pos=rng.choice(VERB_POS), token=rng.choice(WORDS))
    return Internal(label=NodeLabel("VP"), children=(verb, sbar))


def random_tree(rng: random.Random, max_nodes: int = 25) -> Internal:
    """One sentence tree with at most ``max_nodes`` nodes, root always internal."""
    budget = rng.randrange(3, max_nodes + 1)

    def grow(depth: int) -> Leaf | Internal:
        nonlocal budget
        budget -= 1
        if depth >= 6 or budget <= 1 or rng.random() < 0.32:
            return random_leaf(rng)
        width = rng.randrange(1, 4)
        children = tuple(grow(depth + 1) for _ in range(width))
        if budget > 3 and rng.random() < THAT_CLAUSE_P:
            budget -= 3
            return that_clause(rng, Internal(label=NodeLabel("S"), children=children))
        return Internal(label=random_label(rng), children=children)

    budget -= 1
    width = rng.randrange(1, 4)
    children = tuple(grow(1) for _ in range(width))
    return Internal(label=random_label(rng), children=children)


def random_trees(seed: int, count: int, max_nodes: int = 25) -> list[Internal]:
    rng = random.Random(seed)
    return [random_tree(rng, max_nodes) for _ in range(count)]


def same_trees(xs: Sequence[Tree], ys: Sequence[Tree]) -> bool:
    """Structural equality of two tree sequences, at any depth.

    Compares, in pre-order, each node's kind, its :class:`NodeLabel` by value
    (so ``NP-1`` and an ``NP`` whose function tag is ``1`` differ even though
    they serialize alike), a leaf's tag and token, and the child count.
    """
    if len(xs) != len(ys):
        return False
    stack = list(zip(reversed(xs), reversed(ys)))
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Leaf):
            if (x.pos, x.token) != (y.pos, y.token):
                return False
        elif x.label != y.label or len(x.children) != len(y.children):
            return False
        else:
            stack.extend(zip(reversed(x.children), reversed(y.children)))
    return True
