"""Independent re-implementations of the query definitions for cross-checking.

Everything here restates the definitional text naively — flat parent maps and
literal sibling scans — deliberately sharing no traversal code with the
library, so agreement is meaningful evidence.
"""

from npstat.queries import VERB_TAGS, LateClosureMatch
from npstat.treebank import Internal, Leaf, Tree, is_punctuation


def oracle_occurrences(tree: Tree) -> dict[int, tuple[str, str]]:
    """Map id(np_node) -> (position value, context value) per the definitions.

    Subject: NP child of an S with a VP among its later siblings.
    Non-subject: NP child of a VP, or of an S with no later VP sibling.
    Context of the nearest S ancestor (else the root): matrix with no S/SBAR
    ancestor; embedded-tc under an SBAR child of VP whose last leaf before
    the clause is an overt "that"; embedded-rc as a direct S child of VP or
    under an SBAR child of VP with an empty complementizer; otherwise other.
    """
    parent_of: dict[int, Internal] = {}
    order: list[Tree] = []

    def walk(node: Tree) -> None:
        order.append(node)
        if isinstance(node, Internal):
            for child in node.children:
                parent_of[id(child)] = node
                walk(child)

    walk(tree)

    def ancestors(node: Tree) -> list[Internal]:
        chain: list[Internal] = []
        current = node
        while id(current) in parent_of:
            current = parent_of[id(current)]
            chain.append(current)
        return chain  # nearest ancestor first

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

        chain = ancestors(node)
        governing = next((a for a in chain if a.category == "S"), chain[-1])
        above = ancestors(governing)
        if not any(a.category in ("S", "SBAR") for a in above):
            context = "matrix"
        else:
            context = "embedded-other"
            enclosing = above[0] if above else None
            outer = above[1] if len(above) > 1 else None
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

    The range runs from the position of the node's first leaf to that of its
    last leaf, plus one; leaves are found by identity in the sentence's leaf
    list.
    """
    position = {id(leaf): i for i, leaf in enumerate(tree.leaves())}
    ranges: dict[int, tuple[int, int]] = {}
    for node in tree.iter_nodes():
        if isinstance(node, Internal):
            node_leaves = node.leaves()
            ranges[id(node)] = (position[id(node_leaves[0])], position[id(node_leaves[-1])] + 1)
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
