"""Low-level tree-splitting utilities."""

from __future__ import annotations

from typing import List, Optional

from repro.grammar.symbols import Nonterminal
from repro.tree.node import ParseTreeNode


def splittable_nodes(
    root: ParseTreeNode,
    min_size: Optional[int] = None,
    scale: float = 1.0,
) -> List[ParseTreeNode]:
    """Nodes (excluding the root) at which the grammar allows the tree to be split.

    A node qualifies when its symbol is declared splittable and its linearized size is
    at least ``min_size`` (when given) or at least ``scale`` times the symbol's declared
    minimum split size.
    """
    candidates: List[ParseTreeNode] = []
    for node in root.walk():
        if node is root or node.is_terminal:
            continue
        symbol = node.symbol
        assert isinstance(symbol, Nonterminal)
        if not symbol.splittable:
            continue
        threshold = min_size if min_size is not None else symbol.min_split_size * scale
        if node.wire_size >= threshold:
            candidates.append(node)
    return candidates


def detach_subtree(root: ParseTreeNode, node: ParseTreeNode) -> ParseTreeNode:
    """Detach ``node`` from the tree rooted at ``root``, leaving a *hole* in its place.

    Returns the hole node: a childless, production-less node carrying the same
    nonterminal symbol.  The detached subtree is untouched and can be evaluated
    independently; the hole's synthesized attributes must later be supplied from
    that remote evaluation, while its inherited attributes are computed by the
    remaining (local) part of the tree and must be exported to whoever evaluates the
    detached subtree.  Nodes keep no parent pointer, so the tree root is needed to
    find ``node``'s ancestors; their summaries are refreshed to describe the tree
    with the hole in it.
    """
    if node is root:
        raise ValueError("cannot detach the root of a tree")
    if node.is_terminal:
        raise ValueError("cannot detach a terminal leaf")
    path: List[ParseTreeNode] = []  # the ancestors of the node the walk is at
    for current, parent, index in root.walk_with_parent():
        while path and path[-1] is not parent:
            path.pop()
        if current is node:
            break
        path.append(current)
    else:
        raise ValueError("node is not part of the tree")
    hole = ParseTreeNode(node.symbol)
    parent.children = parent.children[: index - 1] + (hole,) + parent.children[index:]
    for ancestor in path:
        ancestor.node_count -= node.node_count - hole.node_count
        ancestor.wire_size -= node.wire_size - hole.wire_size
        ancestor.attribute_instances -= node.attribute_instances - hole.attribute_instances
        ancestor.token_count -= node.token_count
    return hole
