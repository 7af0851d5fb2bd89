"""Parse-tree statistics used by reports and by the decomposition planner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.tree.node import ParseTreeNode


@dataclass
class TreeStatistics:
    """Aggregate statistics of one parse tree."""

    node_count: int = 0
    terminal_count: int = 0
    nonterminal_count: int = 0
    attribute_instance_count: int = 0
    max_depth: int = 0
    linearized_size: int = 0
    nodes_by_symbol: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, int]:
        return {
            "node_count": self.node_count,
            "terminal_count": self.terminal_count,
            "nonterminal_count": self.nonterminal_count,
            "attribute_instance_count": self.attribute_instance_count,
            "max_depth": self.max_depth,
            "linearized_size": self.linearized_size,
        }


def tree_statistics(root: ParseTreeNode) -> TreeStatistics:
    """Compute :class:`TreeStatistics` for the subtree rooted at ``root``."""
    stats = TreeStatistics(linearized_size=root.wire_size)
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        stats.node_count += 1
        stats.max_depth = max(stats.max_depth, depth)
        stats.nodes_by_symbol[node.symbol.name] = (
            stats.nodes_by_symbol.get(node.symbol.name, 0) + 1
        )
        if node.is_terminal:
            stats.terminal_count += 1
        else:
            stats.nonterminal_count += 1
        stats.attribute_instance_count += len(node.symbol.attribute_names)  # type: ignore[attr-defined]
        for child in node.children:
            stack.append((child, depth + 1))
    return stats
