"""Parse trees and attribute instance storage."""

from repro.tree.node import ParseTreeNode, AttributeInstance, make_terminal, make_node
from repro.tree.linearize import GrammarCodec, PackedTree, codec_for, pack, unpack
from repro.tree.spans import PostOrderSpans, SpanNode
from repro.tree.stats import TreeStatistics, tree_statistics

__all__ = [
    "ParseTreeNode",
    "AttributeInstance",
    "make_terminal",
    "make_node",
    "GrammarCodec",
    "PackedTree",
    "codec_for",
    "pack",
    "unpack",
    "PostOrderSpans",
    "SpanNode",
    "TreeStatistics",
    "tree_statistics",
]
