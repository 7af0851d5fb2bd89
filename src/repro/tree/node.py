"""Parse-tree nodes.

A :class:`ParseTreeNode` represents either a nonterminal node (with the production that
derived it and its children) or a terminal leaf (with the token value computed by the
scanner).  Attribute values are stored directly on the node in ``attributes``; the
*instance* of attribute ``a`` at node ``n`` is identified by the pair ``(n.node_id, a)``,
which is what the evaluators and the distributed protocol use as keys.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.grammar.productions import AttributeRef, Production
from repro.grammar.symbols import Nonterminal, Symbol, Terminal

#: Process-wide node ids (:func:`repro.tree.linearize.build` draws them too, as it
#: constructs nodes without this module's validating constructor).
node_ids = itertools.count(1)


#: The one children tuple every leaf shares.
_NO_CHILDREN: Tuple["ParseTreeNode", ...] = ()


class AttributeInstance:
    """Identifier of one attribute instance: attribute ``name`` at node ``node_id``."""

    __slots__ = ("node_id", "name")

    def __init__(self, node_id: int, name: str):
        self.node_id = node_id
        self.name = name

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AttributeInstance)
            and self.node_id == other.node_id
            and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash((self.node_id, self.name))

    def __repr__(self) -> str:
        return f"@{self.node_id}.{self.name}"


class ParseTreeNode:
    """One node of a parse tree.

    :param symbol: the grammar symbol at this node.
    :param production: the production applied at this node (``None`` for terminals).
    :param children: child nodes, one per right-hand-side symbol of the production.
    :param token_value: scanner-supplied value for terminal leaves.

    A node is fixed once constructed and points only downwards: there is no parent
    pointer, so a tree is acyclic (dropping its root frees it by reference count) and
    a subtree can be shared between trees, which the incremental splice relies on.
    The constructor sums four summaries of the subtree rooted here in the same loop
    that validates the children, so consumers read them instead of walking:

    * ``node_count`` — nodes in the subtree;
    * ``wire_size`` — abstract linearized bytes, the size model the split policy, the
      packed codec and the network model share: a terminal is charged 4 bytes plus
      its token text (4 for a non-string value), a nonterminal an 8-byte header;
    * ``attribute_instances`` — attribute instances of the nonterminal nodes; a
      production-less nonterminal (a *hole*) owns only its inherited ones, its
      synthesized attributes belonging to whoever evaluates the detached subtree;
    * ``token_count`` — terminal leaves, i.e. the length of the node's token span.

    Callers that need a node's parent get it from their own descent
    (:meth:`walk_with_parent`).

    Parsed and unpacked trees are built by :func:`repro.tree.linearize.build`, which
    sets these slots directly, with the same child check and summaries, instead of
    calling this constructor: a slot added here must be set there too.
    """

    __slots__ = (
        "node_id",
        "symbol",
        "production",
        "children",
        "token_value",
        "attributes",
        "node_count",
        "wire_size",
        "attribute_instances",
        "token_count",
    )

    def __init__(
        self,
        symbol: Symbol,
        production: Optional[Production] = None,
        children: Optional[Sequence["ParseTreeNode"]] = None,
        token_value: Any = None,
    ):
        self.node_id = next(node_ids)
        self.symbol = symbol
        self.production = production
        self.token_value = token_value
        if production is None:
            if children:
                raise ValueError("a node without a production cannot have children")
            self.children: Tuple[ParseTreeNode, ...] = _NO_CHILDREN
            self.node_count = 1
            if symbol.is_terminal:
                # Terminals never hold computed attributes (their one attribute is
                # the token value), so they allocate no dict.
                self.attributes: Optional[Dict[str, Any]] = None
                self.wire_size = 4 + (
                    len(token_value) if isinstance(token_value, str) else 4
                )
                self.attribute_instances = 0
                self.token_count = 1
            else:
                self.attributes = {}
                self.wire_size = 8
                self.attribute_instances = len(symbol.inherited)  # type: ignore[attr-defined]
                self.token_count = 0
            return
        self.children = children = tuple(children) if children else _NO_CHILDREN
        self.attributes = {}
        rhs = production.rhs
        if len(children) != len(rhs):
            raise ValueError(
                f"node for {production.label!r} needs {len(rhs)} children, "
                f"got {len(children)}"
            )
        node_count = 1
        wire_size = 8
        attribute_instances = 0
        token_count = 0
        for child, expected in zip(children, rhs):
            # Trees built from a grammar share its symbol singletons, so the
            # identity test short-circuits the (much slower) structural __eq__.
            if child.symbol is not expected and child.symbol != expected:
                raise ValueError(
                    f"node for {production.label!r}: child {child.symbol.name!r} does "
                    f"not match expected symbol {expected.name!r}"
                )
            node_count += child.node_count
            wire_size += child.wire_size
            attribute_instances += child.attribute_instances
            token_count += child.token_count
        if symbol.is_terminal:
            raise ValueError("terminal nodes cannot carry a production")
        self.node_count = node_count
        self.wire_size = wire_size
        self.attribute_instances = attribute_instances + len(symbol.attributes)  # type: ignore[attr-defined]
        self.token_count = token_count

    # ----------------------------------------------------------------- queries

    @property
    def is_terminal(self) -> bool:
        return self.symbol.is_terminal

    def instance(self, attribute_name: str) -> AttributeInstance:
        return AttributeInstance(self.node_id, attribute_name)

    def has_attribute_value(self, name: str) -> bool:
        if self.is_terminal:
            terminal = self.symbol
            assert isinstance(terminal, Terminal)
            return terminal.has_attribute(name)
        return name in self.attributes

    def get_attribute(self, name: str) -> Any:
        """Return the value of an attribute, raising ``KeyError`` if unevaluated."""
        if self.is_terminal:
            terminal = self.symbol
            assert isinstance(terminal, Terminal)
            if terminal.has_attribute(name):
                return self.token_value
            raise KeyError(f"terminal {terminal.name!r} has no attribute {name!r}")
        if name not in self.attributes:
            raise KeyError(
                f"attribute {name!r} of node {self.node_id} ({self.symbol.name}) "
                "has not been evaluated"
            )
        return self.attributes[name]

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def resolve(self, ref: AttributeRef) -> "ParseTreeNode":
        """Return the node an occurrence of this node's production refers to."""
        if self.production is None:
            raise ValueError("terminal nodes have no production occurrences")
        if ref.position == 0:
            return self
        return self.children[ref.position - 1]

    # --------------------------------------------------------------- traversal

    def walk(self) -> Iterator["ParseTreeNode"]:
        """Pre-order traversal of the subtree rooted here (iterative, deep-tree safe)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator["ParseTreeNode"]:
        for node in self.walk():
            if not node.children:
                yield node

    def walk_with_parent(
        self,
    ) -> Iterator[Tuple["ParseTreeNode", Optional["ParseTreeNode"], int]]:
        """Pre-order ``(node, parent, index)`` triples; ``index`` is the node's 1-based
        position under ``parent`` (``(self, None, 0)`` for the subtree root)."""
        stack: List[Tuple[ParseTreeNode, Optional[ParseTreeNode], int]] = [(self, None, 0)]
        while stack:
            entry = stack.pop()
            yield entry
            node = entry[0]
            children = node.children
            for index in range(len(children), 0, -1):
                stack.append((children[index - 1], node, index))

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (summed at construction)."""
        return self.node_count

    def pretty(self, indent: int = 0, max_depth: Optional[int] = None) -> str:
        """Readable multi-line rendering used by examples and error messages."""
        pad = "  " * indent
        if self.is_terminal:
            value = f" {self.token_value!r}" if self.token_value is not None else ""
            return f"{pad}{self.symbol.name}{value}"
        lines = [f"{pad}{self.symbol.name}"]
        if max_depth is not None and indent + 1 > max_depth:
            lines.append(f"{pad}  ...")
            return "\n".join(lines)
        for child in self.children:
            lines.append(child.pretty(indent + 1, max_depth))
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self.is_terminal:
            return f"ParseTreeNode(terminal {self.symbol.name!r}, id={self.node_id})"
        return (
            f"ParseTreeNode({self.symbol.name!r}, id={self.node_id}, "
            f"children={len(self.children)})"
        )


def make_terminal(terminal: Terminal, value: Any = None) -> ParseTreeNode:
    """Create a terminal leaf node."""
    return ParseTreeNode(terminal, token_value=value)


def make_node(production: Production, children: Sequence[ParseTreeNode]) -> ParseTreeNode:
    """Create a nonterminal node for ``production`` with the given children."""
    return ParseTreeNode(production.lhs, production=production, children=children)
