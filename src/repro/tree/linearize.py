"""Linearization of parse (sub)trees for network transmission.

The paper's parser ships each detached subtree to its evaluator machine in a linearized
form; the evaluator reconstructs the subtree before evaluation.  Every substrate ships
the same form, a :class:`PackedTree`: one post-order record per node, packed into an
array of ints, whose abstract size is what the network model charges for the transfer.

A linearized subtree may contain *holes*: positions at which a nested subtree was itself
detached and shipped to a different evaluator.  Holes are recorded with the nonterminal
and the identifier of the remote region so that the receiving evaluator can set up
remote-attribute placeholders.

Symbols and productions are interned against per-grammar tables (:class:`GrammarCodec`,
built once per grammar per process and cached), so a whole subtree crosses a process
boundary as one machine-typed int array plus a flat list of token values — no
per-record tuples or symbol-name strings to pickle.  The symbol tables themselves never
cross: both ends derive them deterministically from the grammar they already share
(shipped once per worker via the job bundle).

Post-order is also what an LR parser's reductions produce, so one stack machine,
:func:`build`, makes every node: :func:`unpack` runs it over a shipped region, and
:meth:`repro.parsing.parser.Parser.parse` over the records its recogniser emits.  It is
iterative, so region depth is bounded by memory, not by the interpreter's recursion
limit.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.tree.node import _NO_CHILDREN, ParseTreeNode, node_ids

#: Record tags in the low two bits of a packed code word.
_TAG_PRODUCTION = 0
_TAG_TERMINAL = 1
_TAG_HOLE = 2


class GrammarCodec:
    """Interned symbol/production tables for the packed codec, one per grammar.

    The tables are derived purely from the grammar's own (insertion-ordered) symbol
    dictionaries, so a worker that unpickled the same grammar builds byte-identical
    tables without anything extra crossing the wire.

    Symbols share one id space for :func:`build`'s child check: terminal ``i`` is id
    ``i``, nonterminal ``j`` is id ``len(terminal_list) + j``.
    """

    # No reference back to the grammar: the cache below weak-keys on the grammar, and
    # a value that strongly referenced its key would never let either be collected.
    __slots__ = (
        "terminal_list",
        "terminal_index",
        "terminal_code",
        "nonterminal_list",
        "nonterminal_index",
        "production_arity",
        "production_lhs",
        "production_lhs_name",
        "production_lhs_id",
        "production_rhs_ids",
        "production_attributes",
        "record_arity",
    )

    def __init__(self, grammar: AttributeGrammar):
        self.terminal_list = list(grammar.terminals.values())
        self.terminal_index = {
            terminal.name: index for index, terminal in enumerate(self.terminal_list)
        }
        #: Token kind -> the packed code of its terminal record.
        self.terminal_code = {
            name: (index << 2) | _TAG_TERMINAL
            for name, index in self.terminal_index.items()
        }
        self.nonterminal_list = list(grammar.nonterminals.values())
        self.nonterminal_index = {
            nonterminal.name: index
            for index, nonterminal in enumerate(self.nonterminal_list)
        }
        offset = len(self.terminal_list)
        symbol_id = dict(self.terminal_index)
        for name, index in self.nonterminal_index.items():
            symbol_id[name] = offset + index
        productions = grammar.productions
        self.production_arity = [len(production.rhs) for production in productions]
        self.production_lhs = [production.lhs for production in productions]
        self.production_lhs_name = [production.lhs.name for production in productions]
        self.production_lhs_id = [
            symbol_id.get(production.lhs.name, -1) for production in productions
        ]
        # Lists, not tuples: ``build`` compares them with a list slice.
        self.production_rhs_ids = [
            [symbol_id.get(symbol.name, -1) for symbol in production.rhs]
            for production in productions
        ]
        self.production_attributes = [
            len(production.lhs.attributes) for production in productions
        ]
        #: Children of a record by its packed code: a production's arity, 0 for a
        #: terminal or a hole.
        self.record_arity = [0] * (
            max(len(productions), len(self.terminal_list), len(self.nonterminal_list)) << 2
        )
        for index, count in enumerate(self.production_arity):
            self.record_arity[index << 2] = count  # _TAG_PRODUCTION


_codec_cache: "weakref.WeakKeyDictionary[AttributeGrammar, GrammarCodec]" = (
    weakref.WeakKeyDictionary()
)


def codec_for(grammar: AttributeGrammar) -> GrammarCodec:
    """The cached :class:`GrammarCodec` of ``grammar`` (built on first use)."""
    codec = _codec_cache.get(grammar)
    if codec is None:
        codec = GrammarCodec(grammar)
        _codec_cache[grammar] = codec
    return codec


class PackedTree:
    """Array-of-ints form of a linearized subtree.

    ``codes`` holds one 32-bit int per post-order record (children before their
    parent, left to right): the record tag in the low two bits and an interned table
    index in the rest — a production index for nonterminal nodes, a terminal-table
    index for leaves, a nonterminal-table index for holes.  ``values`` carries the
    token values of terminal records in order; ``hole_meta`` carries
    ``(region_id, original_node_id)`` pairs of hole records in order.  ``size_bytes``
    is precomputed at pack time: 8 bytes per nonterminal record, 16 per hole, and 4
    plus the token's length (4 for a non-string token) per terminal.
    """

    __slots__ = ("codes", "values", "hole_meta", "root_symbol", "_size_bytes")

    def __init__(
        self,
        codes: array,
        values: List[Any],
        hole_meta: array,
        root_symbol: str,
        size_bytes: int,
    ):
        self.codes = codes
        self.values = values
        self.hole_meta = hole_meta
        self.root_symbol = root_symbol
        self._size_bytes = size_bytes

    def size_bytes(self) -> int:
        """Abstract transmission size, charged by the network model."""
        return self._size_bytes

    def __len__(self) -> int:
        return len(self.codes)

    def __reduce__(self):
        return (
            PackedTree,
            (self.codes, self.values, self.hole_meta, self.root_symbol, self._size_bytes),
        )


def pack(
    grammar: AttributeGrammar,
    root: ParseTreeNode,
    holes: Optional[Dict[int, int]] = None,
) -> PackedTree:
    """Pack the subtree rooted at ``root`` into the array-of-ints codec.

    :param holes: maps ``node_id`` of detached child subtrees to the region id they were
        assigned to.  Those subtrees are replaced by hole records and not descended into.
    """
    codec = codec_for(grammar)
    terminal_code = codec.terminal_code
    nonterminal_index = codec.nonterminal_index
    holes = holes or {}
    codes = array("i")
    values: List[Any] = []
    hole_pairs: List[Tuple[int, int]] = []
    # The region's bytes are its root's summary less each detached subtree, which
    # a 16-byte hole record replaces.
    size = root.wire_size
    # Visiting a node before its children, last child first, yields the post-order
    # sequence backwards; the three lists are reversed at the end.
    stack = [root]
    while stack:
        node = stack.pop()
        if node.node_id in holes and node is not root:
            codes.append((nonterminal_index[node.symbol.name] << 2) | _TAG_HOLE)
            hole_pairs.append((node.node_id, holes[node.node_id]))
            size += 16 - node.wire_size
        elif node.production is None:
            codes.append(terminal_code[node.symbol.name])
            values.append(node.token_value)
        else:
            codes.append(node.production.index << 2)  # _TAG_PRODUCTION
            stack.extend(node.children)
    codes.reverse()
    values.reverse()
    hole_meta = array("q")
    for node_id, region in reversed(hole_pairs):
        hole_meta.append(region)
        hole_meta.append(node_id)
    return PackedTree(codes, values, hole_meta, root.symbol.name, size)


def build(
    grammar: AttributeGrammar,
    codes: Iterable[int],
    values: Sequence[Any],
    hole_meta: Sequence[int] = (),
) -> Tuple[ParseTreeNode, Dict[int, ParseTreeNode]]:
    """Build a tree from its post-order records (every parsed or unpacked node).

    Returns the root and the hole placeholders by region id.  A production record
    takes the last ``arity`` subtrees as its children, after one list-slice compare
    of their symbol ids against the production's right-hand side; the four subtree
    summaries are summed here, so no node is validated twice.  Out-of-range indices,
    missing token values or hole metadata, and records that do not make exactly one
    tree raise ``ValueError``.
    """
    codec = codec_for(grammar)
    productions = grammar.productions
    terminals = codec.terminal_list
    nonterminals = codec.nonterminal_list
    arity = codec.production_arity
    lhs = codec.production_lhs
    lhs_id = codec.production_lhs_id
    rhs_ids = codec.production_rhs_ids
    own_attributes = codec.production_attributes
    offset = len(terminals)
    new = object.__new__
    next_id = node_ids.__next__
    nodes: List[ParseTreeNode] = []
    ids: List[int] = []
    holes: Dict[int, ParseTreeNode] = {}
    value_position = 0
    hole_position = 0
    try:
        for code in codes:
            tag = code & 3
            index = code >> 2
            if index < 0:
                raise IndexError(index)
            node = new(ParseTreeNode)
            node.node_id = next_id()
            if tag == _TAG_PRODUCTION:
                count = arity[index]
                node.symbol = lhs[index]
                node.production = productions[index]
                node.token_value = None
                node.attributes = {}
                if count:
                    if ids[-count:] != rhs_ids[index]:
                        raise _child_mismatch(codec, productions[index], ids[-count:])
                    node.children = children = tuple(nodes[-count:])
                    del nodes[-count:]
                    del ids[-count:]
                    node_count = 1
                    wire_size = 8
                    attribute_instances = own_attributes[index]
                    token_count = 0
                    for child in children:
                        node_count += child.node_count
                        wire_size += child.wire_size
                        attribute_instances += child.attribute_instances
                        token_count += child.token_count
                    node.node_count = node_count
                    node.wire_size = wire_size
                    node.attribute_instances = attribute_instances
                    node.token_count = token_count
                else:
                    node.children = _NO_CHILDREN
                    node.node_count = 1
                    node.wire_size = 8
                    node.attribute_instances = own_attributes[index]
                    node.token_count = 0
                ids.append(lhs_id[index])
            elif tag == _TAG_TERMINAL:
                node.symbol = terminals[index]
                node.production = None
                node.token_value = value = values[value_position]
                value_position += 1
                node.children = _NO_CHILDREN
                node.attributes = None
                node.node_count = 1
                node.wire_size = 4 + (len(value) if isinstance(value, str) else 4)
                node.attribute_instances = 0
                node.token_count = 1
                ids.append(index)
            elif tag == _TAG_HOLE:
                node.symbol = symbol = nonterminals[index]
                # The pair's second half (the sender's node id) must be there too.
                region, _ = hole_meta[hole_position], hole_meta[hole_position + 1]
                hole_position += 2
                node.production = None
                node.token_value = None
                node.children = _NO_CHILDREN
                node.attributes = {}
                node.node_count = 1
                node.wire_size = 8
                node.attribute_instances = len(symbol.inherited)
                node.token_count = 0
                holes[region] = node
                ids.append(offset + index)
            else:
                raise ValueError(f"unknown packed record tag {tag!r}")
            nodes.append(node)
    except IndexError:
        _diagnose(grammar, codes, values, hole_meta)
        raise
    if len(nodes) != 1:
        raise ValueError(
            f"packed tree leaves {len(nodes)} subtrees instead of one "
            "(truncated, or trailing records)"
        )
    if value_position != len(values):
        raise ValueError("trailing token values after packed tree")
    return nodes[0], holes


def _child_mismatch(codec: GrammarCodec, production, found: List[int]) -> ValueError:
    expected = codec.production_rhs_ids[production.index]
    if len(found) < len(expected):
        return ValueError(
            f"truncated packed tree: {production.label!r} needs {len(expected)} "
            f"children, {len(found)} precede it"
        )
    names = [symbol.name for symbol in codec.terminal_list + codec.nonterminal_list]
    for got, want in zip(found, expected):
        if got != want:
            return ValueError(
                f"node for {production.label!r}: child {names[got]!r} does not match "
                f"expected symbol {names[want]!r}"
            )
    return ValueError(f"node for {production.label!r}: child symbols do not match")


def _diagnose(grammar: AttributeGrammar, codes, values, hole_meta) -> None:
    """Name the first record that made :func:`build` index out of range."""
    codec = codec_for(grammar)
    tables = {
        _TAG_PRODUCTION: ("production", len(grammar.productions), "productions"),
        _TAG_TERMINAL: ("terminal", len(codec.terminal_list), "terminals"),
        _TAG_HOLE: ("hole", len(codec.nonterminal_list), "nonterminals"),
    }
    value_count = hole_count = 0
    for code in codes:
        tag, index = code & 3, code >> 2
        if tag not in tables:
            continue
        what, size, plural = tables[tag]
        if not 0 <= index < size:
            raise ValueError(
                f"packed {what} index {index} out of range for a grammar with "
                f"{size} {plural} (corrupt tree or mismatched grammar generation)"
            )
        if tag == _TAG_TERMINAL:
            value_count += 1
            if value_count > len(values):
                raise ValueError(
                    "packed tree is missing token values for its terminal records"
                )
        elif tag == _TAG_HOLE:
            hole_count += 2
            if hole_count > len(hole_meta):
                raise ValueError(
                    "packed tree is missing hole metadata for its hole records"
                )


def unpack(
    grammar: AttributeGrammar, packed: PackedTree
) -> Tuple[ParseTreeNode, Dict[int, ParseTreeNode]]:
    """Rebuild a subtree from its packed form (iterative, deep-tree safe).

    Returns the new root node and a mapping from region id to the hole placeholder nodes
    created for remotely evaluated subtrees.  Hole nodes carry the nonterminal symbol but
    no production or children; their synthesized attributes are later supplied from the
    network and their inherited attributes must be exported to the owning evaluator.
    """
    root, holes = build(grammar, packed.codes, packed.values, packed.hole_meta)
    # A prefix of a post-order stream can itself be a whole subtree; the size the
    # sender charged (a hole record is 16 bytes, a hole node 8) tells them apart.
    if (
        root.symbol.name != packed.root_symbol
        or root.wire_size + 8 * len(holes) != packed.size_bytes()
    ):
        raise ValueError("truncated packed tree: its root does not match its header")
    return root, holes
