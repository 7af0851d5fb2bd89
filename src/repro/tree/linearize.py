"""Linearization of parse (sub)trees for network transmission.

The paper's parser ships each detached subtree to its evaluator machine in a linearized
form; the evaluator reconstructs the subtree before evaluation.  We mirror that with a
compact pre-order list-of-records representation whose abstract size is what the network
model charges for the transfer.

A linearized subtree may contain *holes*: positions at which a nested subtree was itself
detached and shipped to a different evaluator.  Holes are recorded with the nonterminal
name and the identifier of the remote region so that the receiving evaluator can set up
remote-attribute placeholders.

Two wire representations share the same pre-order record model:

* :class:`LinearizedTree` — readable list-of-tuples records (tag strings, symbol
  names).  The simulated substrate uses it exclusively, keeping every figure
  reproduction byte-identical.
* :class:`PackedTree` — the compact array-of-ints codec used by the real substrates.
  Symbols and productions are interned against per-grammar tables
  (:class:`GrammarCodec`, built once per grammar per process and cached), so a whole
  subtree crosses a process boundary as one machine-typed int array plus a flat list
  of token values — no per-record tuples or symbol-name strings to pickle.  The
  symbol tables themselves never cross: both ends derive them deterministically from
  the grammar they already share (shipped once per worker via the job bundle).
"""

from __future__ import annotations

import weakref
from array import array
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.grammar.grammar import AttributeGrammar
from repro.tree.node import ParseTreeNode, make_node, make_terminal


class LinearizedTree:
    """Flat representation of a subtree.

    ``records`` is a pre-order list of tuples:

    * ``("T", terminal_name, token_value)`` for terminal leaves,
    * ``("P", production_index)`` for nonterminal nodes (children follow in order),
    * ``("H", nonterminal_name, region_id, original_node_id)`` for holes standing in for
      subtrees evaluated remotely.
    """

    __slots__ = ("records", "root_symbol")

    def __init__(self, records: List[Tuple], root_symbol: str):
        self.records = records
        self.root_symbol = root_symbol

    def size_bytes(self) -> int:
        """Abstract transmission size of the linearized form."""
        total = 0
        for record in self.records:
            if record[0] == "T":
                value = record[2]
                total += 4 + (len(value) if isinstance(value, str) else 4)
            elif record[0] == "P":
                total += 8
            else:
                total += 16
        return total

    def __len__(self) -> int:
        return len(self.records)


def linearize(
    root: ParseTreeNode,
    holes: Optional[Dict[int, int]] = None,
) -> LinearizedTree:
    """Linearize the subtree rooted at ``root``.

    :param holes: maps ``node_id`` of detached child subtrees to the region id they were
        assigned to.  Those subtrees are replaced by hole records and not descended into.
    """
    holes = holes or {}
    records: List[Tuple] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.node_id in holes and node is not root:
            records.append(("H", node.symbol.name, holes[node.node_id], node.node_id))
            continue
        if node.is_terminal:
            records.append(("T", node.symbol.name, node.token_value))
        else:
            assert node.production is not None
            records.append(("P", node.production.index))
            stack.extend(reversed(node.children))
    return LinearizedTree(records, root.symbol.name)


def delinearize(
    grammar: AttributeGrammar, linearized: LinearizedTree
) -> Tuple[ParseTreeNode, Dict[int, ParseTreeNode]]:
    """Rebuild a subtree from its linearized form.

    Returns the new root node and a mapping from region id to the hole placeholder nodes
    created for remotely evaluated subtrees.  Hole nodes carry the nonterminal symbol but
    no production or children; their synthesized attributes are later supplied from the
    network and their inherited attributes must be exported to the owning evaluator.
    """
    position = 0
    holes: Dict[int, ParseTreeNode] = {}

    def build() -> ParseTreeNode:
        nonlocal position
        if position >= len(linearized.records):
            raise ValueError("truncated linearized tree")
        record = linearized.records[position]
        position += 1
        tag = record[0]
        if tag == "T":
            terminal = grammar.terminals[record[1]]
            return make_terminal(terminal, record[2])
        if tag == "H":
            nonterminal = grammar.nonterminals[record[1]]
            node = ParseTreeNode(nonterminal)
            holes[record[2]] = node
            return node
        if tag == "P":
            production = grammar.productions[record[1]]
            children = [build() for _ in production.rhs]
            return make_node(production, children)
        raise ValueError(f"unknown linearized record tag {tag!r}")

    root = build()
    if position != len(linearized.records):
        raise ValueError("trailing records after linearized tree")
    return root, holes


# ------------------------------------------------------------------ packed codec

#: Record tags in the low two bits of a packed code word.
_TAG_PRODUCTION = 0
_TAG_TERMINAL = 1
_TAG_HOLE = 2


class GrammarCodec:
    """Interned symbol/production tables for the packed codec, one per grammar.

    The tables are derived purely from the grammar's own (insertion-ordered) symbol
    dictionaries, so a worker that unpickled the same grammar builds byte-identical
    tables without anything extra crossing the wire.
    """

    # No reference back to the grammar: the cache below weak-keys on the grammar, and
    # a value that strongly referenced its key would never let either be collected.
    __slots__ = (
        "terminal_list",
        "terminal_index",
        "nonterminal_list",
        "nonterminal_index",
        "production_arity",
    )

    def __init__(self, grammar: AttributeGrammar):
        self.terminal_list = list(grammar.terminals.values())
        self.terminal_index = {
            terminal.name: index for index, terminal in enumerate(self.terminal_list)
        }
        self.nonterminal_list = list(grammar.nonterminals.values())
        self.nonterminal_index = {
            nonterminal.name: index
            for index, nonterminal in enumerate(self.nonterminal_list)
        }
        self.production_arity = array(
            "q", (len(production.rhs) for production in grammar.productions)
        )


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

    ``codes`` holds one 32-bit int per pre-order record: the record tag in the low
    two bits and an interned table index in the rest — a production index for nonterminal
    nodes, a terminal-table index for leaves, a nonterminal-table index for holes.
    ``values`` carries the token values of terminal records in order; ``hole_meta``
    carries ``(region_id, original_node_id)`` pairs of hole records in order.
    ``size_bytes`` is precomputed at pack time with exactly the same accounting as
    :meth:`LinearizedTree.size_bytes`, so the network cost model charges identically
    for either representation.
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
        """Abstract transmission size (identical to the linearized form's)."""
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

    Same traversal and ``holes`` contract as :func:`linearize`; the two forms encode
    identical record sequences and rebuild identical trees.
    """
    codec = codec_for(grammar)
    terminal_index = codec.terminal_index
    nonterminal_index = codec.nonterminal_index
    holes = holes or {}
    codes = array("i")
    values: List[Any] = []
    hole_meta = array("q")
    # The region's bytes are its root's summary less each detached subtree, which
    # a 16-byte hole record replaces.
    size = root.wire_size
    stack = [root]
    while stack:
        node = stack.pop()
        if node.node_id in holes and node is not root:
            codes.append((nonterminal_index[node.symbol.name] << 2) | _TAG_HOLE)
            hole_meta.append(holes[node.node_id])
            hole_meta.append(node.node_id)
            size += 16 - node.wire_size
            continue
        if node.is_terminal:
            codes.append((terminal_index[node.symbol.name] << 2) | _TAG_TERMINAL)
            values.append(node.token_value)
        else:
            assert node.production is not None
            codes.append((node.production.index << 2) | _TAG_PRODUCTION)
            stack.extend(reversed(node.children))
    return PackedTree(codes, values, hole_meta, root.symbol.name, size)


def unpack(
    grammar: AttributeGrammar, packed: PackedTree
) -> Tuple[ParseTreeNode, Dict[int, ParseTreeNode]]:
    """Rebuild a subtree from its packed form (iterative, deep-tree safe).

    Returns the new root and the region-id → hole-placeholder mapping, exactly like
    :func:`delinearize`.
    """
    codec = codec_for(grammar)
    productions = grammar.productions
    terminal_list = codec.terminal_list
    nonterminal_list = codec.nonterminal_list
    arity = codec.production_arity
    holes: Dict[int, ParseTreeNode] = {}
    values = packed.values
    hole_meta = packed.hole_meta
    value_position = 0
    hole_position = 0
    # Each frame is [production, children]; a node completing fills its parent frame.
    frames: List[List[Any]] = []
    root: Optional[ParseTreeNode] = None
    for code in packed.codes:
        if root is not None:
            raise ValueError("trailing records after packed tree")
        tag = code & 3
        index = code >> 2
        if tag == _TAG_PRODUCTION:
            if not 0 <= index < len(productions):
                raise ValueError(
                    f"packed production index {index} out of range for a grammar with "
                    f"{len(productions)} productions (corrupt tree or mismatched "
                    "grammar generation)"
                )
            if arity[index]:
                frames.append([productions[index], []])
                continue
            node = make_node(productions[index], [])
        elif tag == _TAG_TERMINAL:
            if not 0 <= index < len(terminal_list):
                raise ValueError(
                    f"packed terminal index {index} out of range for a grammar with "
                    f"{len(terminal_list)} terminals (corrupt tree or mismatched "
                    "grammar generation)"
                )
            if value_position >= len(values):
                raise ValueError(
                    "packed tree is missing token values for its terminal records"
                )
            node = make_terminal(terminal_list[index], values[value_position])
            value_position += 1
        elif tag == _TAG_HOLE:
            if not 0 <= index < len(nonterminal_list):
                raise ValueError(
                    f"packed hole index {index} out of range for a grammar with "
                    f"{len(nonterminal_list)} nonterminals (corrupt tree or mismatched "
                    "grammar generation)"
                )
            if hole_position + 1 >= len(hole_meta):
                raise ValueError(
                    "packed tree is missing hole metadata for its hole records"
                )
            node = ParseTreeNode(nonterminal_list[index])
            holes[hole_meta[hole_position]] = node
            hole_position += 2
        else:
            raise ValueError(f"unknown packed record tag {tag!r}")
        while True:
            if not frames:
                root = node
                break
            frame = frames[-1]
            frame[1].append(node)
            if len(frame[1]) < len(frame[0].rhs):
                break
            frames.pop()
            node = make_node(frame[0], frame[1])
    if root is None or frames:
        raise ValueError("truncated packed tree")
    if value_position != len(values):
        raise ValueError("trailing token values after packed tree")
    return root, holes


def pack_linearized(grammar: AttributeGrammar, linearized: LinearizedTree) -> PackedTree:
    """Convert the readable record form into the packed codec (for parity checks)."""
    codec = codec_for(grammar)
    codes = array("i")
    values: List[Any] = []
    hole_meta = array("q")
    for record in linearized.records:
        tag = record[0]
        if tag == "T":
            codes.append((codec.terminal_index[record[1]] << 2) | _TAG_TERMINAL)
            values.append(record[2])
        elif tag == "P":
            codes.append((record[1] << 2) | _TAG_PRODUCTION)
        elif tag == "H":
            codes.append((codec.nonterminal_index[record[1]] << 2) | _TAG_HOLE)
            hole_meta.append(record[2])
            hole_meta.append(record[3])
        else:
            raise ValueError(f"unknown linearized record tag {tag!r}")
    return PackedTree(
        codes, values, hole_meta, linearized.root_symbol, linearized.size_bytes()
    )


def unpack_linearized(grammar: AttributeGrammar, packed: PackedTree) -> LinearizedTree:
    """Convert a packed tree back into the readable record form (for parity checks)."""
    codec = codec_for(grammar)
    records: List[Tuple] = []
    value_position = 0
    hole_position = 0
    for code in packed.codes:
        tag = code & 3
        index = code >> 2
        if tag == _TAG_TERMINAL:
            records.append(("T", codec.terminal_list[index].name, packed.values[value_position]))
            value_position += 1
        elif tag == _TAG_PRODUCTION:
            records.append(("P", index))
        elif tag == _TAG_HOLE:
            records.append(
                (
                    "H",
                    codec.nonterminal_list[index].name,
                    packed.hole_meta[hole_position],
                    packed.hole_meta[hole_position + 1],
                )
            )
            hole_position += 2
        else:
            raise ValueError(f"unknown packed record tag {tag!r}")
    return LinearizedTree(records, packed.root_symbol)


def rebuild(
    grammar: AttributeGrammar, tree: Union[PackedTree, LinearizedTree]
) -> Tuple[ParseTreeNode, Dict[int, ParseTreeNode]]:
    """Rebuild a subtree from either wire representation."""
    if isinstance(tree, PackedTree):
        return unpack(grammar, tree)
    return delinearize(grammar, tree)
