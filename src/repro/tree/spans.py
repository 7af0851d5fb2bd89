"""A parse kept as the recogniser emitted it: post-order records read as subtrees.

:meth:`repro.parsing.parser.Parser.recognise` emits one code per node in post-order and
the shifted tokens' text.  Every subtree of the parse is a contiguous run of those
records ending at its root's record, so a record's *span* — its subtree's first
record — is all it takes to read the parse as a tree without building one.  A
:class:`SpanNode` is that reading of one record: it has the ``node_id`` (its post-order
index), ``symbol``, ``children``, ``node_count``, ``wire_size`` and ``token_count`` a
:class:`~repro.tree.node.ParseTreeNode` has, so
:func:`~repro.partition.decomposition.plan_decomposition` plans over it unchanged, and a
region ships as a slice of the codes and values with a hole record in place of each
detached child region (:meth:`PostOrderSpans.pack`), equal to what
:func:`~repro.tree.linearize.pack` makes of the built tree.

Only the records the planner asks about become :class:`SpanNode` objects: a compile of
source text builds no :class:`~repro.tree.node.ParseTreeNode` in the driving process,
and each evaluator builds only its own region with :func:`~repro.tree.linearize.unpack`.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, repeat
from operator import and_
from typing import Any, Dict, List, Sequence, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.tree.linearize import _TAG_HOLE, PackedTree, codec_for


class PostOrderSpans:
    """The recogniser's post-order ``codes`` and token ``values``, and each record's span.

    ``starts[i]`` is the first record of record ``i``'s subtree; ``value_at[i]`` the
    number of terminal records before record ``i`` (so a subtree's token values are
    ``values[value_at[start]:value_at[i + 1]]``); ``text_at[k]`` the total length of
    the first ``k`` token values.  Those three prefix tables give every record's
    summaries in O(1), the way the built tree's nodes carry them.
    """

    __slots__ = ("grammar", "codec", "codes", "values", "starts", "value_at", "text_at")

    def __init__(
        self, grammar: AttributeGrammar, codes: Sequence[int], values: Sequence[str]
    ):
        codec = codec_for(grammar)
        arity = codec.record_arity
        starts: List[int] = []
        mark = starts.append
        open_subtrees: List[int] = []  # first record of each subtree not yet reduced
        push = open_subtrees.append
        for index, code in enumerate(codes):
            count = arity[code]
            if count:
                start = open_subtrees[-count]
                del open_subtrees[-count:]
            else:  # a terminal, or a production with no children
                start = index
            push(start)
            mark(start)
        if len(open_subtrees) != 1:
            raise ValueError(
                f"post-order records make {len(open_subtrees)} subtrees instead of one"
            )
        self.grammar = grammar
        self.codec = codec
        self.codes = codes
        self.values = values
        self.starts = starts
        self.value_at = list(accumulate(map(and_, codes, repeat(1)), initial=0))
        # Token values are scanner text; the codec charges a non-string value 4 bytes.
        self.text_at = list(
            accumulate(
                (len(value) if isinstance(value, str) else 4 for value in values),
                initial=0,
            )
        )

    @property
    def root(self) -> "SpanNode":
        """The whole parse, as the span of its last record."""
        return SpanNode(self, len(self.codes) - 1)

    def wire_size(self, start: int, end: int) -> int:
        """Abstract bytes of records ``[start, end)``: 8 per production, 4 + text per
        token."""
        value_at = self.value_at
        first, last = value_at[start], value_at[end]
        tokens = last - first
        text = self.text_at[last] - self.text_at[first]
        return 8 * (end - start - tokens) + 4 * tokens + text

    def pack(self, root: "SpanNode", holes: Dict[int, int]) -> PackedTree:
        """The region under ``root`` as a packed tree: its slice of the records, with
        a hole record in place of each detached subtree.

        :param holes: maps the ``node_id`` of each detached child-region root (a
            record under ``root``) to its region id, as
            :meth:`~repro.partition.decomposition.DecompositionPlan.holes_of` gives it.
        """
        codes = self.codes
        values = self.values
        value_at = self.value_at
        nonterminal_index = self.codec.nonterminal_index
        out = array("i")
        out_values: List[Any] = []
        hole_meta = array("q")
        size = root.wire_size
        position = root.start
        for record in sorted(holes):
            hole = SpanNode(self, record)
            out.extend(codes[position : hole.start])
            out_values.extend(values[value_at[position] : value_at[hole.start]])
            out.append((nonterminal_index[hole.symbol.name] << 2) | _TAG_HOLE)
            hole_meta.append(holes[record])
            hole_meta.append(record)
            size += 16 - hole.wire_size
            position = record + 1
        end = root.node_id + 1
        out.extend(codes[position:end])
        out_values.extend(values[value_at[position] : value_at[end]])
        return PackedTree(out, out_values, hole_meta, root.symbol.name, size)


class SpanNode:
    """One record of a :class:`PostOrderSpans`, read as the subtree it ends.

    Duck-types the parts of :class:`~repro.tree.node.ParseTreeNode` that planning reads.
    ``node_id`` is the record's post-order index, unique within its parse.
    """

    __slots__ = ("spans", "node_id", "start", "symbol", "_children")

    def __init__(self, spans: PostOrderSpans, index: int):
        self.spans = spans
        self.node_id = index
        self.start = spans.starts[index]
        code = spans.codes[index]
        codec = spans.codec
        if code & 3:
            self.symbol = codec.terminal_list[code >> 2]
        else:
            self.symbol = codec.production_lhs[code >> 2]
        self._children: Any = None

    @property
    def children(self) -> Tuple["SpanNode", ...]:
        """The child spans, left to right (made on first use, then kept)."""
        if self._children is None:
            spans = self.spans
            code = spans.codes[self.node_id]
            children: List[SpanNode] = []
            if not code & 3:
                starts = spans.starts
                index = self.node_id - 1
                for _ in range(spans.codec.production_arity[code >> 2]):
                    children.append(SpanNode(spans, index))
                    index = starts[index] - 1
                children.reverse()
            self._children = tuple(children)
        return self._children

    @property
    def node_count(self) -> int:
        return self.node_id - self.start + 1

    @property
    def wire_size(self) -> int:
        return self.spans.wire_size(self.start, self.node_id + 1)

    @property
    def token_count(self) -> int:
        value_at = self.spans.value_at
        return value_at[self.node_id + 1] - value_at[self.start]

    def __repr__(self) -> str:
        return f"SpanNode({self.symbol.name}, records {self.start}..{self.node_id})"
