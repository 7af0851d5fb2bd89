"""Round trips of the packed array-of-ints tree codec, the one region wire format."""

from __future__ import annotations

import pickle
from array import array
import random

import pytest

from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.partition.decomposition import plan_decomposition
from repro.pascal import PascalCompiler
from repro.pascal.programs import (
    FACTORIAL,
    HELLO,
    NESTED,
    RECORDS,
    SORTING,
    SUMMATION,
    generate_program,
)
from repro.tree.linearize import PackedTree, codec_for, pack, unpack

PASCAL_EXAMPLES = {
    "hello": HELLO,
    "factorial": FACTORIAL,
    "summation": SUMMATION,
    "sorting": SORTING,
    "records": RECORDS,
    "nested": NESTED,
}


@pytest.fixture(scope="module")
def pascal():
    return PascalCompiler()


def _wire(packed):
    """A packed tree's records, with the sender's node ids dropped from its holes.

    Hole metadata is ``(region_id, node_id)`` pairs; a rebuilt tree has fresh node
    ids, so only the region ids can survive a round trip.
    """
    return (
        list(packed.codes),
        list(packed.values),
        list(packed.hole_meta[::2]),
        packed.root_symbol,
        packed.size_bytes(),
    )


def assert_round_trip(grammar, root, holes=None):
    """``pack(unpack(pack(tree)))`` must equal ``pack(tree)``, holes included."""
    packed = pack(grammar, root, holes)
    rebuilt, placeholders = unpack(grammar, packed)
    assert sorted(placeholders) == sorted(packed.hole_meta[::2])
    assert all(node.production is None for node in placeholders.values())
    if not holes:
        assert packed.size_bytes() == root.wire_size
        assert len(packed) == root.node_count
        assert rebuilt.pretty() == root.pretty()
    repacked = pack(
        grammar,
        rebuilt,
        {node.node_id: region for region, node in placeholders.items()},
    )
    assert _wire(repacked) == _wire(packed)


class TestPascalExamplePrograms:
    @pytest.mark.parametrize("name", sorted(PASCAL_EXAMPLES))
    def test_whole_tree_round_trip(self, pascal, name):
        tree = pascal.parse(PASCAL_EXAMPLES[name])
        assert_round_trip(pascal.grammar, tree)

    @pytest.mark.parametrize("name", sorted(PASCAL_EXAMPLES))
    def test_regions_with_holes_round_trip(self, pascal, name):
        """Every region of every example decomposition, including hole records."""
        tree = pascal.parse(PASCAL_EXAMPLES[name])
        decomposition = plan_decomposition(tree, 4)
        for region in decomposition.regions:
            holes = decomposition.holes_of(region.region_id)
            assert_round_trip(pascal.grammar, region.root, holes)

    def test_generated_program_with_holes(self, pascal):
        tree = pascal.parse(
            generate_program(procedures=12, statements_per_procedure=4, seed=3)
        )
        decomposition = plan_decomposition(tree, 6)
        assert decomposition.region_count > 1
        saw_hole = False
        for region in decomposition.regions:
            holes = decomposition.holes_of(region.region_id)
            saw_hole = saw_hole or bool(holes)
            assert_round_trip(pascal.grammar, region.root, holes)
        assert saw_hole, "decomposition produced no holes; the test lost its point"


class TestRandomizedFuzz:
    def test_random_trees_round_trip(self):
        """Randomized trees with randomized hole choices survive the codec."""
        grammar = expression_grammar(min_split_size=1)
        rng = random.Random(20260729)
        for round_number in range(25):
            source = random_expression_source(
                rng.randint(3, 60), seed=rng.randint(0, 10_000), nesting=rng.randint(1, 7)
            )
            tree = parse_expression(source, grammar)
            candidates = [
                node
                for node in tree.walk()
                if node is not tree
                and node.symbol.is_nonterminal
                and node.symbol.splittable
            ]
            rng.shuffle(candidates)
            parent_of = {
                node.node_id: parent for node, parent, _ in tree.walk_with_parent()
            }
            holes = {}
            taken = set()
            for region, node in enumerate(candidates[: rng.randint(0, 3)], start=1):
                # Nested holes are legal only if no ancestor is already detached.
                ancestor, nested = parent_of[node.node_id], False
                while ancestor is not None:
                    if ancestor.node_id in taken:
                        nested = True
                        break
                    ancestor = parent_of[ancestor.node_id]
                if nested:
                    continue
                holes[node.node_id] = region
                taken.add(node.node_id)
            assert_round_trip(grammar, tree, holes)

    def test_packed_tree_pickle_round_trip(self):
        grammar = expression_grammar(min_split_size=1)
        tree = parse_expression("let x = 3 in 1 + 2 * x ni", grammar)
        packed = pack(grammar, tree)
        clone = pickle.loads(pickle.dumps(packed))
        assert isinstance(clone, PackedTree)
        assert clone.codes == packed.codes
        assert clone.values == packed.values
        assert clone.hole_meta == packed.hole_meta
        assert clone.root_symbol == packed.root_symbol
        assert clone.size_bytes() == packed.size_bytes()
        rebuilt, holes = unpack(grammar, clone)
        assert holes == {}
        assert rebuilt.pretty() == tree.pretty()


class TestCodecTables:
    def test_codec_is_cached_per_grammar(self):
        grammar = expression_grammar()
        assert codec_for(grammar) is codec_for(grammar)

    def test_truncated_packed_tree_rejected(self):
        grammar = expression_grammar()
        tree = parse_expression("1 + 2", grammar)
        packed = pack(grammar, tree)
        broken = PackedTree(
            packed.codes[:-1], packed.values, packed.hole_meta, packed.root_symbol, 0
        )
        with pytest.raises(ValueError):
            unpack(grammar, broken)

    def test_trailing_records_rejected(self):
        grammar = expression_grammar()
        tree = parse_expression("1", grammar)
        packed = pack(grammar, tree)
        broken = PackedTree(
            packed.codes + packed.codes,
            packed.values + packed.values,
            packed.hole_meta,
            packed.root_symbol,
            0,
        )
        with pytest.raises(ValueError):
            unpack(grammar, broken)


class TestCorruptPackedTrees:
    """Corrupt or mismatched wire data must raise clear ValueErrors, never IndexErrors."""

    def _packed(self, source="let x = 3 in 1 + 2 * x ni"):
        grammar = expression_grammar()
        tree = parse_expression(source, grammar)
        return grammar, pack(grammar, tree)

    def test_production_index_out_of_range(self):
        grammar, packed = self._packed()
        codes = packed.codes[:]
        codes[0] = (len(grammar.productions) + 7) << 2  # _TAG_PRODUCTION
        broken = PackedTree(codes, packed.values, packed.hole_meta, packed.root_symbol, 0)
        with pytest.raises(ValueError, match="production index .* out of range"):
            unpack(grammar, broken)

    def test_terminal_index_out_of_range(self):
        grammar, packed = self._packed()
        codes = packed.codes[:]
        terminal_positions = [i for i, code in enumerate(codes) if code & 3 == 1]
        codes[terminal_positions[0]] = ((len(grammar.terminals) + 3) << 2) | 1
        broken = PackedTree(codes, packed.values, packed.hole_meta, packed.root_symbol, 0)
        with pytest.raises(ValueError, match="terminal index .* out of range"):
            unpack(grammar, broken)

    def test_negative_index_rejected_not_wrapped(self):
        """A negative interned index must not silently wrap around Python lists."""
        grammar, packed = self._packed()
        codes = packed.codes[:]
        codes[0] = (-2 << 2)
        broken = PackedTree(codes, packed.values, packed.hole_meta, packed.root_symbol, 0)
        with pytest.raises(ValueError, match="out of range"):
            unpack(grammar, broken)

    def test_missing_token_values(self):
        grammar, packed = self._packed()
        broken = PackedTree(packed.codes, [], packed.hole_meta, packed.root_symbol, 0)
        with pytest.raises(ValueError, match="missing token values"):
            unpack(grammar, broken)

    def test_missing_hole_metadata(self):
        grammar = expression_grammar(min_split_size=1)
        tree = parse_expression("let x = 1 in let y = 2 in x + y ni ni", grammar)
        candidates = [
            node
            for node in tree.walk()
            if node is not tree and node.symbol.is_nonterminal and node.symbol.splittable
        ]
        packed = pack(grammar, tree, {candidates[0].node_id: 1})
        broken = PackedTree(packed.codes, packed.values, array("q"), packed.root_symbol, 0)
        with pytest.raises(ValueError, match="missing hole metadata"):
            unpack(grammar, broken)

    def test_mismatched_grammar_generation(self):
        """Unpacking against a structurally different grammar raises, not IndexErrors.

        A tree packed against the full expression grammar decodes against a toy
        grammar with far fewer productions; every failure mode must surface as a
        ValueError naming the problem.
        """
        grammar, packed = self._packed()
        from repro.grammar.builder import GrammarBuilder

        b = GrammarBuilder("tiny")
        b.terminal("NUMBER", value_attribute="value")
        b.nonterminal("s", synthesized=["value"])
        b.production("s -> NUMBER")
        b.start("s")
        tiny = b.build(validate=False)
        with pytest.raises(ValueError):
            unpack(tiny, packed)


class TestHostilePostOrderStreams:
    """The post-order decoder rejects every malformed stream with a ValueError."""

    def _packed(self, source="let x = 3 in 1 + 2 * x ni", holes=False):
        grammar = expression_grammar(min_split_size=1)
        tree = parse_expression(source, grammar)
        detached = {}
        if holes:
            node = next(
                node
                for node in tree.walk()
                if node is not tree
                and node.symbol.is_nonterminal
                and node.symbol.splittable
            )
            detached = {node.node_id: 1}
        return grammar, tree, pack(grammar, tree, detached)

    def _rebuilt(self, packed, codes=None, values=None, hole_meta=None, size=None):
        return PackedTree(
            packed.codes if codes is None else codes,
            packed.values if values is None else values,
            packed.hole_meta if hole_meta is None else hole_meta,
            packed.root_symbol,
            packed.size_bytes() if size is None else size,
        )

    def test_records_are_post_order(self):
        grammar, tree, packed = self._packed()
        assert packed.codes[-1] >> 2 == tree.production.index
        assert packed.codes[0] & 3 == 1  # the first leaf comes first
        assert packed.values == [leaf.token_value for leaf in tree.leaves()]

    def test_hole_index_out_of_range(self):
        grammar, _, packed = self._packed(holes=True)
        codes = packed.codes[:]
        position = next(i for i, code in enumerate(codes) if code & 3 == 2)
        codes[position] = ((len(grammar.nonterminals) + 5) << 2) | 2
        with pytest.raises(ValueError, match="hole index .* out of range"):
            unpack(grammar, self._rebuilt(packed, codes=codes))

    def test_half_a_hole_record_is_missing_metadata(self):
        grammar, _, packed = self._packed(holes=True)
        with pytest.raises(ValueError, match="missing hole metadata"):
            unpack(grammar, self._rebuilt(packed, hole_meta=packed.hole_meta[:1]))

    def test_unknown_tag(self):
        grammar, _, packed = self._packed()
        codes = packed.codes[:]
        codes[0] |= 3
        with pytest.raises(ValueError, match="unknown packed record tag"):
            unpack(grammar, self._rebuilt(packed, codes=codes))

    def test_truncated_to_a_whole_subtree(self):
        """A prefix of a post-order stream can be a whole tree of the root's own
        symbol; the sender's size tells it apart."""
        grammar, tree, _ = self._packed("1 + 2")
        expression = tree.children[0]
        assert expression.children[0].symbol is expression.symbol
        packed = pack(grammar, expression)
        first = expression.children[0]
        truncated = self._rebuilt(
            packed,
            codes=packed.codes[: first.node_count],
            values=packed.values[: first.token_count],
        )
        with pytest.raises(ValueError, match="truncated"):
            unpack(grammar, truncated)

    def test_truncated_mid_production(self):
        grammar, _, packed = self._packed()
        for cut in range(1, len(packed.codes)):
            codes = packed.codes[:cut]
            values = packed.values[: sum(1 for code in codes if code & 3 == 1)]
            with pytest.raises(ValueError):
                unpack(grammar, self._rebuilt(packed, codes=codes, values=values))

    def test_trailing_records(self):
        grammar, _, packed = self._packed()
        codes = packed.codes[:]
        codes.append(packed.codes[0])
        with pytest.raises(ValueError, match="trailing records"):
            unpack(
                grammar, self._rebuilt(packed, codes=codes, values=packed.values + ["1"])
            )

    def test_trailing_token_values(self):
        grammar, _, packed = self._packed()
        with pytest.raises(ValueError, match="trailing token values"):
            unpack(grammar, self._rebuilt(packed, values=packed.values + ["1"]))

    def test_child_symbol_not_on_the_right_hand_side(self):
        grammar, _, packed = self._packed("1 + 2")
        codes = list(packed.codes)
        # [NUMBER, expr -> NUMBER, +, ...]: hand the unit production the "+" leaf.
        codes[1], codes[2] = codes[2], codes[1]
        broken = self._rebuilt(packed, codes=array("i", codes))
        with pytest.raises(ValueError, match="does not match expected symbol"):
            unpack(grammar, broken)

    def test_production_without_enough_children(self):
        grammar, _, packed = self._packed("1 + 2")
        codes = array("i", [packed.codes[-1]])
        with pytest.raises(ValueError, match="truncated"):
            unpack(grammar, self._rebuilt(packed, codes=codes, values=[]))
