"""Tests for parse trees, the packed wire codec and decomposition planning."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.partition.decomposition import plan_decomposition
from repro.partition.splitter import detach_subtree, splittable_nodes
from repro.tree.linearize import pack, unpack
from repro.tree.node import ParseTreeNode
from repro.tree.stats import tree_statistics


class TestTreeNodes:
    def test_walk_and_size(self, expr_grammar):
        tree = parse_expression("1 + 2 * 3")
        assert tree.subtree_size() == sum(1 for _ in tree.walk())
        assert tree.symbol.name == "main_expr"

    def test_parent_and_child_index(self):
        tree = parse_expression("1 + 2")
        expr = tree.children[0]
        triples = list(tree.walk_with_parent())
        assert triples[0] == (tree, None, 0)
        assert triples[1] == (expr, tree, 1)
        assert [node for node, _, _ in triples] == list(tree.walk())
        assert all(
            parent.children[index - 1] is node for node, parent, index in triples[1:]
        )
        assert not hasattr(expr, "parent") and not hasattr(expr, "child_index")

    def test_resolve_occurrences(self):
        tree = parse_expression("1 + 2")
        expr = tree.children[0]
        from repro.grammar.productions import AttributeRef

        assert expr.resolve(AttributeRef(0, "value")) is expr
        assert expr.resolve(AttributeRef(1, "value")) is expr.children[0]

    def test_get_unevaluated_attribute_raises(self):
        tree = parse_expression("1")
        with pytest.raises(KeyError):
            tree.get_attribute("value")

    def test_pretty_renders(self):
        text = parse_expression("1 + 2").pretty()
        assert "main_expr" in text
        assert "NUMBER" in text

    def test_statistics(self):
        tree = parse_expression("let x = 3 in x * x ni")
        stats = tree_statistics(tree)
        assert stats.node_count == tree.subtree_size()
        assert stats.terminal_count > 0
        assert stats.max_depth > 3
        assert stats.nodes_by_symbol["block"] == 1


class TestLinearize:
    @pytest.mark.parametrize("source", ["1", "1 + 2 * 3", "let x = 3 in 1 + 2 * x ni"])
    def test_round_trip(self, expr_grammar, source):
        tree = parse_expression(source)
        rebuilt, holes = unpack(expr_grammar, pack(expr_grammar, tree))
        assert holes == {}
        assert rebuilt.pretty() == tree.pretty()

    def test_round_trip_with_holes(self, expr_grammar):
        tree = parse_expression("let x = 3 in 1 + 2 * x ni")
        block = next(n for n in tree.walk() if n.symbol.name == "block")
        packed = pack(expr_grammar, tree, holes={block.node_id: 7})
        rebuilt, holes = unpack(expr_grammar, packed)
        assert list(holes) == [7]
        assert holes[7].symbol.name == "block"
        assert holes[7].production is None
        # The hole stands in for the whole block subtree.
        assert rebuilt.subtree_size() == tree.subtree_size() - block.subtree_size() + 1
        assert packed.size_bytes() == tree.wire_size - block.wire_size + 16

    def test_size_bytes_positive_and_monotonic(self, expr_grammar):
        small = pack(expr_grammar, parse_expression("1 + 2"))
        large = pack(
            expr_grammar, parse_expression(random_expression_source(40, seed=1))
        )
        assert 0 < small.size_bytes() < large.size_bytes()

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_property_round_trip_random_expressions(self, seed):
        source = random_expression_source(25, seed=seed)
        tree = parse_expression(source)
        from repro.exprlang.grammar import expression_grammar

        grammar = expression_grammar()
        rebuilt, _ = unpack(grammar, pack(grammar, tree))
        assert rebuilt.pretty() == tree.pretty()


class TestSplitting:
    def test_splittable_nodes_respect_declaration(self, expr_grammar):
        tree = parse_expression("let x = 3 in let y = 2 in x * y ni + x ni")
        nodes = splittable_nodes(tree, min_size=0)
        assert nodes
        assert all(node.symbol.name == "block" for node in nodes)

    def test_detach_subtree(self, expr_grammar):
        tree = parse_expression("let x = 3 in 1 + 2 * x ni")
        block = next(n for n in tree.walk() if n.symbol.name == "block")
        parent, index = next(
            (parent, index)
            for node, parent, index in tree.walk_with_parent()
            if node is block
        )
        size, nodes = tree.wire_size, tree.subtree_size()
        hole = detach_subtree(tree, block)
        assert parent.children[index - 1] is hole
        assert hole.symbol.name == "block"
        assert hole.production is None and not hole.children
        # The detached subtree is untouched; the tree's summaries describe the hole.
        assert block.subtree_size() == sum(1 for _ in block.walk())
        assert tree.subtree_size() == nodes - block.subtree_size() + 1
        assert tree.wire_size == size - block.wire_size + 8

    def test_detach_root_rejected(self):
        tree = parse_expression("1")
        with pytest.raises(ValueError):
            detach_subtree(tree, tree)

    def test_plan_decomposition_single_machine(self):
        tree = parse_expression(random_expression_source(80, seed=2))
        plan = plan_decomposition(tree, 1)
        assert plan.region_count == 1
        assert plan.regions[0].root is tree

    def test_plan_decomposition_multiple_regions(self):
        tree = parse_expression(random_expression_source(300, seed=5, nesting=6))
        plan = plan_decomposition(tree, 4)
        assert 1 < plan.region_count <= 4
        total_nodes = sum(region.node_count for region in plan.regions)
        assert total_nodes == tree.subtree_size()
        for region in plan.regions[1:]:
            assert region.root.symbol.name == "block"
            assert region.parent_region is not None

    def test_describe_lists_regions(self):
        tree = parse_expression(random_expression_source(300, seed=5, nesting=6))
        plan = plan_decomposition(tree, 3)
        text = plan.describe()
        assert "region a" in text


# ------------------------------------------------------------- subtree summaries


def _check_summaries(root):
    """Every node's summaries against an explicit bottom-up recomputation."""
    recomputed = {}
    for node in reversed(list(root.walk())):  # reversed pre-order: children first
        symbol = node.symbol
        if node.is_terminal:
            value = node.token_value
            own = (1, 4 + (len(value) if isinstance(value, str) else 4), 0, 1)
        elif node.production is None:  # a hole owns only its inherited attributes
            own = (1, 8, len(symbol.inherited), 0)
        else:
            own = (1, 8, len(symbol.attributes), 0)
        below = [recomputed[id(child)] for child in node.children]
        recomputed[id(node)] = tuple(map(sum, zip(own, *below)))
        assert (
            node.node_count,
            node.wire_size,
            node.attribute_instances,
            node.token_count,
        ) == recomputed[id(node)], node
    assert root.subtree_size() == root.node_count == len(recomputed)


def _walked_instances(root, hole_nodes):
    """The whole-region walk ``CombinedScheduler.statistics`` used to make."""
    hole_ids = {node.node_id for node in hole_nodes}
    total = 0
    for node in root.walk():
        if node.is_terminal:
            continue
        if node.node_id in hole_ids:
            total += len(node.symbol.inherited)
        else:
            total += len(node.symbol.attributes)
    return total


def _disjoint_split_nodes(tree, rng, limit):
    """Up to ``limit`` splittable nodes of ``tree``, none inside another."""
    parent_of = {node.node_id: parent for node, parent, _ in tree.walk_with_parent()}
    candidates = [
        node
        for node in tree.walk()
        if node is not tree and node.symbol.is_nonterminal and node.symbol.splittable
    ]
    rng.shuffle(candidates)
    taken = {}
    for node in candidates:
        if len(taken) == limit:
            break
        ancestor = parent_of[node.node_id]
        while ancestor is not None and ancestor.node_id not in taken:
            ancestor = parent_of[ancestor.node_id]
        inside = any(
            descendant.node_id in taken for descendant in node.walk()
        )
        if ancestor is None and not inside:
            taken[node.node_id] = node
    return list(taken.values())


class TestSubtreeSummaries:
    @given(seed=st.integers(0, 2 ** 16), hole_count=st.integers(0, 3))
    @settings(derandomize=True, max_examples=10, deadline=None)
    def test_summaries_equal_an_explicit_walk(self, seed, hole_count):
        import random
        import re

        from repro import Session
        from repro.api.language import get_language
        from repro.evaluation.combined import CombinedScheduler
        from repro.pascal.programs import generate_program

        rng = random.Random(seed)
        pascal, exprlang = get_language("pascal"), get_language("exprlang")
        grammar = exprlang.grammar()

        # (i) freshly parsed programs of both languages.
        source = generate_program(
            procedures=rng.randint(1, 4),
            statements_per_procedure=rng.randint(1, 4),
            seed=seed,
        )
        _check_summaries(pascal.parse(source))
        expression = random_expression_source(
            rng.randint(3, 60), seed=seed, nesting=rng.randint(1, 6)
        )
        tree = exprlang.parse(expression)
        _check_summaries(tree)

        # (ii) a Document through every front-end mode: the tree it compiles is the
        # root region's root.
        modes = []
        with Session(backend="simulated", machines=2) as session:
            document = session.open("pascal", source, machines=2)
            literals = list(re.finditer(r":= (\d+)", source))
            literal = literals[rng.randrange(len(literals))]
            name = re.search(r"program (\w+)", source)
            edits = [
                None,                                           # first build: cold
                None,                                           # nothing edited: reuse
                (literal.start(1), literal.end(1), "407"),      # splice
                (name.start(1), name.end(1), "renamed"),        # a child of the root: full
            ]
            for edit in edits:
                if edit is not None:
                    document.edit(*edit)
                result = document.recompile()
                modes.append(result.incremental.frontend)
                _check_summaries(result.report.decomposition.regions[0].root)
        assert modes == ["cold", "reuse", "splice", "full"]

        # (iii) a region tree rebuilt from the wire, with 0-3 holes, and the
        # statistics a scheduler reports for it.
        detached = _disjoint_split_nodes(tree, rng, hole_count)
        holes = {node.node_id: region for region, node in enumerate(detached, start=1)}
        rebuilt, placeholders = unpack(grammar, pack(grammar, tree, holes))
        assert len(placeholders) == len(detached)
        _check_summaries(rebuilt)
        hole_nodes = list(placeholders.values())
        scheduler = CombinedScheduler(grammar, rebuilt, hole_nodes=hole_nodes)
        walked = _walked_instances(rebuilt, hole_nodes)
        assert scheduler.statistics().static_instances == walked
        while scheduler.has_ready_task():
            scheduler.run_task(scheduler.next_task())
        statistics = scheduler.statistics()
        assert statistics.static_instances == max(
            0, walked - statistics.dynamic_instances
        )

        # (iv) the same holes cut in place.
        for node in detached:
            hole = detach_subtree(tree, node)
            assert hole.symbol is node.symbol
            _check_summaries(tree)
            _check_summaries(node)

    def test_constructor_still_validates(self, expr_grammar):
        from repro.tree.node import make_node, make_terminal

        tree = parse_expression("1 + 2")
        expr = tree.children[0]
        with pytest.raises(ValueError, match="needs 3 children"):
            make_node(expr.production, list(expr.children[:2]))
        with pytest.raises(ValueError, match="does not match expected symbol"):
            make_node(expr.production, list(reversed(expr.children[:2])) + [tree])
        number = next(leaf for leaf in tree.leaves() if leaf.symbol.name == "NUMBER")
        with pytest.raises(ValueError, match="terminal nodes cannot carry a production"):
            ParseTreeNode(number.symbol, production=tree.production, children=[expr])
        with pytest.raises(ValueError, match="without a production"):
            ParseTreeNode(expr.symbol, children=[make_terminal(number.symbol, "1")])


# ------------------------------------------------------------- the pruned planner


def _exhaustive_plan(root, machines, min_size=None, scale=1.0):
    """``plan_decomposition`` as a scan of *every* node in post-order, with parents
    looked up instead of carried: the reference the pruned descent must equal."""
    entries = list(root.walk_with_parent())
    parent_of = {node.node_id: parent for node, parent, _ in entries}
    threshold = (
        int(min_size)
        if min_size is not None
        else max(1, int(root.wire_size / machines * scale))
    )
    # Reversing a pre-order that visits children right-to-left gives post-order.
    post_order, stack = [], [root]
    while stack:
        node = stack.pop()
        post_order.append(node)
        stack.extend(node.children)
    post_order.reverse()
    detached, chosen, remaining = {}, set(), machines - 1
    for node in post_order:
        if remaining <= 0:
            break
        if node is root or node.is_terminal or not node.symbol.splittable:
            continue
        size = node.wire_size - detached.get(node.node_id, 0)
        if size < max(threshold, node.symbol.min_split_size):
            continue
        chosen.add(node.node_id)
        remaining -= 1
        ancestor = parent_of[node.node_id]
        while ancestor is not None:
            detached[ancestor.node_id] = detached.get(ancestor.node_id, 0) + size
            ancestor = parent_of[ancestor.node_id]
    roots = [root] + [node for node, _, _ in entries if node.node_id in chosen]
    region_of = {node.node_id: index for index, node in enumerate(roots)}
    parents = [None]
    for node in roots[1:]:
        ancestor = parent_of[node.node_id]
        while ancestor.node_id not in region_of:
            ancestor = parent_of[ancestor.node_id]
        parents.append(region_of[ancestor.node_id])
    regions = []
    for index, node in enumerate(roots):
        children = [child for child, parent in enumerate(parents) if parent == index]
        regions.append(
            (
                index,
                node.node_id,
                parents[index],
                node.wire_size
                - sum(roots[child].wire_size for child in children),
                node.subtree_size()
                - sum(roots[child].subtree_size() for child in children),
                children,
            )
        )
    return regions, root.wire_size, threshold


def _planner_corpus():
    from repro.api.language import get_language
    from repro.pascal import programs

    pascal, exprlang = get_language("pascal"), get_language("exprlang")
    trees = [
        pascal.parse(getattr(programs, name))
        for name in ("HELLO", "FACTORIAL", "SUMMATION", "SORTING", "RECORDS", "NESTED")
    ]
    # The ledger's paper_sweep shape, and a nested one so regions nest too.
    trees.append(
        pascal.parse(programs.generate_program(procedures=46, statements_per_procedure=2))
    )
    trees.append(
        pascal.parse(
            programs.generate_program(
                procedures=6, nested_procedures=2, statements_per_procedure=3, seed=5
            )
        )
    )
    trees.extend(
        exprlang.parse(random_expression_source(size, seed=size, nesting=nesting))
        for size, nesting in ((30, 2), (300, 6))
    )
    return trees


class TestPrunedPlanner:
    def test_plan_equals_exhaustive_candidate_scan(self):
        labels = "abcdef"
        nested = 0
        for tree in _planner_corpus():
            for machines in range(1, 7):
                for min_size in (None, 0, 40):
                    for scale in (1.0, 0.25):
                        plan = plan_decomposition(
                            tree, machines, min_size=min_size, scale=scale
                        )
                        regions, total_size, threshold = _exhaustive_plan(
                            tree, machines, min_size=min_size, scale=scale
                        )
                        assert (plan.total_size, plan.threshold) == (total_size, threshold)
                        assert [
                            (
                                region.region_id,
                                region.root.node_id,
                                region.parent_region,
                                region.size,
                                region.node_count,
                                region.child_regions,
                            )
                            for region in plan.regions
                        ] == regions
                        assert [region.label for region in plan.regions] == list(
                            labels[: len(regions)]
                        )
                        nested += sum(
                            1 for region in plan.regions if region.parent_region
                        )
        assert nested  # the corpus does exercise regions inside regions


# ------------------------------------------------------------------ acyclic trees


def _live_tree_nodes():
    return sum(1 for candidate in gc.get_objects() if type(candidate) is ParseTreeNode)


class TestAcyclicTrees:
    def test_dropping_a_tree_frees_it_without_a_collection(self):
        import re

        from repro.api.language import get_language
        from repro.incremental.frontend import (
            EditEnvelope,
            incremental_reparse,
            incremental_scan,
        )
        from repro.pascal.programs import generate_program

        pascal = get_language("pascal")
        lexer, parser = pascal.frontend()
        source = generate_program(procedures=4, statements_per_procedure=3, seed=3)
        match = list(re.finditer(r"\b\d+\b", source))[5]
        edited = source[: match.start()] + "321" + source[match.end() :]
        gc.collect()
        gc.disable()
        try:
            baseline = _live_tree_nodes()
            tree = pascal.parse(source)
            assert _live_tree_nodes() == baseline + tree.node_count
            del tree
            assert _live_tree_nodes() == baseline

            # parse -> splice -> drop both: the spliced tree shares the old tree's
            # untouched subtrees, and neither keeps the other alive.
            tokens, spans, _ = lexer.scan(source)
            old = parser.parse(tokens)
            envelope = EditEnvelope()
            envelope.record(match.start(), match.end(), 3)
            new_tokens, _, first, old_resync, new_resync = incremental_scan(
                lexer, tokens, spans, source, edited, envelope
            )
            new, mode = incremental_reparse(
                pascal.grammar(), parser, old, new_tokens, first, old_resync, new_resync
            )
            assert mode == "splice"
            shared = {id(node) for node in old.walk()} & {id(node) for node in new.walk()}
            assert shared
            assert _live_tree_nodes() == (
                baseline + old.node_count + new.node_count - len(shared)
            )
            del old
            assert _live_tree_nodes() == baseline + new.node_count
            _check_summaries(new)
            del new
            assert _live_tree_nodes() == baseline
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    def test_shipping_regions_leaves_no_cyclic_garbage(self, backend):
        """Packing, shipping and rebuilding the regions of an in-process compile
        leaves nothing that only the cyclic collector could free."""
        from repro import Compiler
        from repro.api.language import get_language
        from repro.pascal.programs import generate_program

        source = generate_program(procedures=16)
        assert get_language("pascal").parse(source).node_count >= 5_000
        compiler = Compiler("pascal", machines=4, backend=backend)
        compiler.compile(source)  # tables, plans and codec: built once
        gc.collect()
        gc.disable()
        try:
            baseline = len(gc.get_objects())
            result = compiler.compile(source)
            assert result.report.decomposition.region_count == 4
            del result
            assert len(gc.get_objects()) - baseline < 1_000
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    def test_compiles_leave_nothing_for_the_collector(self, backend):
        """Five warmed one-shot compiles and five Document edits + recompiles make
        no reference cycle: the collector, paused while they run, has nothing to do."""
        from repro import Compiler, Session
        from repro.pascal.programs import generate_program

        source = generate_program(procedures=16)
        compiler = Compiler("pascal", machines=4, backend=backend)
        compiler.compile(source)  # tables, plans and codec: built once
        with Session(backend=backend, machines=4) as session:
            document = session.open("pascal", source, machines=4)
            document.recompile()
            literal = source.index(":= 1")
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                for digit in "23452":
                    assert compiler.compile(source).report.decomposition.region_count == 4
                    document.edit(literal, literal + 4, ":= " + digit)
                    assert document.recompile().incremental.regions_reused >= 1
                gc.collect()
                assert gc.garbage == []
            finally:
                gc.set_debug(0)
                gc.garbage.clear()


# ------------------------------------------------------- no whole-tree walk left


class TestCompileMakesNoTreeWalk:
    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    def test_compile_never_calls_walk(self, backend, monkeypatch):
        from repro import Compiler
        from repro.pascal.programs import generate_program

        source = generate_program(procedures=6, statements_per_procedure=2, seed=2)
        compiler = Compiler("pascal", machines=3, backend=backend)
        reference = compiler.compile(source)  # tables, plans, pools: built once
        walks = []
        original = ParseTreeNode.walk

        def counting_walk(node):
            walks.append(node)
            return original(node)

        monkeypatch.setattr(ParseTreeNode, "walk", counting_walk)
        result = compiler.compile(source)
        assert result.report.decomposition.region_count == 3
        assert result.value == reference.value
        assert walks == []


# --------------------------------------------- source compiles build no driver tree


class TestSourceCompilesBuildNoTree:
    """``Compiler.compile(source)`` plans over the recogniser's spans and ships slices
    of its records: only evaluators build nodes, each its own region."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The record count of every ``build`` call in this process (parse and unpack)."""
        from repro.parsing import parser
        from repro.tree import linearize

        counts = []
        original = linearize.build

        def counting_build(grammar, codes, values, hole_meta=()):
            counts.append(len(codes))
            return original(grammar, codes, values, hole_meta)

        monkeypatch.setattr(linearize, "build", counting_build)
        monkeypatch.setattr(parser, "build", counting_build)
        return counts

    @pytest.mark.parametrize("backend", ["processes", "threads"])
    def test_builds_only_evaluated_regions(self, backend, builds):
        from repro import Session
        from repro.api.language import get_language
        from repro.pascal.programs import generate_program

        source = generate_program(procedures=8, statements_per_procedure=2, seed=5)
        whole = get_language("pascal").parse(source).node_count
        with Session(backend=backend, machines=3) as session:
            compiler = session.compiler("pascal")
            reference = compiler.compile(source)  # pool, tables and plans: made once
            builds.clear()
            result = compiler.compile(source)
        regions = result.report.decomposition.region_count
        assert result.value == reference.value
        assert regions >= 2
        if backend == "processes":
            assert builds == []  # every region is built in a worker
        else:
            assert len(builds) == regions
            assert all(count < whole for count in builds)
