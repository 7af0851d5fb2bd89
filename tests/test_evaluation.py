"""Tests for the dynamic, static and combined evaluators (sequential operation)."""

from __future__ import annotations

import pytest

from repro.evaluation.base import EvaluationError, MissingAttributeError
from repro.evaluation.combined import CombinedEvaluator, CombinedScheduler
from repro.evaluation.dynamic import DynamicEvaluator, DynamicScheduler
from repro.evaluation.static import StaticEvaluator
from repro.exprlang.evaluator import evaluate_expression, random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.grammar.builder import GrammarBuilder, Rule
from repro.tree.node import ParseTreeNode

EXAMPLES = [
    ("1", 1),
    ("2 + 3", 5),
    ("2 * 3 + 4", 10),
    ("2 + 3 * 4", 14),
    ("(2 + 3) * 4", 20),
    ("let x = 3 in 1 + 2 * x ni", 7),          # the paper's appendix example
    ("let x = 2 in let y = x * x in y + x ni ni", 6),
    ("let a = 1 in let a = 2 in a ni + a ni", 3),   # shadowing
    ("let z = 10 in z * z ni", 100),
]


class TestEvaluatorsAgree:
    @pytest.mark.parametrize("source, expected", EXAMPLES)
    @pytest.mark.parametrize("evaluator", ["static", "dynamic", "combined"])
    def test_examples(self, source, expected, evaluator):
        assert evaluate_expression(source, evaluator=evaluator) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_random_expressions_agree(self, seed):
        source = random_expression_source(40, seed=seed)
        results = {
            evaluator: evaluate_expression(source, evaluator=evaluator)
            for evaluator in ("static", "dynamic", "combined")
        }
        assert len(set(results.values())) == 1

    def test_unknown_evaluator_rejected(self):
        with pytest.raises(ValueError):
            evaluate_expression("1", evaluator="quantum")


class TestStaticEvaluator:
    def test_statistics(self, expr_grammar):
        tree = parse_expression("let x = 3 in 1 + 2 * x ni")
        stats = StaticEvaluator(expr_grammar).evaluate(tree)
        assert stats.rules_evaluated > 0
        assert stats.visits_performed > 0
        assert stats.dynamic_instances == 0
        assert stats.dynamic_fraction == 0.0

    def test_all_attributes_materialized(self, expr_grammar):
        tree = parse_expression("let x = 3 in 1 + 2 * x ni")
        StaticEvaluator(expr_grammar).evaluate(tree)
        for node in tree.walk():
            if node.is_terminal:
                continue
            for name in node.symbol.attribute_names:
                assert node.has_attribute_value(name), (node.symbol.name, name)

    def test_missing_root_inherited_rejected(self):
        builder = GrammarBuilder("needs-inherited")
        builder.name_terminals("ID")
        builder.nonterminal("root", synthesized=["out"], inherited=["env"])
        builder.production("root -> ID", Rule("$$.out", ["$$.env"]))
        grammar = builder.build(start="root")
        from repro.tree.node import make_node, make_terminal

        tree = make_node(
            grammar.productions[0],
            [make_terminal(grammar.terminals["ID"], "x")],
        )
        with pytest.raises(EvaluationError, match="must be supplied"):
            StaticEvaluator(grammar).evaluate(tree)

    def test_root_inherited_supplied(self):
        builder = GrammarBuilder("needs-inherited")
        builder.name_terminals("ID")
        builder.nonterminal("root", synthesized=["out"], inherited=["env"])
        builder.production("root -> ID", Rule("$$.out", ["$$.env"]))
        grammar = builder.build(start="root")
        from repro.tree.node import make_node, make_terminal

        tree = make_node(
            grammar.productions[0],
            [make_terminal(grammar.terminals["ID"], "x")],
        )
        StaticEvaluator(grammar).evaluate(tree, root_inherited={"env": 42})
        assert tree.get_attribute("out") == 42


class TestDynamicEvaluator:
    def test_statistics_report_dependency_graph(self, expr_grammar):
        tree = parse_expression("let x = 3 in 1 + 2 * x ni")
        stats = DynamicEvaluator(expr_grammar).evaluate(tree)
        assert stats.dependency_vertices > 0
        assert stats.dependency_edges > 0
        assert stats.dynamic_instances == stats.dependency_vertices
        assert stats.dynamic_fraction == 1.0

    def test_scheduler_external_attributes_block_completion(self, expr_grammar):
        tree = parse_expression("1 + 2")
        # Treat the root's value as externally needed but the stab of the left child as
        # external: simulate by building a scheduler over the left subtree only.
        left = tree.children[0].children[0]  # expr node for "1"
        scheduler = DynamicScheduler(expr_grammar, left, root_inherited=None)
        # The inherited stab is external and not supplied, so evaluation cannot finish.
        with pytest.raises(MissingAttributeError):
            scheduler.run_to_completion()
        assert scheduler.waiting_on()

    def test_scheduler_supply_unblocks(self, expr_grammar):
        from repro.symtab import st_create

        tree = parse_expression("1 + 2")
        left = tree.children[0].children[0]
        scheduler = DynamicScheduler(expr_grammar, left, root_inherited=None)
        while True:
            task = scheduler.next_task()
            if task is None:
                break
            scheduler.run_task(task)
        assert not scheduler.is_complete()
        scheduler.supply(left, "stab", st_create())
        scheduler.run_to_completion()
        assert scheduler.is_complete()
        assert left.get_attribute("value") == 1


class TestCombinedEvaluator:
    def test_sequential_combined_equals_static(self, expr_grammar):
        source = "let x = 3 in (1 + 2 * x) * (x + x) ni"
        tree_static = parse_expression(source)
        tree_combined = parse_expression(source)
        StaticEvaluator(expr_grammar).evaluate(tree_static)
        CombinedEvaluator(expr_grammar).evaluate(tree_combined)
        assert tree_static.get_attribute("value") == tree_combined.get_attribute("value")

    def test_spine_is_root_only_without_holes(self, expr_grammar):
        tree = parse_expression("1 + 2 * 3")
        scheduler = CombinedScheduler(expr_grammar, tree)
        assert scheduler.spine_size == 1
        scheduler.run_to_completion()
        assert tree.get_attribute("value") == 7

    def test_dynamic_fraction_small_without_holes(self, expr_grammar):
        tree = parse_expression(random_expression_source(60, seed=3))
        scheduler = CombinedScheduler(expr_grammar, tree)
        scheduler.run_to_completion()
        stats = scheduler.statistics()
        assert stats.dynamic_fraction < 0.10  # the paper reports < 10 % with splits

    def test_combined_with_hole(self, expr_grammar):
        """Detach a block subtree, evaluate the remainder, then supply the hole value."""
        from repro.partition.splitter import detach_subtree
        from repro.symtab import st_create

        source = "let x = 3 in 1 + 2 * x ni"
        tree = parse_expression(source)
        block = next(n for n in tree.walk() if n.symbol.name == "block")
        hole = detach_subtree(tree, block)

        scheduler = CombinedScheduler(expr_grammar, tree, hole_nodes=[hole])
        while True:
            task = scheduler.next_task()
            if task is None:
                break
            scheduler.run_task(task)
        assert not scheduler.is_complete()
        # The hole's inherited stab must have been computed and exported.
        assert hole.has_attribute_value("stab")
        # Evaluate the detached block elsewhere (here: statically) and feed it back.
        StaticEvaluator(expr_grammar).evaluate(
            block, root_inherited={"stab": hole.get_attribute("stab")}
        )
        scheduler.supply(hole, "value", block.get_attribute("value"))
        scheduler.run_to_completion()
        assert tree.get_attribute("value") == 7
