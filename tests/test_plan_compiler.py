"""Differential tests for the plan-compiled evaluators.

Three evaluation paths coexist per grammar — the seed dict/``AttributeRef`` path
(``use_tables=False``), the precompiled tables (``use_compiled=False``) and the
plan-compiled generated code (the default) — and they must be indistinguishable:
same attribute values, same errors, same statistics, bit for bit, on every
substrate.  These tests fuzz random expression workloads through all three paths
and compare everything the paths could possibly diverge on.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.analysis.plan_compiler import (
    compiled_rules,
    compiled_segments,
    rules_source,
    segments_source,
)
from repro.analysis.visit_sequences import build_evaluation_plan
from repro.distributed.compiler import CompilerConfiguration, ParallelCompiler
from repro.evaluation.base import EvaluationError, root_inherited_or_default
from repro.evaluation.combined import CombinedScheduler
from repro.evaluation.dynamic import DynamicScheduler
from repro.evaluation.static import StaticEvaluator
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.grammar.builder import GrammarBuilder, Rule
from repro.tree.node import make_node, make_terminal


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


requires_fork = pytest.mark.skipif(
    not _fork_available(), reason="processes backend requires the fork start method"
)

#: (label, use_tables, use_compiled) for the three coexisting evaluation paths.
PATHS = [
    ("seed", False, False),
    ("tables", True, False),
    ("compiled", True, True),
]

#: CompilerConfigurations selecting the same three paths through the full stack.
CONFIGURATIONS = {
    "seed": CompilerConfiguration(use_precompiled_tables=False),
    "tables": CompilerConfiguration(use_compiled_plans=False),
    "compiled": CompilerConfiguration(),
}


class TestSequentialDifferential:
    """Fuzz the three paths through each sequential scheduler: values and the
    complete statistics objects must be bit-identical."""

    @pytest.mark.parametrize("seed", range(6))
    def test_static_evaluator_paths_agree(self, expr_grammar, seed):
        source = random_expression_source(60, seed=seed, nesting=5)
        outcomes = {}
        for label, use_tables, use_compiled in PATHS:
            tree = parse_expression(source, expr_grammar)
            stats = StaticEvaluator(
                expr_grammar, use_tables=use_tables, use_compiled=use_compiled
            ).evaluate(tree)
            outcomes[label] = (tree.get_attribute("value"), vars(stats))
        assert outcomes["compiled"] == outcomes["tables"] == outcomes["seed"]

    @pytest.mark.parametrize("seed", range(6))
    def test_dynamic_scheduler_paths_agree(self, expr_grammar, seed):
        source = random_expression_source(60, seed=seed, nesting=5)
        outcomes = {}
        for label, use_tables, use_compiled in PATHS:
            tree = parse_expression(source, expr_grammar)
            supplied = root_inherited_or_default(tree, None)
            scheduler = DynamicScheduler(
                expr_grammar,
                tree,
                root_inherited=supplied,
                use_tables=use_tables,
                use_compiled=use_compiled,
            )
            stats = scheduler.run_to_completion()
            outcomes[label] = (tree.get_attribute("value"), vars(stats))
        assert outcomes["compiled"] == outcomes["tables"] == outcomes["seed"]

    @pytest.mark.parametrize("seed", range(6))
    def test_combined_scheduler_paths_agree(self, expr_grammar, seed):
        source = random_expression_source(60, seed=seed, nesting=5)
        outcomes = {}
        for label, use_tables, use_compiled in PATHS:
            tree = parse_expression(source, expr_grammar)
            supplied = root_inherited_or_default(tree, None)
            scheduler = CombinedScheduler(
                expr_grammar,
                tree,
                root_inherited=supplied,
                use_tables=use_tables,
                use_compiled=use_compiled,
            )
            stats = scheduler.run_to_completion()
            outcomes[label] = (tree.get_attribute("value"), vars(stats))
        assert outcomes["compiled"] == outcomes["tables"] == outcomes["seed"]


class TestSubstrateDifferential:
    """The three paths through the full parallel compiler, per substrate."""

    @pytest.fixture(scope="class")
    def split_grammar(self):
        return expression_grammar(min_split_size=60)

    def _compile(self, grammar, tree, backend, label):
        compiler = ParallelCompiler(grammar, CONFIGURATIONS[label])
        return compiler.compile_tree(tree, 3, backend=backend)

    @pytest.mark.parametrize("seed", range(3))
    def test_simulated_bit_identical(self, split_grammar, seed):
        source = random_expression_source(220, seed=seed, nesting=6)
        tree = parse_expression(source, split_grammar)
        reports = {
            label: self._compile(split_grammar, tree, "simulated", label)
            for label in CONFIGURATIONS
        }
        reference = reports["seed"]
        for label in ("tables", "compiled"):
            report = reports[label]
            assert report.root_attributes["value"] == reference.root_attributes["value"]
            assert vars(report.statistics) == vars(reference.statistics)
            # Modelled time and traffic must not move: the compiled plans change how
            # rules fire, never what fires or in which order.
            assert report.evaluation_time == reference.evaluation_time
            assert report.network_bytes == reference.network_bytes

    @pytest.mark.parametrize(
        "backend",
        ["threads", pytest.param("processes", marks=requires_fork), "sockets"],
    )
    def test_real_substrates_agree(self, split_grammar, backend):
        source = random_expression_source(220, seed=17, nesting=6)
        tree = parse_expression(source, split_grammar)
        reports = {
            label: self._compile(split_grammar, tree, backend, label)
            for label in CONFIGURATIONS
        }
        reference = reports["seed"]
        for label in ("tables", "compiled"):
            report = reports[label]
            assert report.root_attributes["value"] == reference.root_attributes["value"]
            assert vars(report.statistics) == vars(reference.statistics)

    @pytest.mark.parametrize("machines", [1, 2])
    @pytest.mark.parametrize(
        "backend",
        [
            "simulated",
            "threads",
            pytest.param("processes", marks=requires_fork),
            "sockets",
        ],
    )
    def test_deep_tree_compiles(self, backend, machines):
        """A 1000-term sum nests 1000 deep; every substrate rebuilds its regions
        without running into the interpreter's recursion limit."""
        from repro import Compiler

        source = " + ".join(["2"] * 1000)
        result = Compiler("exprlang", machines=machines, backend=backend).compile(source)
        assert result.value == 2000


def _needs_inherited_grammar():
    builder = GrammarBuilder("needs-inherited")
    builder.name_terminals("ID")
    builder.nonterminal("root", synthesized=["out"], inherited=["env"])
    builder.production("root -> ID", Rule("$$.out", ["$$.env"]))
    return builder.build(start="root")


def _exploding_grammar():
    def explode(value):
        raise ZeroDivisionError("semantic function failure")

    builder = GrammarBuilder("exploding")
    builder.name_terminals("ID", value_attribute="string")
    builder.nonterminal("root", synthesized=["out"])
    builder.production("root -> ID", Rule("$$.out", ["$1.string"], function=explode))
    return builder.build(start="root")


class TestErrorParity:
    def test_order_violation_message_identical_to_tables(self):
        """A missing argument raises the table path's EvaluationError, byte for byte."""
        grammar = _needs_inherited_grammar()
        errors = {}
        for label, use_tables, use_compiled in PATHS:
            tree = make_node(
                grammar.productions[0],
                [make_terminal(grammar.terminals["ID"], "x")],
            )
            evaluator = StaticEvaluator(
                grammar, use_tables=use_tables, use_compiled=use_compiled
            )
            with pytest.raises(EvaluationError) as excinfo:
                # visit() directly: evaluate() would refuse the missing root
                # inherited before any rule fires.
                evaluator.visit(tree, 1)
            errors[label] = str(excinfo.value)
        assert errors["compiled"] == errors["tables"]
        # The seed path reports the same violation (with its own fetch spelling).
        assert "static evaluation order violation" in errors["seed"]

    def test_semantic_function_errors_propagate_unwrapped(self):
        """Only argument fetches are wrapped: a raising rule function must surface
        its own exception, not an order-violation EvaluationError."""
        grammar = _exploding_grammar()
        for label, use_tables, use_compiled in PATHS:
            tree = make_node(
                grammar.productions[0],
                [make_terminal(grammar.terminals["ID"], "x")],
            )
            evaluator = StaticEvaluator(
                grammar, use_tables=use_tables, use_compiled=use_compiled
            )
            with pytest.raises(ZeroDivisionError):
                evaluator.visit(tree, 1)

    def test_compiled_rule_raises_keyerror_like_fetch_arguments(self):
        """The dynamic/combined compute functions preserve fetch_arguments' contract:
        a missing argument is a raw KeyError for the scheduler to interpret."""
        grammar = _needs_inherited_grammar()
        compute = compiled_rules(grammar)[0][0]
        tree = make_node(
            grammar.productions[0],
            [make_terminal(grammar.terminals["ID"], "x")],
        )
        with pytest.raises(KeyError):
            compute(tree)
        tree.set_attribute("env", 7)
        assert compute(tree) == 7


class TestCompilationCaching:
    def test_rules_cached_per_grammar(self, expr_grammar):
        assert compiled_rules(expr_grammar) is compiled_rules(expr_grammar)

    def test_segments_cached_per_plan(self, expr_grammar, expr_plan):
        first = compiled_segments(expr_grammar, expr_plan)
        assert compiled_segments(expr_grammar, expr_plan) is first
        other_plan = build_evaluation_plan(expr_grammar)
        rebuilt = compiled_segments(expr_grammar, other_plan)
        assert rebuilt is not first
        assert compiled_segments(expr_grammar, other_plan) is rebuilt

    def test_generated_source_is_compilable_python(self, expr_grammar, expr_plan):
        for source, namespace in (
            rules_source(expr_grammar),
            segments_source(expr_grammar, expr_plan),
        ):
            compile(source, "<test>", "exec")
            assert namespace  # semantic functions are bound, never re-implemented

    def test_shapes_match_tables_and_plan(self, expr_grammar, expr_plan):
        from repro.analysis.tables import evaluation_tables

        tables = evaluation_tables(expr_grammar)
        rules = compiled_rules(expr_grammar)
        assert len(rules) == len(tables.productions)
        for production_tables, compiled in zip(tables.productions, rules):
            assert len(compiled) == len(production_tables.rules)
        segments = compiled_segments(expr_grammar, expr_plan)
        assert len(segments) == len(expr_grammar.productions)
        for production in expr_grammar.productions:
            sequence = expr_plan.sequences[production.index]
            assert len(segments[production.index]) == len(sequence.segments)
