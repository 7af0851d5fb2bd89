"""Tests for the distributed layer: protocol, unique ids, librarian, parallel compiler."""

from __future__ import annotations

import pytest

from repro.api import Compiler
from repro.distributed.compiler import CompilerConfiguration, ParallelCompiler
from repro.distributed.unique_ids import (
    UniqueIdGenerator,
    base_for_region,
    current_generator,
    next_label,
    next_unique_id,
    unique_id_context,
)
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.runtime.network import NetworkParameters


class TestUniqueIds:
    def test_generator_monotonic(self):
        generator = UniqueIdGenerator(100)
        assert generator.next_id() == 100
        assert generator.next_id() == 101
        assert generator.next_label("L") == "L102"
        assert generator.issued == 3

    def test_context_nesting(self):
        outer_before = current_generator()
        with unique_id_context(1000) as generator:
            assert next_unique_id() == 1000
            with unique_id_context(2000):
                assert next_unique_id() == 2000
            assert next_unique_id() == 1001
            assert generator.issued == 2
        assert current_generator() is outer_before

    def test_labels_disjoint_across_regions(self):
        bases = [base_for_region(region) for region in range(6)]
        assert len(set(bases)) == 6
        assert all(bases[i + 1] - bases[i] >= 1_000_000 for i in range(5))

    def test_next_label_uses_active_context(self):
        with unique_id_context(base_for_region(3)):
            label = next_label("T")
        assert label.startswith("T")
        assert int(label[1:]) >= base_for_region(3)


@pytest.fixture(scope="module")
def split_grammar():
    """Expression grammar with a low split threshold so small trees decompose."""
    return expression_grammar(min_split_size=60)


@pytest.fixture(scope="module")
def big_expression(split_grammar):
    source = random_expression_source(250, seed=11, nesting=6)
    return source, parse_expression(source, split_grammar)


class TestParallelCompiler:
    @pytest.mark.parametrize("evaluator", ["combined", "dynamic"])
    def test_parallel_matches_sequential_value(self, split_grammar, big_expression, evaluator):
        source, tree = big_expression
        compiler = ParallelCompiler(split_grammar, CompilerConfiguration(evaluator=evaluator))
        sequential = compiler.compile_tree(tree, 1)
        parallel = compiler.compile_tree(tree, 4)
        assert parallel.root_attributes["value"] == sequential.root_attributes["value"]
        assert parallel.machines == 4
        assert parallel.decomposition.region_count >= 2

    def test_single_machine_has_single_region_and_no_network_traffic(
        self, split_grammar, big_expression
    ):
        _, tree = big_expression
        compiler = ParallelCompiler(split_grammar)
        report = compiler.compile_tree(tree, 1)
        assert report.decomposition.region_count == 1
        assert report.network_messages == 0
        assert report.evaluation_time > 0

    def test_combined_faster_than_dynamic(self, split_grammar, big_expression):
        _, tree = big_expression
        combined = ParallelCompiler(
            split_grammar, CompilerConfiguration(evaluator="combined")
        ).compile_tree(tree, 3)
        dynamic = ParallelCompiler(
            split_grammar, CompilerConfiguration(evaluator="dynamic")
        ).compile_tree(tree, 3)
        assert combined.evaluation_time < dynamic.evaluation_time
        assert combined.dynamic_fraction < 0.2
        assert dynamic.dynamic_fraction == pytest.approx(1.0)

    def test_timeline_and_utilization_reported(self, split_grammar, big_expression):
        _, tree = big_expression
        report = ParallelCompiler(split_grammar).compile_tree(tree, 3)
        assert set(report.timeline) == {f"machine-{i}" for i in range(3)}
        assert all(0.0 <= value <= 1.0 for value in report.utilization.values())
        assert report.memory_bytes > 0

    def test_slow_network_increases_time(self, split_grammar, big_expression):
        _, tree = big_expression
        fast = ParallelCompiler(
            split_grammar,
            CompilerConfiguration(network=NetworkParameters(bandwidth_bytes_per_second=10e6)),
        ).compile_tree(tree, 4)
        slow = ParallelCompiler(
            split_grammar,
            CompilerConfiguration(
                network=NetworkParameters(bandwidth_bytes_per_second=50e3, message_latency=0.05)
            ),
        ).compile_tree(tree, 4)
        assert slow.evaluation_time > fast.evaluation_time

    def test_invalid_evaluator_rejected(self, split_grammar):
        with pytest.raises(ValueError):
            ParallelCompiler(split_grammar, CompilerConfiguration(evaluator="quantum"))

    def test_speedup_against(self, split_grammar, big_expression):
        _, tree = big_expression
        compiler = ParallelCompiler(split_grammar)
        sequential = compiler.compile_tree(tree, 1)
        parallel = compiler.compile_tree(tree, 4)
        assert parallel.speedup_against(sequential) == pytest.approx(
            sequential.evaluation_time / parallel.evaluation_time
        )


class TestLibrarianProtocol:
    """End-to-end librarian behaviour is exercised through the Pascal compiler."""

    def test_librarian_reduces_network_bytes(self):
        from repro.pascal import PascalCompiler, generate_program

        compiler = PascalCompiler()
        source = generate_program(procedures=10, statements_per_procedure=3, seed=3)
        tree = compiler.parse(source)
        with_librarian = Compiler(
            "pascal", machines=3,
            configuration=CompilerConfiguration(evaluator="combined", use_librarian=True),
        ).compile_tree(tree).report
        without_librarian = Compiler(
            "pascal", machines=3,
            configuration=CompilerConfiguration(evaluator="combined", use_librarian=False),
        ).compile_tree(tree).report
        assert with_librarian.use_librarian
        assert not without_librarian.use_librarian
        assert with_librarian.network_bytes < without_librarian.network_bytes
        # Both configurations must produce the same assembly text.
        assert with_librarian.code_text("code") == without_librarian.code_text("code")

    def test_parallel_code_matches_sequential_code(self):
        from repro.pascal import PascalCompiler, generate_program

        compiler = PascalCompiler()
        source = generate_program(procedures=8, statements_per_procedure=3, seed=5)
        tree = compiler.parse(source)
        sequential = Compiler(
            "pascal", machines=1, configuration=CompilerConfiguration(evaluator="combined")
        ).compile_tree(tree).report
        parallel = Compiler(
            "pascal", machines=4, configuration=CompilerConfiguration(evaluator="combined")
        ).compile_tree(tree).report
        assert parallel.code_text("code").count("\n") == sequential.code_text("code").count("\n")
        assert parallel.root_attributes["errs"] == sequential.root_attributes["errs"]


class TestEvaluatorIsFreedByReferenceCount:
    def test_register_fragments_leaves_no_cycle_through_the_evaluator(self, split_grammar):
        """Exporting code through the librarian must not hand the evaluator — and
        with it the region tree, ropes and symbol tables — to the cyclic collector."""
        import gc
        import weakref

        from repro.analysis.visit_sequences import build_evaluation_plan
        from repro.backends import create_backend
        from repro.distributed.evaluator_node import EvaluatorNode
        from repro.runtime.cost import CostModel
        from repro.strings.descriptors import (
            ConcatDescriptor,
            LeafDescriptor,
            LiteralDescriptor,
        )
        from repro.strings.rope import Rope

        backend = create_backend("threads", machines=1)
        mailbox = backend.mailbox("evaluator-1.mailbox")
        from_child = LeafDescriptor(2, 1)
        value = ConcatDescriptor(
            ConcatDescriptor(Rope.leaf("push 1\n"), from_child),
            LiteralDescriptor(Rope.leaf("add\n")),
        )
        gc.collect()
        gc.disable()
        try:
            node = EvaluatorNode(
                1, 0, backend, split_grammar, build_evaluation_plan(split_grammar),
                "combined", CostModel(), {1: mailbox}, {1: 0}, 0, mailbox,
            )
            descriptor, fragments = node._register_fragments(value)
            assert [number for number, _ in fragments] == [1, 2]
            assert [text.flatten() for _, text in fragments] == ["push 1\n", "add\n"]
            assert descriptor.left.right is from_child  # passed through
            alive = weakref.ref(node)
            del node
            assert alive() is None, "the evaluator waits for a cyclic collection"
        finally:
            gc.enable()
            backend.close()
