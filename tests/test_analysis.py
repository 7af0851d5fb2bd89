"""Tests for dependency analysis, circularity detection, and ordered evaluation plans."""

from __future__ import annotations

import importlib.util
import os

import pytest
from hypothesis import given, settings, strategies as st

from analysis_reference import reference_check_noncircular, reference_induced_dependencies

from repro.analysis.cycles import CircularGrammarError, check_noncircular
from repro.analysis.dependencies import (
    DependencyGraph,
    induced_dependencies,
    production_dependency_graph,
)
from repro.analysis.ordered import NotOrderedError, compute_partitions
from repro.analysis.visit_sequences import (
    EvalInstruction,
    VisitChildInstruction,
    build_evaluation_plan,
)
from repro.exprlang.grammar import expression_grammar, expression_grammar_from_spec
from repro.grammar.builder import GrammarBuilder, Rule
from repro.grammar.productions import AttributeRef
from repro.pascal.grammar import pascal_grammar


class TestDependencyGraph:
    def test_add_edge_idempotent(self):
        graph = DependencyGraph()
        assert graph.add_edge("a", "b")
        assert not graph.add_edge("a", "b")
        assert graph.edge_count() == 1

    def test_successors_and_predecessors(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "c")
        assert graph.successors("a") == {"b", "c"}
        assert graph.predecessors("c") == {"a"}
        assert graph.successors("missing") == frozenset()

    def test_transitive_closure(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        closure = graph.transitive_closure()
        assert closure.has_edge("a", "c")
        assert not graph.has_edge("a", "c")

    def test_topological_order(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("a", "c")
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_topological_order_detects_cycle(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_find_cycle(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        cycle = graph.find_cycle()
        assert len(cycle) >= 3
        assert set(cycle) <= {"a", "b", "c"}

    def test_find_cycle_on_acyclic_graph(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b")
        assert graph.find_cycle() == []


class TestProductionDependencies:
    def test_local_graph_edges(self, expr_grammar):
        production = next(
            p for p in expr_grammar.productions if p.label == "expr -> expr + expr"
        )
        graph = production_dependency_graph(production)
        assert graph.has_edge(AttributeRef(1, "value"), AttributeRef(0, "value"))
        assert graph.has_edge(AttributeRef(3, "value"), AttributeRef(0, "value"))
        assert graph.has_edge(AttributeRef(0, "stab"), AttributeRef(1, "stab"))

    def test_induced_dependencies_of_expression_grammar(self, expr_grammar):
        ids = induced_dependencies(expr_grammar)
        # The value of an expression can depend on its symbol table (via IDENTIFIER).
        assert ids["expr"].has_edge("stab", "value")
        assert ids["block"].has_edge("stab", "value")
        # Never the other way around.
        assert not ids["expr"].has_edge("value", "stab")


def _two_pass_grammar():
    """A grammar with the classic two-pass (declarations up, environment down) shape."""
    builder = GrammarBuilder("twopass")
    builder.name_terminals("ID")
    builder.nonterminal("root", synthesized=["out"])
    builder.nonterminal(
        "item", synthesized=["decls", "code"], inherited=["env"]
    )
    builder.production(
        "root -> item",
        Rule("$1.env", ["$1.decls"], lambda d: {"env": d}, name="make_env"),
        Rule("$$.out", ["$1.code"]),
    )
    builder.production(
        "item -> ID",
        Rule("$$.decls", ["$1.string"], lambda s: [s], name="decls"),
        Rule("$$.code", ["$$.env", "$1.string"], lambda env, s: f"{env}:{s}", name="code"),
    )
    return builder.build(start="root")


def _attribute_less_grammar():
    builder = GrammarBuilder("plain")
    builder.name_terminals("ID")
    builder.nonterminal("root", synthesized=["n"])
    builder.nonterminal("filler")
    builder.production("root -> filler ID", Rule("$$.n", ["$2.string"], len))
    builder.production("filler -> ID")
    return builder.build(start="root")


def _circular_grammar():
    builder = GrammarBuilder("circular")
    builder.name_terminals("ID")
    builder.nonterminal("root", synthesized=["out"])
    builder.nonterminal("x", synthesized=["s"], inherited=["i"])
    builder.production(
        "root -> x",
        Rule("$1.i", ["$1.s"]),
        Rule("$$.out", ["$1.s"]),
    )
    builder.production(
        "x -> ID",
        Rule("$$.s", ["$$.i"]),
    )
    return builder.build(start="root")


def _two_context_grammar():
    """Kastens' example of a grammar no ordered evaluator accepts.

    In the first context ``x``'s ``s1`` feeds its ``i2``, in the second its ``s2``
    feeds its ``i1``; the induced dependencies of ``x`` merge both into a cycle.
    """
    builder = GrammarBuilder("two-context")
    builder.name_terminals("ID")
    builder.nonterminal("root", synthesized=["out"])
    builder.nonterminal("x", synthesized=["s1", "s2"], inherited=["i1", "i2"])
    builder.production(
        "root -> x",
        Rule("$1.i1", ["$1.s1"], len),
        Rule("$1.i2", ["$1.s1"]),
        Rule("$$.out", ["$1.s2"]),
    )
    builder.production(
        "root -> ID x",
        Rule("$2.i2", ["$2.s1"], len),
        Rule("$2.i1", ["$2.s2"]),
        Rule("$$.out", ["$2.s1"]),
    )
    builder.production(
        "x -> ID",
        Rule("$$.s1", ["$$.i1"]),
        Rule("$$.s2", ["$$.i2"]),
    )
    return builder.build(start="root")


class TestPartitions:
    def test_expression_grammar_single_visit(self, expr_grammar):
        partitions = compute_partitions(expr_grammar)
        expr = partitions["expr"]
        assert expr.visit_count == 1
        assert expr.inherited_of(1) == {"stab"}
        assert expr.synthesized_of(1) == {"value"}
        assert expr.visit_of("stab") == 1
        assert expr.visit_of("value") == 1

    def test_two_pass_grammar_needs_two_visits(self):
        grammar = _two_pass_grammar()
        partitions = compute_partitions(grammar)
        item = partitions["item"]
        assert item.visit_count == 2
        assert item.synthesized_of(1) == {"decls"}
        assert item.inherited_of(2) == {"env"}
        assert item.synthesized_of(2) == {"code"}

    def test_static_dependencies(self):
        grammar = _two_pass_grammar()
        partitions = compute_partitions(grammar)
        deps = partitions["item"].static_dependencies()
        assert deps["decls"] == frozenset()
        assert deps["code"] == {"env"}

    def test_attribute_less_nonterminal_gets_one_visit(self):
        grammar = _attribute_less_grammar()
        partitions = compute_partitions(grammar)
        assert partitions["filler"].visit_count == 1

    def test_unknown_attribute_visit_lookup(self, expr_grammar):
        partitions = compute_partitions(expr_grammar)
        with pytest.raises(KeyError):
            partitions["expr"].visit_of("nonexistent")


class TestCircularity:
    def test_expression_grammar_not_circular(self, expr_grammar):
        check_noncircular(expr_grammar)  # should not raise

    def test_circular_grammar_rejected(self):
        grammar = _circular_grammar()
        with pytest.raises(CircularGrammarError):
            check_noncircular(grammar)


class TestVisitSequences:
    def test_segments_cover_all_rules(self, expr_grammar, expr_plan):
        for production in expr_grammar.productions:
            sequence = expr_plan.sequences[production.index]
            eval_instructions = [
                instruction
                for segment in sequence.segments
                for instruction in segment
                if isinstance(instruction, EvalInstruction)
            ]
            assert len(eval_instructions) == len(production.rules)
            assert {i.rule_index for i in eval_instructions} == set(
                range(len(production.rules))
            )

    def test_child_visits_present(self, expr_grammar, expr_plan):
        production = next(
            p for p in expr_grammar.productions if p.label == "expr -> expr + expr"
        )
        sequence = expr_plan.sequences[production.index]
        visits = [
            instruction
            for segment in sequence.segments
            for instruction in segment
            if isinstance(instruction, VisitChildInstruction)
        ]
        assert {v.child_position for v in visits} == {1, 3}

    def test_rule_ordering_respects_dependencies(self, expr_grammar, expr_plan):
        # In "block -> LET ID = expr IN expr NI" the rule for $6.stab (st_add) needs
        # $4.value, so the visit of child 4 must precede the evaluation of $6.stab.
        production = next(
            p for p in expr_grammar.productions if p.label.startswith("block ->")
        )
        sequence = expr_plan.sequences[production.index]
        flat = [instruction for segment in sequence.segments for instruction in segment]
        visit_4 = next(
            i for i, ins in enumerate(flat)
            if isinstance(ins, VisitChildInstruction) and ins.child_position == 4
        )
        st_add_rule_index = next(
            i for i, rule in enumerate(production.rules)
            if rule.target == AttributeRef(6, "stab")
        )
        eval_st_add = next(
            i for i, ins in enumerate(flat)
            if isinstance(ins, EvalInstruction) and ins.rule_index == st_add_rule_index
        )
        assert visit_4 < eval_st_add

    def test_two_pass_grammar_sequences(self):
        grammar = _two_pass_grammar()
        plan = build_evaluation_plan(grammar)
        item_production = next(
            p for p in grammar.productions if p.label == "item -> ID"
        )
        sequence = plan.sequences[item_production.index]
        assert sequence.visit_count == 2
        # decls is computed in visit 1, code in visit 2.
        first_rules = {
            item_production.rules[i.rule_index].target.name
            for i in sequence.segment(1)
            if isinstance(i, EvalInstruction)
        }
        second_rules = {
            item_production.rules[i.rule_index].target.name
            for i in sequence.segment(2)
            if isinstance(i, EvalInstruction)
        }
        assert first_rules == {"decls"}
        assert second_rules == {"code"}

    def test_describe_is_readable(self, expr_grammar, expr_plan):
        production = expr_grammar.productions[0]
        text = expr_plan.sequences[production.index].describe(production)
        assert "visit sequence" in text
        assert "eval" in text


def _example_grammar(path: str, function: str):
    spec = importlib.util.spec_from_file_location("_oracle_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, function)()


_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

#: Every grammar the analysis oracle compares old and new on.
ORACLE_GRAMMARS = {
    "pascal": pascal_grammar,
    "exprlang": expression_grammar,
    "exprlang-spec": expression_grammar_from_spec,
    "sumlang": lambda: _example_grammar(
        os.path.join(_EXAMPLES, "register_language.py"), "sumlang_grammar"
    ),
    "twopass": _two_pass_grammar,
    "plain": _attribute_less_grammar,
    "circular": _circular_grammar,
    "two-context": _two_context_grammar,
}


def _edge_sets(ids):
    return {name: set(graph.edges()) for name, graph in ids.items()}


def _plan_outcome(grammar, ids):
    """Partitions and visit-sequence segments, or the error that refused them."""
    try:
        plan = build_evaluation_plan(grammar, ids=ids)
    except NotOrderedError:
        return NotOrderedError
    partitions = {
        name: [(visit.number, visit.inherited, visit.synthesized) for visit in partition.visits]
        for name, partition in plan.partitions.items()
    }
    segments = {index: sequence.segments for index, sequence in plan.sequences.items()}
    return partitions, segments


def _circularity_verdict(check, grammar):
    try:
        check(grammar)
    except CircularGrammarError as error:
        return error.production_label, error.cycle
    return None


def _assert_matches_reference(grammar):
    reference = reference_induced_dependencies(grammar)
    assert _edge_sets(induced_dependencies(grammar)) == _edge_sets(reference)
    assert _plan_outcome(grammar, None) == _plan_outcome(grammar, reference)
    assert _circularity_verdict(check_noncircular, grammar) == _circularity_verdict(
        reference_check_noncircular, grammar
    )


class TestAnalysisOracle:
    """The bitset worklist against the set-based fixpoint it replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAMMARS))
    def test_same_ids_partitions_segments_and_verdict(self, name):
        _assert_matches_reference(ORACLE_GRAMMARS[name]())

    def test_circular_grammars_name_their_production(self):
        for grammar, label in (
            (_circular_grammar(), "root -> x"),
            (_two_context_grammar(), "root -> x"),
        ):
            with pytest.raises(CircularGrammarError) as raised:
                check_noncircular(grammar)
            assert raised.value.production_label == label
            assert raised.value.cycle

    def test_check_noncircular_accepts_given_ids(self, expr_grammar):
        ids = reference_induced_dependencies(expr_grammar)
        assert check_noncircular(expr_grammar, ids) is ids

    def test_not_ordered_grammar_still_refused(self):
        with pytest.raises(NotOrderedError):
            build_evaluation_plan(_two_context_grammar())


# ------------------------------------------------------------ generated grammars

#: A fixed production skeleton with left, right and mutual recursion; the strategy
#: below draws its semantic rules.
_SKELETON = (
    ("S", ("A",)),
    ("A", ("B", "A")),
    ("A", ("ID",)),
    ("B", ("A", "ID")),
    ("B", ("ID", "B", "B")),
    ("B", ("ID",)),
)
_ATTRIBUTES = {
    "S": ((), ("out",)),
    "A": (("i", "j"), ("s", "t")),
    "B": (("i",), ("s", "t", "u")),
}


def _combine(*values):
    return values


@st.composite
def acyclic_rule_sets(draw):
    """A grammar over :data:`_SKELETON` whose every production graph is acyclic.

    Each output occurrence of a production (an LHS synthesized or RHS inherited
    attribute) gets one rule reading up to three occurrences drawn from the
    production's inputs and the outputs defined before it, so DP(p) has no cycle;
    IDS may still close one, which the circularity test then has to name.
    """
    builder = GrammarBuilder("generated")
    builder.name_terminals("ID")
    for name, (inherited, synthesized) in _ATTRIBUTES.items():
        builder.nonterminal(name, inherited=list(inherited), synthesized=list(synthesized))
    for lhs, rhs in _SKELETON:
        inputs = [f"$$.{name}" for name in _ATTRIBUTES[lhs][0]]
        outputs = [f"$$.{name}" for name in _ATTRIBUTES[lhs][1]]
        for position, symbol in enumerate(rhs, start=1):
            if symbol == "ID":
                inputs.append(f"${position}.string")
            else:
                inputs += [f"${position}.{name}" for name in _ATTRIBUTES[symbol][1]]
                outputs += [f"${position}.{name}" for name in _ATTRIBUTES[symbol][0]]
        outputs = draw(st.permutations(outputs))
        rules = []
        for index, target in enumerate(outputs):
            pool = inputs + list(outputs[:index])
            arguments = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
            rules.append(Rule(target, arguments, _combine))
        builder.production(f"{lhs} -> {' '.join(rhs)}", *rules)
    return builder.build(start="S")


class TestGeneratedGrammars:
    @settings(max_examples=60, deadline=None)
    @given(acyclic_rule_sets())
    def test_bitset_fixpoint_matches_reference(self, grammar):
        _assert_matches_reference(grammar)
