"""Planning over the recogniser's spans against planning over the built tree.

A compile of source text never builds the driver's tree: it plans over the post-order
records ``Parser.recognise`` emits (:mod:`repro.tree.spans`) and ships each region as
a slice of them.  Pascal, exprlang and sumlang sources, some with a random edit, go
through both paths; for every machine count, explicit minimum size and split scale the
two plans must agree region by region, every shipped region must equal what ``pack``
makes of the tree, and a source that does not scan or parse must fail the same way.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.language import GrammarLanguage, get_language, parse_for_compile
from repro.exprlang.evaluator import random_expression_source
from repro.parsing import Lexer
from repro.parsing.lexer import LexerError
from repro.parsing.parser import ParseError
from repro.partition.decomposition import plan_decomposition
from repro.pascal.programs import generate_program
from repro.tree.linearize import pack, unpack
from repro.tree.node import ParseTreeNode
from repro.tree.spans import SpanNode

_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _sumlang_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_span_oracle_sumlang", os.path.join(_EXAMPLES, "register_language.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SUMLANG_MODULE = _sumlang_module()
SUMLANG_LEXER = Lexer(_SUMLANG_MODULE._TOKENS)
#: ``examples/register_language.py``'s toy language, given a lexer (unregistered).
SUMLANG = GrammarLanguage(
    "sumlang",
    _SUMLANG_MODULE.sumlang_grammar,
    tokenize=SUMLANG_LEXER.tokenize,
    lexer=SUMLANG_LEXER,
)

#: What an edit inserts: tokens of every language, fragments of them, stray text.
FRAGMENTS = [
    "", " ", "\n", "(", ")", ";", ":=", "begin", "end", "let y = 2 in", "ni", "in",
    "7", "neg", "neg 4", "+", "*", "'", "{", "(*", "?", "$", "x1",
]


def _source(language: str, rng: random.Random) -> str:
    if language == "pascal":
        return generate_program(
            procedures=rng.randint(1, 6),
            statements_per_procedure=rng.randint(1, 3),
            seed=rng.randrange(1 << 16),
        )
    if language == "exprlang":
        return random_expression_source(
            rng.randint(5, 150), seed=rng.randrange(1 << 16), nesting=rng.randint(1, 5)
        )
    items = [
        ("neg " if rng.random() < 0.2 else "")
        + str(rng.randrange(10 ** rng.randint(1, 6)))
        for _ in range(rng.randint(1, 200))
    ]
    return " ".join(items)


def _language(name: str):
    return SUMLANG if name == "sumlang" else get_language(name)


def _outcome(call):
    """``("ok", value)``, or the error's type, message and position."""
    try:
        return "ok", call()
    except LexerError as error:
        return "LexerError", str(error), error.line, error.column
    except ParseError as error:
        token = error.token
        where = None if token is None else tuple(token)
        return "ParseError", str(error), where, error.expected


def _regions(plan):
    return [
        (
            region.region_id,
            region.parent_region,
            list(region.child_regions),
            region.size,
            region.node_count,
            region.label,
            region.root.symbol.name,
        )
        for region in plan.regions
    ]


def _assert_same_plans(grammar, spans, tree, machines, min_size, scale):
    span_plan = plan_decomposition(spans, machines, min_size=min_size, scale=scale)
    tree_plan = plan_decomposition(tree, machines, min_size=min_size, scale=scale)
    assert _regions(span_plan) == _regions(tree_plan)
    assert (span_plan.total_size, span_plan.threshold) == (
        tree_plan.total_size,
        tree_plan.threshold,
    )
    for region in tree_plan.regions:
        sliced = span_plan.packed(region.region_id, grammar)
        packed = pack(grammar, region.root, tree_plan.holes_of(region.region_id))
        assert sliced.codes == packed.codes
        assert sliced.values == packed.values
        assert list(sliced.hole_meta[0::2]) == list(packed.hole_meta[0::2])
        assert sliced.root_symbol == packed.root_symbol
        assert sliced.size_bytes() == packed.size_bytes()
        # The slice is what its evaluator rebuilds: the same region, hole for hole.
        rebuilt, holes = unpack(grammar, sliced)
        assert rebuilt.node_count == region.node_count + len(holes)
        assert sorted(holes) == sorted(region.child_regions)
    return span_plan


class TestSpanPlanOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        language=st.sampled_from(["pascal", "exprlang", "sumlang"]),
        seed=st.integers(0, 2 ** 16),
        machines=st.integers(1, 6),
        min_size=st.sampled_from([None, 0, 40]),
        scale=st.sampled_from([1.0, 0.25]),
        edited=st.integers(0, 2),
        edit=st.sampled_from(FRAGMENTS),
        where=st.floats(0, 1),
        width=st.integers(0, 8),
    )
    def test_span_plan_equals_node_plan(
        self, language, seed, machines, min_size, scale, edited, edit, where, width
    ):
        lang = _language(language)
        text = _source(language, random.Random(seed))
        if not edited:  # two thirds of the sources stay whole, and parse
            at = int(where * len(text))
            text = text[:at] + edit + text[at + width :]

        spans = _outcome(lambda: parse_for_compile(lang, text))
        tree = _outcome(lambda: lang.parse(text))
        assert spans[0] == tree[0]
        if spans[0] != "ok":
            assert spans == tree
            return
        spans, tree = spans[1], tree[1]
        assert isinstance(spans, SpanNode) and isinstance(tree, ParseTreeNode)
        assert (spans.node_count, spans.wire_size, spans.token_count) == (
            tree.node_count,
            tree.wire_size,
            tree.token_count,
        )
        _assert_same_plans(lang.grammar(), spans, tree, machines, min_size, scale)

    @pytest.mark.parametrize("machines", [2, 4])
    def test_paper_sized_program(self, machines):
        """The ledger's paper-shaped program: two plans, one set of shipped regions."""
        pascal = get_language("pascal")
        text = generate_program(procedures=46, statements_per_procedure=2, seed=7)
        spans = parse_for_compile(pascal, text)
        tree = pascal.parse(text)
        plan = _assert_same_plans(pascal.grammar(), spans, tree, machines, None, 1.0)
        assert plan.region_count == machines
        # Made once: fingerprinting and shipping read the same object.
        assert plan.packed(1, pascal.grammar()) is plan.packed(1, pascal.grammar())

    def test_a_language_without_a_front_end_is_parsed_into_a_tree(self):
        language = GrammarLanguage(
            "sumlang-tokenize-only", SUMLANG.grammar, tokenize=SUMLANG_LEXER.tokenize
        )
        assert isinstance(parse_for_compile(language, "1 2 neg 3"), ParseTreeNode)
