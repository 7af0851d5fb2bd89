"""The front end against its reference (``tests/parsing_reference.py``).

Pascal and exprlang sources, most with a random span edit, go through the product's
lexer and parser and through the reference's rule-by-rule scanner and node-per-action
LR loop.  They must scan the same tokens with the same spans, build equal trees (symbol,
production, token value and all four summaries at every node), and fail with the same
``LexerError``/``ParseError`` message at the same position.  The post-order packed
codec must rebuild the trees the pre-order one rebuilt.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from parsing_reference import (
    reference_pack,
    reference_parse,
    reference_scan,
    reference_unpack,
)
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import _KEYWORDS as EXPR_KEYWORDS
from repro.exprlang.frontend import _LEXER as EXPR_LEXER
from repro.exprlang.frontend import _TOKEN_SPECS as EXPR_SPECS
from repro.exprlang.frontend import _default_parser as expr_parser
from repro.parsing.lexer import LexerError
from repro.parsing.parser import ParseError
from repro.partition.decomposition import plan_decomposition
from repro.pascal.compiler import _shared_parser as pascal_parser
from repro.pascal.lexer import _LEXER as PASCAL_LEXER
from repro.pascal.lexer import KEYWORDS as PASCAL_KEYWORDS
from repro.pascal.lexer import TOKEN_SPECS as PASCAL_SPECS
from repro.pascal.programs import generate_program
from repro.tree.linearize import pack, unpack

LANGUAGES = {
    "pascal": (PASCAL_LEXER, PASCAL_SPECS, PASCAL_KEYWORDS, pascal_parser),
    "exprlang": (EXPR_LEXER, EXPR_SPECS, EXPR_KEYWORDS, expr_parser),
}

#: What an edit inserts: tokens, fragments of tokens, skipped text, stray characters.
FRAGMENTS = [
    "", " ", "\n", "(", ")", ";", ":=", ":", "..", ".", "+", "*", "=", "<>", "[", "]",
    ",", "begin", "end", "if x then", "else", "let y = 2 in", "ni", "in", "7", "42",
    "'", "'s'", "''", "{", "}", "{ c }", "(*", "*)", "(* c *)", "-- c\n", "?", "$",
    "x1", "_", "writeln(1)", "\t", "\n?", "\n  $\n",
]


def _source(language: str, seed: int) -> str:
    if language == "pascal":
        return generate_program(procedures=2, statements_per_procedure=2, seed=seed)
    return random_expression_source(30, seed=seed, nesting=4)


def shape(root):
    """Every node's (symbol, production, token value, four summaries, arity), pre-order."""
    rows = []
    stack = [root]
    while stack:
        node = stack.pop()
        production = node.production
        rows.append((
            node.symbol.name,
            None if production is None else production.index,
            node.token_value,
            node.node_count,
            node.wire_size,
            node.attribute_instances,
            node.token_count,
            len(node.children),
        ))
        stack.extend(reversed(node.children))
    return rows


def _outcome(call):
    """``("ok", value)`` or the error's type, message and position."""
    try:
        return "ok", call()
    except LexerError as error:
        return "LexerError", str(error), error.line, error.column
    except ParseError as error:
        token = error.token
        where = None if token is None else tuple(token)
        return "ParseError", str(error), where, error.expected


class TestFrontEndOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        language=st.sampled_from(sorted(LANGUAGES)),
        seed=st.integers(0, 2 ** 16),
        start=st.floats(0, 1),
        width=st.integers(0, 12),
        fragment=st.sampled_from(FRAGMENTS),
        edited=st.integers(0, 2),
    )
    def test_edited_sources_scan_and_parse_alike(
        self, language, seed, start, width, fragment, edited
    ):
        lexer, specs, keywords, parser_of = LANGUAGES[language]
        parser = parser_of()
        text = _source(language, seed)
        if edited:  # a third of the sources stay whole, and parse
            at = int(start * len(text))
            text = text[:at] + fragment + text[at + width :]

        scanned = _outcome(lambda: lexer.scan(text)[:2])
        expected = _outcome(lambda: reference_scan(specs, text, keywords))
        assert scanned == expected
        if scanned[0] != "ok":
            assert _outcome(lambda: lexer.tokenize(text)) == expected
            return
        tokens, _ = scanned[1]
        assert lexer.tokenize(text) == tokens

        parsed = _outcome(lambda: shape(parser.parse(tokens)))
        reference = _outcome(
            lambda: shape(reference_parse(parser.grammar, parser.table, tokens))
        )
        assert parsed == reference

    @settings(max_examples=30, deadline=None)
    @given(
        language=st.sampled_from(sorted(LANGUAGES)),
        seed=st.integers(0, 2 ** 16),
        machines=st.integers(1, 5),
    )
    def test_post_order_codec_rebuilds_what_pre_order_did(self, language, seed, machines):
        _, _, _, parser_of = LANGUAGES[language]
        parser = parser_of()
        grammar = parser.grammar
        tree = parser.parse(LANGUAGES[language][0].tokenize(_source(language, seed)))
        decomposition = plan_decomposition(tree, machines)
        for region in decomposition.regions:
            holes = decomposition.holes_of(region.region_id)
            rebuilt, placeholders = unpack(grammar, pack(grammar, region.root, holes))
            expected, reference_holes = reference_unpack(
                grammar, reference_pack(grammar, region.root, holes)
            )
            assert shape(rebuilt) == shape(expected)
            assert list(placeholders) == list(reference_holes)
            assert pack(grammar, region.root, holes).size_bytes() == (
                reference_pack(grammar, region.root, holes).size_bytes()
            )
