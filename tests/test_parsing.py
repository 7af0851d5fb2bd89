"""Tests for the lexer generator, the LALR(1) table builder and the parser driver."""

from __future__ import annotations

import pytest

from repro.grammar.builder import GrammarBuilder, Rule
from repro.parsing.lalr import EOF, Action, build_lalr_table
from repro.parsing.lexer import Lexer, LexerError, Token, TokenSpec
from repro.parsing.parser import ParseError, Parser
from repro.exprlang.frontend import parse_expression, tokenize_expression


class TestLexer:
    def test_basic_tokens(self):
        lexer = Lexer([
            TokenSpec("whitespace", r"\s+", skip=True),
            TokenSpec("NUMBER", r"[0-9]+"),
            TokenSpec("IDENTIFIER", r"[a-z]+"),
            TokenSpec("+", r"\+"),
        ])
        kinds = [t.kind for t in lexer.tokenize("12 + abc")]
        assert kinds == ["NUMBER", "+", "IDENTIFIER"]

    def test_keywords(self):
        lexer = Lexer(
            [TokenSpec("whitespace", r"\s+", skip=True),
             TokenSpec("IDENTIFIER", r"[a-z]+")],
            keywords={"let": "LET"},
        )
        kinds = [t.kind for t in lexer.tokenize("let foo")]
        assert kinds == ["LET", "IDENTIFIER"]

    def test_positions(self):
        tokens = tokenize_expression("1 +\n 22")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[2].line == 2 and tokens[2].column == 2

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize_expression("1 ? 2")

    def test_empty_rule_list_rejected(self):
        with pytest.raises(ValueError):
            Lexer([])

    @pytest.mark.parametrize(
        "specs, text",
        [
            # A skip rule that can match nothing is not folded into the skip prefix.
            ([TokenSpec("ws", r"\s*", skip=True), TokenSpec("c", r"#[^\n]*", skip=True),
              TokenSpec("A", r"a")], "a # c\n a"),
            # A skip rule after a token rule is matched in rule order and dropped.
            ([TokenSpec("A", r"a"), TokenSpec("ws", r"\s+", skip=True)], "a  a\na ?"),
            # A token rule that matches nothing here passes to the next rule.
            ([TokenSpec("ws", r"\s+", skip=True), TokenSpec("E", r"b*"),
              TokenSpec("A", r"a")], "ab a\n bb ?"),
            # A failed token does not backtrack into the skipped comment.
            ([TokenSpec("c", r"\(\*[\s\S]*?\*\)", skip=True), TokenSpec("(", r"\(")],
             "((* c *)\n?"),
        ],
    )
    def test_rule_order_semantics_match_the_reference(self, specs, text):
        from parsing_reference import reference_scan

        def outcome(call):
            try:
                return call()
            except LexerError as error:
                return str(error), error.line, error.column

        lexer = Lexer(specs)
        assert outcome(lambda: lexer.scan(text)[:2]) == outcome(
            lambda: reference_scan(specs, text)
        )

    def test_numbered_back_reference_rejected(self):
        with pytest.raises(ValueError, match="back-reference"):
            Lexer([TokenSpec("Q", r"(['\"]).*?\1")])

    def test_token_is_a_light_record(self):
        token = Token("NUMBER", "12", 3, 4)
        assert (token.kind, token.text, token.line, token.column) == ("NUMBER", "12", 3, 4)
        assert token == Token("NUMBER", "12", 3, 4) and hash(token) == hash(
            Token("NUMBER", "12", 3, 4)
        )
        assert repr(token) == "Token(NUMBER, '12', 3:4)"
        assert not hasattr(token, "__dict__")


def _list_grammar():
    """A tiny grammar: comma-separated numbers, synthesizing their sum."""
    builder = GrammarBuilder("sumlist")
    builder.name_terminals("NUMBER")
    builder.keywords(",")
    builder.nonterminal("list", synthesized=["total"])
    builder.production(
        "list -> list , NUMBER",
        Rule("$$.total", ["$1.total", "$3.string"], lambda total, text: total + int(text)),
    )
    builder.production(
        "list -> NUMBER",
        Rule("$$.total", ["$1.string"], lambda text: int(text)),
    )
    return builder.build(start="list")


class TestLALR:
    def test_small_grammar_table(self):
        table = build_lalr_table(_list_grammar())
        assert table.state_count > 3
        assert not table.conflicts
        # The initial state must shift NUMBER: a shift is its target state, > 0.
        assert table.action[0]["NUMBER"] > 0
        assert Action.of(table.action[0]["NUMBER"]).kind == "shift"

    def test_expression_grammar_conflicts_resolved_by_precedence(self, expr_grammar):
        table = build_lalr_table(expr_grammar)
        assert table.conflicts == []

    def test_precedence_changes_parse_shape(self, expr_grammar):
        tree = parse_expression("1 + 2 * 3")
        # Root production must be the addition (multiplication binds tighter).
        root_expr = tree.children[0]
        assert root_expr.production.label == "expr -> expr + expr"

    def test_left_associativity(self):
        tree = parse_expression("1 + 2 + 3")
        root_expr = tree.children[0]
        assert root_expr.children[0].production.label == "expr -> expr + expr"

    def test_pascal_grammar_only_dangling_else_conflict(self):
        from repro.pascal.grammar import pascal_grammar

        table = build_lalr_table(pascal_grammar())
        assert len(table.conflicts) == 1
        conflict = table.conflicts[0]
        assert conflict.token == "ELSE"
        assert conflict.chosen.kind == "shift"


class TestParser:
    def test_parse_and_evaluate_tiny_grammar(self):
        grammar = _list_grammar()
        parser = Parser(grammar)
        lexer = Lexer([
            TokenSpec("whitespace", r"\s+", skip=True),
            TokenSpec("NUMBER", r"[0-9]+"),
            TokenSpec(",", r","),
        ])
        tree = parser.parse(lexer.tokenize("1, 2, 3, 4"))
        from repro.evaluation.static import StaticEvaluator

        StaticEvaluator(grammar).evaluate(tree)
        assert tree.get_attribute("total") == 10

    def test_parse_error_reports_expected_tokens(self):
        with pytest.raises(ParseError) as excinfo:
            parse_expression("let x = in 3 ni")
        assert "unexpected token" in str(excinfo.value)

    def test_parse_error_on_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 )")

    def test_terminal_values_recorded(self):
        tree = parse_expression("41 + 1")
        numbers = [n.token_value for n in tree.walk() if n.symbol.name == "NUMBER"]
        assert sorted(numbers) == ["1", "41"]

    def test_unknown_token_kind_rejected(self, expr_grammar):
        parser = Parser(expr_grammar)
        with pytest.raises(ParseError):
            parser.parse([Token("BOGUS", "x", 1, 1)])
