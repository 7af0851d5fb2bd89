"""The LALR(1) parse-table driver.

Builds :class:`repro.tree.node.ParseTreeNode` trees whose interior nodes reference the
grammar's :class:`~repro.grammar.productions.Production` objects, so the resulting tree
can be handed directly to any of the attribute evaluators.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.grammar.grammar import AttributeGrammar
from repro.grammar.symbols import Terminal
from repro.parsing.lalr import EOF, Action, LALRTable, build_lalr_table
from repro.parsing.lexer import Token
from repro.tree.node import ParseTreeNode, make_node, make_terminal


class ParseError(Exception):
    """Raised when the token stream is not derivable from the grammar."""

    def __init__(self, message: str, token: Optional[Token] = None,
                 expected: Optional[Sequence[str]] = None):
        location = ""
        if token is not None:
            location = f" at line {token.line}, column {token.column}"
        expectation = ""
        if expected:
            shown = ", ".join(sorted(expected)[:8])
            expectation = f" (expected one of: {shown})"
        super().__init__(f"{message}{location}{expectation}")
        self.token = token
        self.expected = list(expected or [])


class Parser:
    """LALR(1) parser for an attribute grammar's context-free backbone.

    The table is built once per parser instance; reuse the parser across compilations
    (the paper's generator likewise builds the parser once from the grammar).
    """

    def __init__(self, grammar: AttributeGrammar, table: Optional[LALRTable] = None):
        self.grammar = grammar
        self.table = table or build_lalr_table(grammar)

    def parse(self, tokens: Sequence[Token]) -> ParseTreeNode:
        """Parse a token stream (no EOF token required) into a parse tree."""
        action_table = self.table.action
        goto_table = self.table.goto
        state_stack: List[int] = [0]
        node_stack: List[ParseTreeNode] = []

        stream = list(tokens) + [Token(EOF, "", _end_line(tokens), 0)]
        position = 0
        while True:
            state = state_stack[-1]
            token = stream[position]
            entry = action_table[state].get(token.kind)
            if entry is None:
                raise ParseError(
                    f"unexpected token {token.kind!r} ({token.text!r})",
                    token,
                    expected=list(action_table[state]),
                )
            if entry.kind == "shift":
                terminal = self._terminal(token.kind)
                node_stack.append(make_terminal(terminal, token.text))
                state_stack.append(entry.target)
                position += 1
                continue
            if entry.kind == "reduce":
                production = self.grammar.productions[entry.target]
                arity = len(production.rhs)
                children = node_stack[len(node_stack) - arity :] if arity else ()
                del node_stack[len(node_stack) - arity :]
                del state_stack[len(state_stack) - arity :]
                node = make_node(production, children)
                node_stack.append(node)
                goto_state = goto_table[state_stack[-1]].get(production.lhs.name)
                if goto_state is None:
                    raise ParseError(
                        f"internal parser error: no GOTO for {production.lhs.name!r}",
                        token,
                    )
                state_stack.append(goto_state)
                continue
            # accept
            if len(node_stack) != 1:
                raise ParseError("internal parser error: accept with non-unit stack")
            return node_stack[0]

    def _terminal(self, name: str) -> Terminal:
        terminal = self.grammar.terminals.get(name)
        if terminal is None:
            raise ParseError(f"token kind {name!r} is not a grammar terminal")
        return terminal


def _end_line(tokens: Sequence[Token]) -> int:
    if not tokens:
        return 1
    return tokens[-1].line
