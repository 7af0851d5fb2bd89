"""The LALR(1) parse-table driver.

Parsing is two passes over flat data.  :meth:`Parser.recognise` runs the LR automaton
over the token stream on integer actions and, instead of building nodes, appends one
code per node in post-order — a terminal's code as it is shifted, a production's as it
is reduced — plus each shifted token's text.  Those are exactly the records of a packed
tree (:class:`repro.tree.linearize.PackedTree`), so the one stack machine that
rebuilds shipped regions, :func:`repro.tree.linearize.build`, turns them into
:class:`repro.tree.node.ParseTreeNode` trees whose interior nodes reference the
grammar's :class:`~repro.grammar.productions.Production` objects, ready for any of the
attribute evaluators.  :meth:`Parser.parse` is ``build(recognise(tokens))``.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.parsing.lalr import EOF, LALRTable, build_lalr_table
from repro.parsing.lexer import Token
from repro.tree.linearize import build, codec_for
from repro.tree.node import ParseTreeNode


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
    (the paper's generator likewise builds the parser once from the grammar).  A
    parser over a given ``table`` (a subtree table of the incremental front end) builds
    nothing: the table's actions are integers already.
    """

    def __init__(self, grammar: AttributeGrammar, table: Optional[LALRTable] = None):
        self.grammar = grammar
        self.table = table or build_lalr_table(grammar)

    def parse(self, tokens: Sequence[Token]) -> ParseTreeNode:
        """Parse a token stream (no EOF token required) into a parse tree."""
        codes, values = self.recognise(tokens)
        return build(self.grammar, codes, values)[0]

    def recognise(self, tokens: Sequence[Token]) -> Tuple[List[int], List[str]]:
        """Run the automaton over ``tokens``; return the tree's post-order codes
        and its token values, or raise :class:`ParseError`."""
        action_table = self.table.action
        goto_table = self.table.goto
        codec = codec_for(self.grammar)
        terminal_code = codec.terminal_code
        arity = codec.production_arity
        lhs_name = codec.production_lhs_name
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        codes: List[int] = []
        values: List[str] = []
        emit = codes.append
        keep = values.append
        states = [0]
        state = 0
        end = Token(EOF, "", tokens[-1].line if tokens else 1, 0)
        for token in chain(tokens, (end,)):
            kind = token[0]
            while True:
                action = action_table[state].get(kind)
                if action is None:
                    raise ParseError(
                        f"unexpected token {kind!r} ({token[1]!r})",
                        token,
                        expected=list(action_table[state]),
                    )
                if action > 0:  # shift
                    emit(terminal_code[kind])
                    keep(token[1])
                    states.append(action)
                    state = action
                    break
                if action == 0:  # accept
                    return codes, values
                production = ~action
                count = arity[production]
                if count:
                    del states[-count:]
                state = goto_table[states[-1]][lhs_name[production]]
                states.append(state)
                emit(production << 2)  # a production record's tag is 0
        raise ParseError("internal parser error: input ended without accept")
