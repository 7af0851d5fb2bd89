"""The front end as it was before post-order codes, kept as the oracle for the new one.

* :func:`reference_scan` is the rule-by-rule scanner: at each position every rule is
  tried in order and the first non-empty match wins; skipped text is matched on its
  own.
* :func:`reference_parse` is the LR loop that builds a node per shift and per reduce
  through the validating constructors (``make_terminal``/``make_node``), dispatching
  on each action's kind.
* :func:`reference_pack`/:func:`reference_unpack` are the pre-order packed codec:
  records parent first, rebuilt with one frame per open production.

They are slow and obviously right; ``tests/test_parsing_oracle.py`` asserts that the
product scans the same tokens, builds equal trees with equal summaries, and fails with
the same errors at the same positions.
"""

from __future__ import annotations

import re
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.parsing.lalr import EOF, Action, LALRTable
from repro.parsing.lexer import LexerError, Token, TokenSpec
from repro.parsing.parser import ParseError
from repro.tree.linearize import PackedTree, codec_for
from repro.tree.node import ParseTreeNode, make_node, make_terminal

_TAG_PRODUCTION = 0
_TAG_TERMINAL = 1
_TAG_HOLE = 2


def reference_scan(
    specs: Sequence[TokenSpec],
    text: str,
    keywords: Optional[Dict[str, str]] = None,
    keyword_source: str = "IDENTIFIER",
) -> Tuple[List[Token], List[Tuple[int, int, int]]]:
    """Tokens and ``(scan_start, start, end)`` spans, or :class:`LexerError`."""
    compiled = [(spec, re.compile(spec.pattern)) for spec in specs]
    keywords = keywords or {}
    tokens: List[Token] = []
    spans: List[Tuple[int, int, int]] = []
    position, line, line_start, anchor = 0, 1, 0, 0
    while position < len(text):
        for spec, pattern in compiled:
            match = pattern.match(text, position)
            if match is None or match.end() == position:
                continue
            lexeme = match.group(0)
            if not spec.skip:
                kind = spec.name
                if kind == keyword_source and lexeme.lower() in keywords:
                    kind = keywords[lexeme.lower()]
                tokens.append(Token(kind, lexeme, line, position - line_start + 1))
                spans.append((anchor, position, match.end()))
                anchor = match.end()
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = position + lexeme.rfind("\n") + 1
            position = match.end()
            break
        else:
            raise LexerError(
                f"unexpected character {text[position]!r}", line, position - line_start + 1
            )
    return tokens, spans


def reference_parse(
    grammar: AttributeGrammar, table: LALRTable, tokens: Sequence[Token]
) -> ParseTreeNode:
    """Parse ``tokens`` into a tree, one validated node per shift and reduce."""
    state_stack: List[int] = [0]
    node_stack: List[ParseTreeNode] = []
    end_line = tokens[-1].line if tokens else 1
    stream = list(tokens) + [Token(EOF, "", end_line, 0)]
    position = 0
    while True:
        state = state_stack[-1]
        token = stream[position]
        code = table.action[state].get(token.kind)
        if code is None:
            raise ParseError(
                f"unexpected token {token.kind!r} ({token.text!r})",
                token,
                expected=list(table.action[state]),
            )
        entry = Action.of(code)
        if entry.kind == "shift":
            node_stack.append(make_terminal(grammar.terminals[token.kind], token.text))
            state_stack.append(entry.target)
            position += 1
            continue
        if entry.kind == "reduce":
            production = grammar.productions[entry.target]
            arity = len(production.rhs)
            children = node_stack[len(node_stack) - arity :] if arity else ()
            del node_stack[len(node_stack) - arity :]
            del state_stack[len(state_stack) - arity :]
            node_stack.append(make_node(production, children))
            state_stack.append(table.goto[state_stack[-1]][production.lhs.name])
            continue
        assert len(node_stack) == 1
        return node_stack[0]


def reference_pack(
    grammar: AttributeGrammar, root: ParseTreeNode, holes: Optional[Dict[int, int]] = None
) -> PackedTree:
    """Pack in pre-order: each record before its children."""
    codec = codec_for(grammar)
    holes = holes or {}
    codes = array("i")
    values: List[Any] = []
    hole_meta = array("q")
    size = root.wire_size
    stack = [root]
    while stack:
        node = stack.pop()
        if node.node_id in holes and node is not root:
            codes.append((codec.nonterminal_index[node.symbol.name] << 2) | _TAG_HOLE)
            hole_meta.append(holes[node.node_id])
            hole_meta.append(node.node_id)
            size += 16 - node.wire_size
            continue
        if node.is_terminal:
            codes.append((codec.terminal_index[node.symbol.name] << 2) | _TAG_TERMINAL)
            values.append(node.token_value)
        else:
            codes.append((node.production.index << 2) | _TAG_PRODUCTION)
            stack.extend(reversed(node.children))
    return PackedTree(codes, values, hole_meta, root.symbol.name, size)


def reference_unpack(
    grammar: AttributeGrammar, packed: PackedTree
) -> Tuple[ParseTreeNode, Dict[int, ParseTreeNode]]:
    """Rebuild a pre-order packed tree, one frame per open production."""
    codec = codec_for(grammar)
    holes: Dict[int, ParseTreeNode] = {}
    values = iter(packed.values)
    hole_meta = iter(packed.hole_meta)
    frames: List[List[Any]] = []
    root: Optional[ParseTreeNode] = None
    for code in packed.codes:
        tag, index = code & 3, code >> 2
        if tag == _TAG_PRODUCTION:
            production = grammar.productions[index]
            if production.rhs:
                frames.append([production, []])
                continue
            node = make_node(production, [])
        elif tag == _TAG_TERMINAL:
            node = make_terminal(codec.terminal_list[index], next(values))
        else:
            node = ParseTreeNode(codec.nonterminal_list[index])
            holes[next(hole_meta)] = node
            next(hole_meta)
        while frames:
            frame = frames[-1]
            frame[1].append(node)
            if len(frame[1]) < len(frame[0].rhs):
                break
            frames.pop()
            node = make_node(frame[0], frame[1])
        else:
            root = node
    assert root is not None and not frames
    return root, holes
