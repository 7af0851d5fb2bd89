"""Incremental lexing and damaged-subtree reparsing.

The first two stages of the staged pipeline (``TokenStream`` and ``ParseTree``)
reuse whatever an edit left intact:

* **Token splice** — tokens strictly before the damage are kept verbatim; the
  lexer restarts at the last safe token boundary before the edit and stops as soon
  as a token boundary realigns with the old scan (same offset modulo the edit's
  length delta, on a line unaffected by the edit), after which the old suffix
  tokens are reused — verbatim when the edit changed neither lengths nor line
  structure, otherwise re-stamped with shifted line numbers.  Safe restart points
  exist because the scanner is stateless at token boundaries: every span interval
  (inter-token skip text plus lexeme) tiles the input.  Prefix reuse assumes the
  scanner's rules are local: a rule's match is determined by its lexeme text (no
  lookahead past it), and no delimited rule's opening sequence can occur as
  ordinary adjacent tokens in a *parseable* program (see
  ``GrammarLanguage(lexer=...)``; both built-in languages qualify).

* **Damaged-subtree reparse** — the smallest old subtree whose token span covers
  the damage is re-parsed in isolation with a *subtree LALR table* (the grammar's
  table built with that nonterminal as the start symbol, cached per grammar), and
  the fresh subtree is spliced into a rebuilt root-to-node spine.  Untouched
  siblings are reused **by reference**, which is what lets the fingerprint memo
  prove their regions' content unchanged without re-packing them.  For an
  unambiguous backbone the isolated parse is the unique derivation of that token
  slice, so the spliced tree equals a full reparse; any sub-parse failure falls
  back to the next enclosing candidate and finally to a full parse, which is also
  what a candidate spanning the whole token stream gets.
"""

from __future__ import annotations

import bisect
import weakref
from typing import Dict, List, Optional, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.parsing.lalr import LALRTable, build_lalr_table
from repro.parsing.lexer import Lexer, Token
from repro.parsing.parser import ParseError, Parser
from repro.tree.node import ParseTreeNode, make_node


class EditEnvelope:
    """The merged damage of all edits since the last build.

    Tracks one conservative span in both coordinate systems: ``[old_lo, old_hi)``
    in the previous build's text and ``[new_lo, new_hi)`` in the current text.
    Text outside the envelope is byte-identical between the two (shifted by
    ``delta`` after the envelope).
    """

    __slots__ = ("old_lo", "old_hi", "new_lo", "new_hi")

    def __init__(self) -> None:
        self.old_lo: Optional[int] = None
        self.old_hi = 0
        self.new_lo = 0
        self.new_hi = 0

    @property
    def empty(self) -> bool:
        return self.old_lo is None

    @property
    def delta(self) -> int:
        """Length shift applied to positions after the envelope."""
        if self.old_lo is None:
            return 0
        return (self.new_hi - self.new_lo) - (self.old_hi - self.old_lo)

    def record(self, start: int, end: int, new_length: int) -> None:
        """Fold one ``replace(start, end, <new_length> chars)`` into the envelope.

        ``start``/``end`` are in *current* text coordinates (i.e. after all edits
        recorded so far).
        """
        if self.old_lo is None:
            self.old_lo, self.old_hi = start, end
            self.new_lo, self.new_hi = start, start + new_length
            return
        delta = self.delta
        if start < self.new_lo:
            # Positions before the envelope are identical in both texts.
            self.old_lo = start
        if end > self.new_hi:
            # Positions after the envelope map back through the length shift.
            self.old_hi = end - delta
        lo = min(self.new_lo, start)
        hi = max(self.new_hi, end)
        self.new_lo = lo
        self.new_hi = hi + new_length - (end - start)

    def reset(self) -> None:
        self.old_lo = None
        self.old_hi = self.new_lo = self.new_hi = 0

    def __repr__(self) -> str:
        if self.empty:
            return "EditEnvelope(empty)"
        return (
            f"EditEnvelope(old=[{self.old_lo}:{self.old_hi}), "
            f"new=[{self.new_lo}:{self.new_hi}))"
        )


Span = Tuple[int, int, int]  # (scan_start, start, end)


def incremental_scan(
    lexer: Lexer,
    old_tokens: List[Token],
    old_spans: List[Span],
    old_text: str,
    new_text: str,
    envelope: EditEnvelope,
) -> Tuple[List[Token], List[Span], int, int, int]:
    """Re-lex only the damaged stretch of ``new_text``.

    Returns ``(tokens, spans, first_changed, old_resync, new_resync)``: the new
    token list equals a full scan of ``new_text``; tokens ``[0, first_changed)``
    are shared with the old list, old tokens ``[old_resync:]`` were reused for the
    suffix (re-stamped if lines shifted), and the genuinely re-lexed stretch is
    ``tokens[first_changed:new_resync]``.
    """
    assert not envelope.empty
    old_lo, old_hi = envelope.old_lo, envelope.old_hi
    delta = envelope.delta

    # Prefix: tokens whose lexeme ends strictly before the damage cannot change
    # (maximal munch: the character that stopped them is untouched; token patterns
    # must not look ahead past their lexeme, which holds for every scanner built
    # from plain TokenSpec rules).  A token ending exactly at the damage start
    # rescans — an insertion there can extend it ("v4" + "x1" → "v4x1").
    ends = [span[2] for span in old_spans]
    first_changed = bisect.bisect_left(ends, old_lo)
    if first_changed > 0:
        restart = old_spans[first_changed - 1][2]
        previous = old_tokens[first_changed - 1]
        newlines = previous.text.count("\n")
        line = previous.line + newlines
        if newlines:
            line_start = (
                old_spans[first_changed - 1][1] + previous.text.rfind("\n") + 1
            )
        else:
            line_start = old_spans[first_changed - 1][1] - (previous.column - 1)
    else:
        restart, line, line_start = 0, 1, 0

    # Resynchronisation candidates: old token boundaries past the damage whose
    # line also starts *strictly* past the damage (their columns cannot have
    # shifted).  Strict: a line starting exactly at old_hi was created by a
    # newline at old_hi - 1 — inside the damaged span, so possibly edited away.
    line_delta = new_text[envelope.new_lo : envelope.new_hi].count("\n") - old_text[
        old_lo:old_hi
    ].count("\n")
    candidates: Dict[int, int] = {}
    anchors = [span[0] for span in old_spans]
    for index in range(bisect.bisect_left(anchors, old_hi), len(old_spans)):
        token = old_tokens[index]
        token_line_start = old_spans[index][1] - (token.column - 1)
        if token_line_start > old_hi:
            candidates[old_spans[index][0] + delta] = index

    middle_tokens, middle_spans, stopped = lexer.scan(
        new_text,
        position=restart,
        line=line,
        line_start=line_start,
        resync_offsets=set(candidates) if candidates else None,
        resync_min=envelope.new_hi,
    )

    tokens = old_tokens[:first_changed] + middle_tokens
    spans = old_spans[:first_changed] + middle_spans
    if stopped is None:
        return tokens, spans, first_changed, len(old_tokens), len(tokens)

    old_resync = candidates[stopped]
    new_resync = len(tokens)
    if delta == 0 and line_delta == 0:
        # Same lengths, same line structure: the suffix is reusable verbatim.
        tokens += old_tokens[old_resync:]
        spans += old_spans[old_resync:]
    else:
        tokens += [
            Token(token.kind, token.text, token.line + line_delta, token.column)
            for token in old_tokens[old_resync:]
        ]
        spans += [
            (span[0] + delta, span[1] + delta, span[2] + delta)
            for span in old_spans[old_resync:]
        ]
    return tokens, spans, first_changed, old_resync, new_resync


# ------------------------------------------------------------- subtree reparse

_subtable_cache: "weakref.WeakKeyDictionary[AttributeGrammar, Dict[str, LALRTable]]" = (
    weakref.WeakKeyDictionary()
)


def subtree_table(grammar: AttributeGrammar, symbol: str) -> LALRTable:
    """The LALR table accepting exactly ``symbol``'s language (cached per grammar)."""
    tables = _subtable_cache.get(grammar)
    if tables is None:
        tables = {}
        _subtable_cache[grammar] = tables
    table = tables.get(symbol)
    if table is None:
        table = build_lalr_table(grammar, start=symbol)
        tables[symbol] = table
    return table


def incremental_reparse(
    grammar: AttributeGrammar,
    parser: Parser,
    old_tree: ParseTreeNode,
    new_tokens: List[Token],
    first_changed: int,
    old_resync: int,
    new_resync: int,
) -> Tuple[ParseTreeNode, str]:
    """Re-parse only the damaged subtree; returns ``(tree, mode)``.

    ``mode`` is ``"reuse"`` (token stream unchanged — the old tree *is* the new
    tree), ``"splice"`` (an enclosing subtree was re-parsed in isolation and
    spliced in, sharing every untouched sibling by reference) or ``"full"``
    (fallback whole-stream parse).  A node's token span is its ``token_count``
    summary (every shifted token becomes exactly one terminal leaf), so the old tree
    is never modified: the rebuilt spine shares its untouched subtrees.
    """
    if first_changed == old_resync and first_changed == new_resync:
        return old_tree, "reuse"
    token_delta = new_resync - first_changed - (old_resync - first_changed)

    # Walk down from the root, following the unique child whose old token span
    # covers the damage; the visited path is the candidate chain, smallest last.
    path: List[Tuple[ParseTreeNode, int]] = []  # (node, its token-span start)
    node, start = old_tree, 0
    while True:
        path.append((node, start))
        descended = False
        child_start = start
        for child in node.children:
            child_count = child.token_count
            if (
                child_start <= first_changed
                and old_resync <= child_start + child_count
            ):
                if not child.is_terminal and child.production is not None:
                    node, start = child, child_start
                    descended = True
                break
            child_start += child_count
        if not descended:
            break

    for depth in range(len(path) - 1, 0, -1):  # smallest candidate first; 0 = root
        candidate, span_start = path[depth]
        span_end = span_start + candidate.token_count
        if span_start == 0 and span_end + token_delta == len(new_tokens):
            # This candidate and every one enclosing it span the whole stream:
            # parse it once, with the full table.
            break
        slice_tokens = new_tokens[span_start : span_end + token_delta]
        try:
            table = subtree_table(grammar, candidate.symbol.name)
            subtree = Parser(grammar, table).parse(slice_tokens)
        except (ParseError, ValueError):
            continue  # climb to the enclosing candidate
        # Rebuild the spine from the candidate's parent up to the root; untouched
        # siblings are the original node objects, reused by reference.
        fresh = subtree
        replaced = candidate
        for ancestor, _ in reversed(path[:depth]):
            children = [
                fresh if child is replaced else child for child in ancestor.children
            ]
            fresh = make_node(ancestor.production, children)
            replaced = ancestor
        return fresh, "splice"

    return parser.parse(new_tokens), "full"
