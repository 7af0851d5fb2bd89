"""A small table-driven lexer generator.

A lexer is described by an ordered list of :class:`TokenSpec` regular-expression rules
plus an optional keyword table (identifiers whose text matches a keyword are re-tagged
with the keyword's token kind, the usual trick for Pascal-like languages).  The
generated :class:`Lexer` produces :class:`Token` records with line/column positions and
raises :class:`LexerError` on unrecognisable input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple


class LexerError(Exception):
    """Raised when the input contains a character no rule matches."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Token(tuple):
    """One scanned token: ``(kind, text, line, column)``.

    A slotted tuple, so the scanner builds one with a single C call; two tokens are
    equal, and hash alike, exactly when their four fields are.
    """

    __slots__ = ()

    def __new__(cls, kind: str, text: str, line: int, column: int) -> "Token":
        return tuple.__new__(cls, (kind, text, line, column))

    def __getnewargs__(self) -> Tuple[str, str, int, int]:
        return tuple(self)

    kind = property(itemgetter(0))
    text = property(itemgetter(1))
    line = property(itemgetter(2))
    column = property(itemgetter(3))

    def __repr__(self) -> str:
        return f"Token({self[0]}, {self[1]!r}, {self[2]}:{self[3]})"


@dataclass(frozen=True)
class TokenSpec:
    """One lexical rule.

    :param name: token kind produced (ignored when ``skip`` is true).
    :param pattern: regular expression (anchored at the current position).
    :param skip: when true, matching text is discarded (whitespace, comments).
    """

    name: str
    pattern: str
    skip: bool = False


class Lexer:
    """Compiled scanner for a list of :class:`TokenSpec` rules.

    Rules are tried in order at each position; the first match wins (so keywords given
    as literal rules must precede a generic identifier rule, or use ``keywords``).

    All rules compile into one pattern, so a token costs one C-level ``match``:

    * the skip rules that come before every token rule (whitespace, comments) fold
      into a prefix ``(?=((?:skip1|skip2|...)*))\\1`` — a lookahead is atomic, so a
      token that then fails does not backtrack into the skipped text (which would let
      a token rule match inside a comment);
    * every other rule is one outer group of an alternation in rule order, which keeps
      first-match-wins; a later skip rule wins its group and is dropped.

    A skip rule that can match the empty string is not folded (the prefix's star
    would stop at its empty match).  Where a rule matches the empty string at a
    position, the rules are tried one by one there and an empty match moves on to the
    next rule, as it always has.
    """

    def __init__(
        self,
        specs: Sequence[TokenSpec],
        keywords: Optional[Dict[str, str]] = None,
        keyword_source: str = "IDENTIFIER",
    ):
        if not specs:
            raise ValueError("a lexer needs at least one token rule")
        self._compiled = [(spec, re.compile(spec.pattern)) for spec in specs]
        self._keywords = dict(keywords or {})
        self._keyword_source = keyword_source
        for spec, _ in self._compiled:
            # Composition renumbers groups, which would retarget ``\N``.
            if re.search(r"\\\d", spec.pattern):
                raise ValueError(f"token rule {spec.name!r} uses a numbered back-reference")
        folded: List[str] = []
        for spec, compiled in self._compiled:
            if not spec.skip or compiled.match("") is not None:
                break
            folded.append(spec.pattern)
        self._skip = re.compile("(?:%s)*" % "|".join(folded)) if folded else None
        # Group 1 is the skipped text; each remaining rule is an outer group, and its
        # inner groups map to it too, so ``match.lastindex`` names the winning rule.
        pieces: List[str] = []
        #: Per group number: the token kind, ``None`` for a dropped skip rule.
        kinds: List[Optional[str]] = [None, None]
        for spec, compiled in self._compiled[len(folded):]:
            pieces.append(f"({spec.pattern})")
            kinds.extend([None if spec.skip else spec.name] * (1 + compiled.groups))
        prefix = f"(?=({self._skip.pattern}))\\1" if folded else "()"
        self._pattern = re.compile(prefix + "(?:" + "|".join(pieces) + ")")
        if self._pattern.groups != len(kinds) - 1:
            raise ValueError("a token rule changes its group count when combined")
        self._kinds = kinds

    def tokenize(self, text: str) -> List[Token]:
        """Scan the whole input and return the token list (no EOF token appended)."""
        return self._run(text, 0, 1, 0)[0]

    def scan(
        self,
        text: str,
        position: int = 0,
        line: int = 1,
        line_start: int = 0,
        resync_offsets: Optional[Set[int]] = None,
        resync_min: int = 0,
    ):
        """Scan like :meth:`tokenize` but also return per-token text spans.

        Returns ``(tokens, spans, stopped_at)`` where ``spans[i] = (scan_start,
        start, end)``: ``scan_start`` is the offset where scanning for token ``i``
        began (the end of token ``i-1``, so skipped text — whitespace, comments —
        between tokens belongs to the *following* token's span), ``start``/``end``
        delimit the lexeme itself.  The span intervals tile the input, which is what
        incremental re-lexing needs to find safe restart and resynchronisation
        points.  ``position``/``line``/``line_start`` allow restarting a scan
        mid-text at a known-safe boundary; when a token boundary at or past
        ``resync_min`` lands exactly on an offset in ``resync_offsets``, scanning
        stops there and ``stopped_at`` is that offset (``None`` when the scan ran to
        the end of the text).
        """
        spans: List[Tuple[int, int, int]] = []
        tokens, stopped = self._run(
            text, position, line, line_start, spans, resync_offsets, resync_min
        )
        return tokens, spans, stopped

    def _run(
        self,
        text: str,
        position: int,
        line: int,
        line_start: int,
        spans: Optional[List[Tuple[int, int, int]]] = None,
        resync_offsets: Optional[Set[int]] = None,
        resync_min: int = 0,
    ) -> Tuple[List[Token], Optional[int]]:
        new_token = tuple.__new__
        match = self._pattern.match
        kinds = self._kinds
        keywords = self._keywords
        keyword_source = self._keyword_source
        count = text.count
        tokens: List[Token] = []
        append = tokens.append
        length = len(text)
        # Newlines before ``counted`` are in ``line``/``line_start`` already.
        counted = position
        anchor = position
        while position < length:
            if (
                resync_offsets is not None
                and position == anchor
                and position >= resync_min
                and position in resync_offsets
            ):
                return tokens, position
            found = match(text, position)
            if found is None:
                self._fail(text, position, line, line_start, counted)
                break  # only skipped text was left
            start, end = found.span(found.lastindex)
            if start == end:
                start, end, kind = self._rule_by_rule(text, found.end(1))
            else:
                kind = kinds[found.lastindex]
            if kind is None:  # a skip rule after the first token rule
                position = end
                continue
            newlines = count("\n", counted, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", counted, start) + 1
            counted = start
            if kind == keyword_source:
                kind = keywords.get(text[start:end].lower(), kind)
            append(new_token(Token, (kind, text[start:end], line, start - line_start + 1)))
            if spans is not None:
                spans.append((anchor, start, end))
            anchor = position = end
        return tokens, None

    def _rule_by_rule(self, text: str, position: int) -> Tuple[int, int, Optional[str]]:
        """The first rule with a non-empty match at ``position`` (an empty one is
        passed over); ``(start, end, kind)`` with ``kind`` ``None`` for a skip rule."""
        for spec, pattern in self._compiled:
            found = pattern.match(text, position)
            if found is not None and found.end() > position:
                return position, found.end(), None if spec.skip else spec.name
        raise self._error(text, position, text.count("\n", 0, position) + 1,
                          text.rfind("\n", 0, position) + 1)

    def _fail(self, text, position, line, line_start, counted) -> None:
        """Raise the error for a failed match at ``position`` — at the first
        character the folded skip rules do not consume — unless they consume the
        rest of the text."""
        if self._skip is not None:
            position = self._skip.match(text, position).end()
        newlines = text.count("\n", counted, position)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, position) + 1
        if position == len(text):  # only skipped text was left
            return
        raise self._error(text, position, line, line_start)

    @staticmethod
    def _error(text: str, position: int, line: int, line_start: int) -> LexerError:
        return LexerError(
            f"unexpected character {text[position]!r}", line, position - line_start + 1
        )
