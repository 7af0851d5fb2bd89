"""LALR(1) parse-table construction.

The construction follows the classical route: LR(0) item sets, then LALR(1) lookaheads
by spontaneous generation and propagation (the dragon book's "determining lookaheads"
algorithm), then table construction with YACC-style precedence/associativity conflict
resolution.  Conflicts that cannot be resolved by precedence are recorded in
:attr:`LALRTable.conflicts` and resolved the way YACC does (prefer shift; prefer the
earlier production), so grammar authors can inspect them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.grammar.symbols import Nonterminal, Symbol, Terminal

EOF = "$end"
_DUMMY = "#"

# Internal production representation: (lhs name, rhs tuple of (is_terminal, name)).
_Sym = Tuple[bool, str]  # (is_terminal, name)
_Item = Tuple[int, int]  # (internal production index, dot position)


#: The ACCEPT entry of the ACTION table; a shift is the target state (> 0, since no
#: transition leads back to the initial state) and a reduce is ``~production index``
#: (< 0), so the parser dispatches on the sign of one int.
ACCEPT = 0


@dataclass(frozen=True)
class Action:
    """A readable view of one integer ACTION entry (conflict reports use it)."""

    kind: str                      # "shift" | "reduce" | "accept"
    target: int = -1               # shift: next state; reduce: grammar production index

    @classmethod
    def of(cls, code: int) -> "Action":
        if code > 0:
            return cls("shift", code)
        if code < 0:
            return cls("reduce", ~code)
        return cls("accept")

    def __repr__(self) -> str:
        if self.kind == "shift":
            return f"s{self.target}"
        if self.kind == "reduce":
            return f"r{self.target}"
        return "acc"


@dataclass
class LALRConflict:
    """A conflict that had to be resolved by default rules rather than precedence."""

    state: int
    token: str
    kind: str                      # "shift/reduce" | "reduce/reduce"
    chosen: Action
    rejected: Action

    def __str__(self) -> str:
        return (
            f"{self.kind} conflict in state {self.state} on {self.token!r}: "
            f"chose {self.chosen!r} over {self.rejected!r}"
        )


@dataclass
class LALRTable:
    """The generated parse table.

    ``action[state]`` maps a token kind to an integer action (see :data:`ACCEPT`);
    ``goto[state]`` maps a nonterminal name to the next state.
    """

    action: List[Dict[str, int]]
    goto: List[Dict[str, int]]
    state_count: int
    conflicts: List[LALRConflict] = field(default_factory=list)
    eof: str = EOF

    def describe(self) -> str:
        lines = [f"LALR(1) table: {self.state_count} states, {len(self.conflicts)} conflicts"]
        for conflict in self.conflicts:
            lines.append(f"  {conflict}")
        return "\n".join(lines)


class _Builder:
    def __init__(self, grammar: AttributeGrammar, start: Optional[str] = None):
        if start is not None:
            if start not in grammar.nonterminals:
                raise ValueError(f"start override {start!r} is not a grammar nonterminal")
            self.start_name = start
        else:
            if grammar.start is None:
                raise ValueError("grammar has no start symbol")
            self.start_name = grammar.start.name
        self.grammar = grammar
        # Internal production 0 is the augmented start production $accept -> start $end.
        self.productions: List[Tuple[str, Tuple[_Sym, ...]]] = [
            ("$accept", ((False, self.start_name),))
        ]
        for production in grammar.productions:
            rhs = tuple((symbol.is_terminal, symbol.name) for symbol in production.rhs)
            self.productions.append((production.lhs.name, rhs))
        self.by_lhs: Dict[str, List[int]] = {}
        for index, (lhs, _) in enumerate(self.productions):
            self.by_lhs.setdefault(lhs, []).append(index)
        self.terminal_names = set(grammar.terminals) | {EOF}
        self.nonterminal_names = set(grammar.nonterminals) | {"$accept"}
        self._first: Dict[str, Set[str]] = {}
        self._nullable: Set[str] = set()
        self._compute_first()
        self._precedence = self._compute_precedence()

    # ------------------------------------------------------------------- FIRST

    def _compute_first(self) -> None:
        for name in self.terminal_names:
            self._first[name] = {name}
        for name in self.nonterminal_names:
            self._first[name] = set()
        changed = True
        while changed:
            changed = False
            for lhs, rhs in self.productions:
                first = self._first[lhs]
                before = len(first)
                nullable_prefix = True
                for is_terminal, name in rhs:
                    first |= self._first[name] if not is_terminal else {name}
                    if is_terminal or name not in self._nullable:
                        nullable_prefix = False
                        break
                if nullable_prefix and lhs not in self._nullable:
                    self._nullable.add(lhs)
                    changed = True
                if len(first) != before:
                    changed = True

    def first_of_sequence(self, symbols: Sequence[_Sym], lookahead: str) -> Set[str]:
        """FIRST(symbols lookahead) where ``lookahead`` is a single terminal name."""
        result: Set[str] = set()
        for is_terminal, name in symbols:
            if is_terminal:
                result.add(name)
                return result
            result |= self._first[name]
            if name not in self._nullable:
                return result
        result.add(lookahead)
        return result

    # -------------------------------------------------------------- precedence

    def _compute_precedence(self) -> Dict[str, Tuple[int, str]]:
        table: Dict[str, Tuple[int, str]] = {}
        for level, (assoc, tokens) in enumerate(self.grammar.precedence, start=1):
            for token in tokens:
                table[token] = (level, assoc)
        return table

    def production_precedence(self, internal_index: int) -> Optional[Tuple[int, str]]:
        if internal_index == 0:
            return None
        production = self.grammar.productions[internal_index - 1]
        if production.precedence is not None:
            return self._precedence.get(production.precedence)
        for symbol in reversed(production.rhs):
            if symbol.is_terminal:
                return self._precedence.get(symbol.name)
        return None

    # ------------------------------------------------------------ LR(0) states

    def lr0_closure(self, kernel: FrozenSet[_Item]) -> FrozenSet[_Item]:
        closure = set(kernel)
        frontier = list(kernel)
        while frontier:
            prod_index, dot = frontier.pop()
            rhs = self.productions[prod_index][1]
            if dot >= len(rhs):
                continue
            is_terminal, name = rhs[dot]
            if is_terminal:
                continue
            for candidate in self.by_lhs.get(name, ()):
                item = (candidate, 0)
                if item not in closure:
                    closure.add(item)
                    frontier.append(item)
        return frozenset(closure)

    def lr0_goto(self, closure: FrozenSet[_Item], symbol: _Sym) -> FrozenSet[_Item]:
        kernel = set()
        for prod_index, dot in closure:
            rhs = self.productions[prod_index][1]
            if dot < len(rhs) and rhs[dot] == symbol:
                kernel.add((prod_index, dot + 1))
        return frozenset(kernel)

    def build_states(self) -> Tuple[List[FrozenSet[_Item]], Dict[Tuple[int, _Sym], int]]:
        initial_kernel = frozenset({(0, 0)})
        kernels: List[FrozenSet[_Item]] = [initial_kernel]
        index_of: Dict[FrozenSet[_Item], int] = {initial_kernel: 0}
        transitions: Dict[Tuple[int, _Sym], int] = {}
        frontier = [0]
        while frontier:
            state = frontier.pop()
            closure = self.lr0_closure(kernels[state])
            symbols: Set[_Sym] = set()
            for prod_index, dot in closure:
                rhs = self.productions[prod_index][1]
                if dot < len(rhs):
                    symbols.add(rhs[dot])
            for symbol in sorted(symbols):
                kernel = self.lr0_goto(closure, symbol)
                if not kernel:
                    continue
                if kernel not in index_of:
                    index_of[kernel] = len(kernels)
                    kernels.append(kernel)
                    frontier.append(index_of[kernel])
                transitions[(state, symbol)] = index_of[kernel]
        return kernels, transitions

    # --------------------------------------------------------- LALR lookaheads

    def lr1_closure(
        self, items: Set[Tuple[_Item, str]]
    ) -> Set[Tuple[_Item, str]]:
        closure = set(items)
        frontier = list(items)
        while frontier:
            (prod_index, dot), lookahead = frontier.pop()
            rhs = self.productions[prod_index][1]
            if dot >= len(rhs):
                continue
            is_terminal, name = rhs[dot]
            if is_terminal:
                continue
            rest = rhs[dot + 1 :]
            lookaheads = self.first_of_sequence(rest, lookahead)
            for candidate in self.by_lhs.get(name, ()):
                for la in lookaheads:
                    entry = ((candidate, 0), la)
                    if entry not in closure:
                        closure.add(entry)
                        frontier.append(entry)
        return closure

    def compute_lookaheads(
        self,
        kernels: List[FrozenSet[_Item]],
        transitions: Dict[Tuple[int, _Sym], int],
    ) -> List[Dict[_Item, Set[str]]]:
        lookaheads: List[Dict[_Item, Set[str]]] = [
            {item: set() for item in kernel} for kernel in kernels
        ]
        lookaheads[0][(0, 0)].add(EOF)
        propagation: Dict[Tuple[int, _Item], List[Tuple[int, _Item]]] = {}

        for state, kernel in enumerate(kernels):
            for item in kernel:
                closure = self.lr1_closure({(item, _DUMMY)})
                for (prod_index, dot), lookahead in closure:
                    rhs = self.productions[prod_index][1]
                    if dot >= len(rhs):
                        continue
                    symbol = rhs[dot]
                    target_state = transitions.get((state, symbol))
                    if target_state is None:
                        continue
                    target_item = (prod_index, dot + 1)
                    if lookahead == _DUMMY:
                        propagation.setdefault((state, item), []).append(
                            (target_state, target_item)
                        )
                    else:
                        lookaheads[target_state][target_item].add(lookahead)

        changed = True
        while changed:
            changed = False
            for (state, item), targets in propagation.items():
                source = lookaheads[state][item]
                if not source:
                    continue
                for target_state, target_item in targets:
                    target = lookaheads[target_state][target_item]
                    before = len(target)
                    target |= source
                    if len(target) != before:
                        changed = True
        return lookaheads

    # -------------------------------------------------------------------- table

    def build(self) -> LALRTable:
        kernels, transitions = self.build_states()
        lookaheads = self.compute_lookaheads(kernels, transitions)
        state_count = len(kernels)
        action: List[Dict[str, int]] = [dict() for _ in range(state_count)]
        goto: List[Dict[str, int]] = [dict() for _ in range(state_count)]
        conflicts: List[LALRConflict] = []

        for (state, (is_terminal, name)), target in transitions.items():
            if is_terminal:
                action[state][name] = target
            else:
                goto[state][name] = target

        for state, kernel in enumerate(kernels):
            seeded = {
                (item, la)
                for item in kernel
                for la in lookaheads[state][item]
            }
            closure = self.lr1_closure(seeded)
            for (prod_index, dot), lookahead in closure:
                rhs = self.productions[prod_index][1]
                if dot != len(rhs):
                    continue
                if prod_index == 0:
                    if lookahead == EOF:
                        action[state][EOF] = ACCEPT
                    continue
                reduce = ~(prod_index - 1)
                existing = action[state].get(lookahead)
                if existing is None:
                    action[state][lookahead] = reduce
                    continue
                if existing == reduce or existing == ACCEPT:
                    continue
                resolved, conflict = self._resolve_conflict(
                    state, lookahead, existing, reduce, prod_index
                )
                action[state][lookahead] = resolved
                if conflict is not None:
                    conflicts.append(conflict)

        return LALRTable(action, goto, state_count, conflicts)

    def _resolve_conflict(
        self,
        state: int,
        token: str,
        existing: int,
        reduce: int,
        internal_index: int,
    ) -> Tuple[int, Optional[LALRConflict]]:
        def conflict(kind: str, chosen: int, rejected: int) -> LALRConflict:
            return LALRConflict(state, token, kind, Action.of(chosen), Action.of(rejected))

        if existing > 0:  # shift
            token_precedence = self._precedence.get(token)
            production_precedence = self.production_precedence(internal_index)
            if token_precedence and production_precedence:
                if production_precedence[0] > token_precedence[0]:
                    return reduce, None
                if production_precedence[0] < token_precedence[0]:
                    return existing, None
                assoc = token_precedence[1]
                if assoc == "left":
                    return reduce, None
                if assoc == "right":
                    return existing, None
                # nonassoc: neither action is legal; keep the shift but flag it.
                return existing, conflict("shift/reduce", existing, reduce)
            # YACC default: prefer shift.
            return existing, conflict("shift/reduce", existing, reduce)
        # reduce/reduce: prefer the earlier production (YACC default); ``~`` reverses
        # the order of production indices.
        if existing >= reduce:
            return existing, conflict("reduce/reduce", existing, reduce)
        return reduce, conflict("reduce/reduce", reduce, existing)


def build_lalr_table(grammar: AttributeGrammar, start: Optional[str] = None) -> LALRTable:
    """Build the LALR(1) parse table for ``grammar``'s context-free backbone.

    ``start`` overrides the grammar's start symbol: the table then accepts exactly
    the sentences derivable from that nonterminal.  Incremental reparsing uses such
    *subtree tables* to re-parse only the damaged subtree of an edited document
    (production indices in the table are the grammar's own either way, so the
    resulting trees plug straight back into the full parse tree).
    """
    return _Builder(grammar, start=start).build()
