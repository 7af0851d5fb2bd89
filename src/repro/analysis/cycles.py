"""Circularity test.

As in the paper, "we restrict our attention to grammars for which the resulting
dependency graph is acyclic".  The test below is the standard conservative one based on
induced dependencies (the same relation the ordered-evaluation analysis uses): if any
production graph augmented with the induced dependency relation of its nonterminal
occurrences has a cycle, the grammar is rejected.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.dependencies import (
    DependencyGraph,
    augmented_production_graph,
    close_productions,
)
from repro.grammar.grammar import AttributeGrammar, GrammarError


class CircularGrammarError(GrammarError):
    """Raised when a grammar's attribute dependencies can form a cycle."""

    def __init__(self, production_label: str, cycle: List[object]):
        path = " -> ".join(repr(v) for v in cycle)
        super().__init__(
            f"attribute dependencies can be circular in production {production_label!r}: {path}"
        )
        self.production_label = production_label
        self.cycle = cycle


def check_noncircular(
    grammar: AttributeGrammar,
    ids: Optional[Dict[str, DependencyGraph]] = None,
) -> Dict[str, DependencyGraph]:
    """Verify the grammar is (conservatively) non-circular.

    Returns the induced dependency relation so callers can reuse it (the ordered
    analysis needs the same information).  Raises :class:`CircularGrammarError` on
    failure.
    """
    ids, cyclic = close_productions(grammar, ids)
    if cyclic:
        production = cyclic[0]
        cycle = augmented_production_graph(production, ids).find_cycle()
        raise CircularGrammarError(production.label, cycle)
    return ids
