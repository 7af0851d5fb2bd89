"""The set-based induced-dependency fixpoint, kept as the oracle for the bitset one.

This is the algorithm ``repro.analysis.dependencies`` used before it numbered
attribute occurrences: every pass closes every production graph over hashable
``AttributeRef`` vertices, until a whole pass adds no IDS edge.  It is slow and
obviously right; ``tests/test_analysis.py`` asserts that the product computes the
same IDS, partitions and visit sequences, and rejects the same productions.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.cycles import CircularGrammarError
from repro.analysis.dependencies import DependencyGraph, production_dependency_graph
from repro.grammar.grammar import AttributeGrammar
from repro.grammar.productions import AttributeRef, Production


def reference_induced_dependencies(grammar: AttributeGrammar) -> Dict[str, DependencyGraph]:
    ids: Dict[str, DependencyGraph] = {}
    for name, nonterminal in grammar.nonterminals.items():
        graph = DependencyGraph()
        for attribute in nonterminal.attribute_names:
            graph.add_vertex(attribute)
        ids[name] = graph

    changed = True
    while changed:
        changed = False
        for production in grammar.productions:
            closure = reference_augmented_graph(production, ids).transitive_closure()
            for position in (0, *production.nonterminal_positions()):
                symbol = production.symbol_at(position)
                for a in symbol.attribute_names:
                    for b in symbol.attribute_names:
                        if a != b and closure.has_edge(
                            AttributeRef(position, a), AttributeRef(position, b)
                        ):
                            changed |= ids[symbol.name].add_edge(a, b)
    return ids


def reference_augmented_graph(
    production: Production, ids: Dict[str, DependencyGraph]
) -> DependencyGraph:
    """DP(p) plus the IDS edges instantiated at every nonterminal occurrence."""
    graph = production_dependency_graph(production)
    for position in (0, *production.nonterminal_positions()):
        symbol = production.symbol_at(position)
        for a, b in ids[symbol.name].edges():
            graph.add_edge(AttributeRef(position, a), AttributeRef(position, b))
    return graph


def reference_check_noncircular(grammar: AttributeGrammar) -> Dict[str, DependencyGraph]:
    ids = reference_induced_dependencies(grammar)
    for production in grammar.productions:
        cycle = reference_augmented_graph(production, ids).find_cycle()
        if cycle:
            raise CircularGrammarError(production.label, cycle)
    return ids
