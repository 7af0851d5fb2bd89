"""Dependency graphs over attribute occurrences and attributes.

Two levels of dependency information are computed from a grammar:

* the *production-local* graph ``DP(p)``: for each production, an edge from occurrence
  ``a`` to occurrence ``b`` whenever a semantic rule of ``p`` computes ``b`` from ``a``
  (edges point from prerequisite to dependent, i.e. in evaluation order);
* the *induced* relation ``IDS(X)``: for each nonterminal ``X``, the transitive
  dependencies among the attributes of ``X`` that can arise in any parse tree.  This is
  the classical fixpoint over all productions, and is what the combined evaluator enters
  into its dynamic graph for statically evaluated subtree roots ("the transitive
  dependencies between the child's attributes as precomputed by the static evaluator
  generator").

IDS is computed on integers, once per process (Kastens, "Ordered attributed
grammars", 1980, computes it once per grammar, ahead of time).  Each production
numbers its attribute occurrences, the attributes of one nonterminal occurrence
consecutively, so a graph over them is a list of row masks: bit ``j`` of row ``i`` is
the edge ``i -> j``.  A worklist starts with every production.  Taking one, it ORs
the current IDS rows of each nonterminal occurrence into DP(p), closes the result by
Warshall's algorithm over the rows, and projects each occurrence's block back onto
its nonterminal's IDS rows; when IDS(X) grew, every production that mentions X is
queued again.  When the worklist runs dry IDS is the least fixpoint — the relation the
classical round-robin iteration reaches — and each production's last closure is its
closure under that IDS, which is where the circularity test reads "some occurrence
reaches itself" (:func:`close_productions`).  This is the approximation Kastens'
ordered evaluator uses: it can reject some non-circular grammars, but never accepts a
circular one.  The result is a :class:`DependencyGraph` per nonterminal over attribute
names, as the partitioning and the evaluators expect.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.grammar.productions import AttributeRef, Production
from repro.grammar.symbols import Nonterminal


class DependencyGraph:
    """A small directed-graph helper with hashable vertices.

    Edges point from prerequisite to dependent: an edge ``a -> b`` means ``a`` must be
    evaluated before ``b``.
    """

    def __init__(self):
        self._successors: Dict[object, Set[object]] = {}
        self._predecessors: Dict[object, Set[object]] = {}

    def add_vertex(self, vertex) -> None:
        self._successors.setdefault(vertex, set())
        self._predecessors.setdefault(vertex, set())

    def add_edge(self, source, target) -> bool:
        """Add an edge, returning ``True`` if it was not already present."""
        self.add_vertex(source)
        self.add_vertex(target)
        if target in self._successors[source]:
            return False
        self._successors[source].add(target)
        self._predecessors[target].add(source)
        return True

    def has_edge(self, source, target) -> bool:
        return target in self._successors.get(source, ())

    def vertices(self) -> Tuple:
        return tuple(self._successors)

    def successors(self, vertex) -> FrozenSet:
        return frozenset(self._successors.get(vertex, ()))

    def predecessors(self, vertex) -> FrozenSet:
        return frozenset(self._predecessors.get(vertex, ()))

    def edges(self) -> Tuple[Tuple[object, object], ...]:
        return tuple(
            (source, target)
            for source, targets in self._successors.items()
            for target in targets
        )

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._successors.values())

    def transitive_closure(self) -> "DependencyGraph":
        """Return a new graph containing an edge for every nonempty path."""
        closure = DependencyGraph()
        for vertex in self._successors:
            closure.add_vertex(vertex)
            # Breadth-first reachability from each vertex.
            seen: Set[object] = set()
            frontier = list(self._successors[vertex])
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                closure.add_edge(vertex, node)
                frontier.extend(self._successors.get(node, ()))
        return closure

    def topological_order(self) -> List[object]:
        """Kahn topological sort; raises ``ValueError`` if the graph has a cycle."""
        in_degree = {v: len(self._predecessors[v]) for v in self._successors}
        ready = sorted(
            (v for v, d in in_degree.items() if d == 0), key=repr
        )
        order: List[object] = []
        while ready:
            vertex = ready.pop()
            order.append(vertex)
            for successor in sorted(self._successors[vertex], key=repr):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self._successors):
            raise ValueError("dependency graph contains a cycle")
        return order

    def find_cycle(self) -> List[object]:
        """Return one cycle as a list of vertices, or an empty list if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self._successors}
        parent: Dict[object, object] = {}

        for start in self._successors:
            if color[start] != WHITE:
                continue
            stack = [(start, iter(sorted(self._successors[start], key=repr)))]
            color[start] = GRAY
            while stack:
                vertex, iterator = stack[-1]
                advanced = False
                for successor in iterator:
                    if color[successor] == WHITE:
                        color[successor] = GRAY
                        parent[successor] = vertex
                        stack.append(
                            (successor, iter(sorted(self._successors[successor], key=repr)))
                        )
                        advanced = True
                        break
                    if color[successor] == GRAY:
                        # Found a back edge; reconstruct the cycle.
                        cycle = [successor, vertex]
                        node = vertex
                        while node != successor and node in parent:
                            node = parent[node]
                            cycle.append(node)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[vertex] = BLACK
                    stack.pop()
        return []


def production_dependency_graph(production: Production) -> DependencyGraph:
    """The production-local dependency graph DP(p) over attribute occurrences."""
    graph = DependencyGraph()
    for ref in production.defined_occurrences():
        graph.add_vertex(ref)
    for ref in production.used_occurrences():
        graph.add_vertex(ref)
    for rule in production.rules:
        for argument in rule.arguments:
            graph.add_edge(argument, rule.target)
    return graph


def induced_dependencies(
    grammar: AttributeGrammar,
) -> Dict[str, DependencyGraph]:
    """Compute the induced dependency relation IDS(X) for every nonterminal X.

    The result maps nonterminal name to a graph whose vertices are attribute names of
    that nonterminal and whose edge ``a -> b`` means that in some parse tree the instance
    of ``b`` at a node labelled ``X`` can (transitively) depend on the instance of ``a``
    at the same node.  See the module docstring for the worklist that computes it.
    """
    return close_productions(grammar)[0]


def close_productions(
    grammar: AttributeGrammar,
    ids: Optional[Dict[str, DependencyGraph]] = None,
) -> Tuple[Dict[str, DependencyGraph], List[Production]]:
    """IDS, and the productions whose augmented graph has a cycle.

    With ``ids`` given, each production is closed once under it; otherwise IDS is the
    least fixpoint, computed by the worklist.  A production is cyclic when one of its
    occurrences reaches itself in the closure of DP(p) ∪ IDS instantiated at every
    nonterminal occurrence.
    """
    numbered = [_NumberedProduction(production) for production in grammar.productions]
    if ids is None:
        rows = {
            name: [0] * len(nonterminal.attribute_names)
            for name, nonterminal in grammar.nonterminals.items()
        }
        closures = _fixpoint(numbered, rows)
        ids = _ids_graphs(grammar, rows)
    else:
        rows = _ids_rows(grammar, ids)
        closures = [production.close(rows) for production in numbered]
    cyclic = [
        production.production
        for production, closure in zip(numbered, closures)
        if any(row >> vertex & 1 for vertex, row in enumerate(closure))
    ]
    return ids, cyclic


class _NumberedProduction:
    """One production's attribute occurrences as bit numbers, and DP(p) as row masks.

    The attributes of the occurrence at each nonterminal position get consecutive
    numbers in ``attribute_names`` order from an ``offset`` (``instances`` lists
    ``(nonterminal, offset, width)``), so IDS(X) row ``i`` instantiates there as
    ``row << offset`` and the closure projects back with ``>> offset``.  Occurrences
    of terminal attributes come last.  Bit ``j`` of ``local[i]`` is the edge i -> j.
    """

    __slots__ = ("production", "instances", "local")

    def __init__(self, production: Production):
        self.production = production
        number: Dict[Tuple[int, str], int] = {}
        instances: List[Tuple[str, int, int]] = []
        for position in (0, *production.nonterminal_positions()):
            symbol = production.symbol_at(position)
            names = symbol.attribute_names
            instances.append((symbol.name, len(number), len(names)))
            for name in names:
                number[(position, name)] = len(number)
        for rule in production.rules:
            for ref in (rule.target, *rule.arguments):
                number.setdefault((ref.position, ref.name), len(number))
        local = [0] * len(number)
        for rule in production.rules:
            target = 1 << number[(rule.target.position, rule.target.name)]
            for argument in rule.arguments:
                local[number[(argument.position, argument.name)]] |= target
        self.instances = instances
        self.local = local

    def close(self, ids_rows: Dict[str, List[int]]) -> List[int]:
        """The transitive closure of DP(p) ∪ IDS, as row masks (Warshall)."""
        rows = list(self.local)
        for name, offset, _ in self.instances:
            for index, row in enumerate(ids_rows[name], start=offset):
                if row:
                    rows[index] |= row << offset
        for pivot, pivot_row in enumerate(rows):
            if not pivot_row:
                continue
            bit = 1 << pivot
            for index, row in enumerate(rows):
                if row & bit:
                    rows[index] = row | pivot_row
        return rows


def _fixpoint(
    numbered: List[_NumberedProduction], ids_rows: Dict[str, List[int]]
) -> List[List[int]]:
    """Grow ``ids_rows`` to the least fixpoint; returns every production's last closure.

    A production is closed again only when IDS grew for a nonterminal it mentions, so
    each returned closure is the closure under the final IDS.
    """
    mentions: Dict[str, List[int]] = {}
    for index, production in enumerate(numbered):
        for name, _, _ in production.instances:
            users = mentions.setdefault(name, [])
            if not users or users[-1] != index:
                users.append(index)
    closures: List[List[int]] = [[] for _ in numbered]
    queued = [True] * len(numbered)
    worklist = deque(range(len(numbered)))
    while worklist:
        index = worklist.popleft()
        queued[index] = False
        closure = closures[index] = numbered[index].close(ids_rows)
        for name, offset, width in numbered[index].instances:
            target = ids_rows[name]
            mask = (1 << width) - 1
            grew = False
            for attribute in range(width):
                row = (closure[offset + attribute] >> offset) & mask & ~(1 << attribute)
                if row & ~target[attribute]:
                    target[attribute] |= row
                    grew = True
            if grew:
                for user in mentions[name]:
                    if not queued[user]:
                        queued[user] = True
                        worklist.append(user)
    return closures


def _ids_graphs(
    grammar: AttributeGrammar, ids_rows: Dict[str, List[int]]
) -> Dict[str, DependencyGraph]:
    ids: Dict[str, DependencyGraph] = {}
    for name, nonterminal in grammar.nonterminals.items():
        names = nonterminal.attribute_names
        graph = DependencyGraph()
        for attribute in names:
            graph.add_vertex(attribute)
        for source, row in zip(names, ids_rows[name]):
            for bit, target in enumerate(names):
                if row >> bit & 1:
                    graph.add_edge(source, target)
        ids[name] = graph
    return ids


def _ids_rows(
    grammar: AttributeGrammar, ids: Dict[str, DependencyGraph]
) -> Dict[str, List[int]]:
    rows: Dict[str, List[int]] = {}
    for name, nonterminal in grammar.nonterminals.items():
        names = nonterminal.attribute_names
        bit = {attribute: 1 << index for index, attribute in enumerate(names)}
        rows[name] = [
            sum(bit[target] for target in ids[name].successors(attribute))
            for attribute in names
        ]
    return rows


def augmented_production_graph(
    production: Production, ids: Dict[str, DependencyGraph]
) -> DependencyGraph:
    """DP(p) plus the IDS edges instantiated at every nonterminal occurrence.

    The circularity test builds it only for a production it found cyclic, to name
    the cycle.
    """
    graph = production_dependency_graph(production)
    for position in (0, *production.nonterminal_positions()):
        symbol = production.symbol_at(position)
        assert isinstance(symbol, Nonterminal)
        for a, b in ids[symbol.name].edges():
            graph.add_edge(AttributeRef(position, a), AttributeRef(position, b))
    return graph
