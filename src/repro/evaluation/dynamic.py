"""The dynamic evaluator.

A dynamic evaluator first builds the dependency graph between *all* attribute instances
of the (sub)tree, topologically sorts it, and evaluates attributes as they become ready
(Figure 1 of the paper).  It is the most flexible evaluator — it handles every
non-circular grammar and exposes maximal concurrency — but pays for that with the time
and storage needed to build and maintain the instance-level dependency graph, which the
simulator's cost model charges for explicitly.

:class:`DynamicScheduler` is the incremental form used by the distributed runtime:
attribute instances owned by other evaluators are marked *external* and supplied as
messages arrive.  :class:`DynamicEvaluator` is the plain sequential wrapper.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.plan_compiler import CompiledRules, compiled_rules
from repro.analysis.tables import EvaluationTables, RuleTable, evaluation_tables
from repro.evaluation.base import (
    ComputedAttribute,
    EvaluationError,
    EvaluationStatistics,
    Scheduler,
    TaskResult,
    root_inherited_or_default,
)
from repro.grammar.attributes import AttributeKind
from repro.grammar.grammar import AttributeGrammar
from repro.grammar.productions import AttributeRef, SemanticRule
from repro.grammar.symbols import Nonterminal, Terminal
from repro.tree.node import ParseTreeNode

# An attribute instance is identified by (node, attribute name); we key dictionaries by
# (node_id, name) and keep a separate node table to avoid relying on node hashing.
_InstanceKey = Tuple[int, str]


class _InstanceInfo:
    """Book-keeping for one attribute instance in the dynamic dependency graph."""

    __slots__ = ("node", "name", "rule", "rule_node", "table", "compute", "pending",
                 "dependents", "external", "available", "priority")

    def __init__(self, node: ParseTreeNode, name: str, priority: bool):
        self.node = node
        self.name = name
        self.rule: Optional[SemanticRule] = None
        self.rule_node: Optional[ParseTreeNode] = None  # node owning the defining production
        self.table: Optional[RuleTable] = None          # precompiled fast path
        self.compute = None                             # plan-compiled fastest path
        self.pending = 0                   # unsatisfied prerequisite count
        self.dependents: List[_InstanceKey] = []
        self.external = False              # value arrives from outside this scheduler
        self.available = False
        self.priority = priority


class DynamicScheduler(Scheduler):
    """Instance-level dependency-graph scheduler over one (sub)tree.

    :param grammar: the attribute grammar.
    :param root: root of the locally owned (sub)tree.  Hole nodes (children standing in
        for remotely evaluated subtrees, created by :func:`repro.tree.linearize.unpack`)
        are recognised by having neither a production nor a token value while carrying a
        nonterminal symbol: their synthesized attributes are treated as external inputs
        and their inherited attributes as ordinary locally computed values (the
        distributed layer exports them).
    :param root_inherited: values for the root's inherited attributes; pass ``None`` to
        mark them external (they will be supplied later via :meth:`supply`).
    """

    def __init__(
        self,
        grammar: AttributeGrammar,
        root: ParseTreeNode,
        root_inherited: Optional[Dict[str, Any]] = None,
        hole_nodes: Optional[Iterable[ParseTreeNode]] = None,
        use_priority: bool = True,
        use_tables: bool = True,
        use_compiled: bool = True,
    ):
        self.grammar = grammar
        self.root = root
        self.use_priority = use_priority
        # The precompiled per-grammar tables are the default build path; the seed
        # dict/AttributeRef path is kept as the reference implementation
        # (``use_tables=False``) that the parity tests compare against.
        self._tables: Optional[EvaluationTables] = (
            evaluation_tables(grammar) if use_tables else None
        )
        # Plan-compiled per-rule compute functions — argument fetches inlined into
        # generated Python (:mod:`repro.analysis.plan_compiler`); requires the tables.
        self._compiled: Optional[CompiledRules] = (
            compiled_rules(grammar) if use_tables and use_compiled else None
        )
        self._instances: Dict[_InstanceKey, _InstanceInfo] = {}
        self._ready_priority: deque = deque()
        self._ready_normal: deque = deque()
        self._stats = EvaluationStatistics()
        self._remaining = 0
        self._hole_ids: Set[int] = {node.node_id for node in (hole_nodes or ())}

        self._build_graph(root_inherited)

    # -------------------------------------------------------------- graph build

    def _is_hole(self, node: ParseTreeNode) -> bool:
        if node.node_id in self._hole_ids:
            return True
        return (
            node.symbol.is_nonterminal
            and node.production is None
            and not node.children
        )

    def _build_graph(self, root_inherited: Optional[Dict[str, Any]]) -> None:
        if self._tables is not None:
            self._build_passes_tables(root_inherited)
        else:
            self._build_passes_reference(root_inherited)

        # Pass 3: seed ready queues and preset values.
        for key, info in self._instances.items():
            if info.external:
                continue
            if info.pending == 0:
                self._enqueue(key)
        if root_inherited:
            for name, value in root_inherited.items():
                self.supply(self.root, name, value)

    def _build_passes_tables(self, root_inherited: Optional[Dict[str, Any]]) -> None:
        """Graph build against the precompiled tables: the per-node work is index
        walks over flat tuples — no ``AttributeRef`` construction, no linear rule
        scans, no declaration-object probing."""
        tables = self._tables
        nonterminal_tables = tables.nonterminals
        production_tables = tables.productions
        compiled = self._compiled
        instances = self._instances
        root = self.root
        edges = 0

        # Inherited attributes are defined by the parent's production, so each
        # nonterminal is kept with the parent and position the walk reached it from.
        nodes = [
            entry for entry in root.walk_with_parent() if not entry[0].symbol.is_terminal
        ]

        # Pass 1: create instance records for every attribute of every nonterminal node.
        for node, _parent, _index in nodes:
            node_id = node.node_id
            for name, _synthesized, priority in nonterminal_tables[node.symbol.name].attrs:
                instances[(node_id, name)] = _InstanceInfo(node, name, priority)
                self._remaining += 1
        self._stats.dependency_vertices = len(instances)

        # Pass 2: attach defining rules / mark externals, and record dependency edges.
        for node, parent, index in nodes:
            node_id = node.node_id
            is_hole = self._is_hole(node)
            for name, synthesized, _priority in nonterminal_tables[node.symbol.name].attrs:
                key = (node_id, name)
                info = instances[key]
                if synthesized:
                    if is_hole:
                        info.external = True
                        continue
                    defining_node = node
                    target = (0, name)
                else:  # inherited
                    if node is root:
                        info.external = True
                        continue
                    defining_node = parent
                    target = (index, name)
                assert defining_node.production is not None
                table = production_tables[defining_node.production.index].by_target.get(target)
                if table is None:
                    raise EvaluationError(
                        f"no semantic rule defines {AttributeRef(*target)!r} in production "
                        f"{defining_node.production.label!r}"
                    )
                info.rule = table.rule
                info.rule_node = defining_node
                info.table = table
                if compiled is not None:
                    info.compute = compiled[defining_node.production.index][table.index]
                pending = 0
                defining_children = defining_node.children
                for position, argument_name in table.nonterminal_args:
                    source_node = (
                        defining_node if position == 0 else defining_children[position - 1]
                    )
                    instances[(source_node.node_id, argument_name)].dependents.append(key)
                    pending += 1
                info.pending = pending
                edges += pending
        self._stats.dependency_edges += edges

    def _build_passes_reference(self, root_inherited: Optional[Dict[str, Any]]) -> None:
        """The seed dict/``AttributeRef`` build path, kept verbatim as the reference
        implementation the precompiled-tables parity tests run against."""
        # Pass 1: create instance records for every attribute of every nonterminal node.
        for node in self.root.walk():
            if node.is_terminal:
                continue
            symbol = node.symbol
            assert isinstance(symbol, Nonterminal)
            for decl in symbol.attributes.values():
                key = (node.node_id, decl.name)
                self._instances[key] = _InstanceInfo(node, decl.name, decl.priority)
                self._remaining += 1
        self._stats.dependency_vertices = len(self._instances)

        # Pass 2: attach defining rules / mark externals, and record dependency edges.
        for node, parent, index in self.root.walk_with_parent():
            if node.is_terminal:
                continue
            symbol = node.symbol
            assert isinstance(symbol, Nonterminal)
            is_hole = self._is_hole(node)
            for decl in symbol.attributes.values():
                key = (node.node_id, decl.name)
                info = self._instances[key]
                if decl.kind is AttributeKind.SYNTHESIZED:
                    if is_hole:
                        info.external = True
                        continue
                    defining_node = node
                    target_ref = AttributeRef(0, decl.name)
                else:  # inherited
                    if node is self.root:
                        if root_inherited is not None and decl.name in root_inherited:
                            # Value is already known; treat as preset below.
                            info.external = True
                            continue
                        info.external = True
                        continue
                    defining_node = parent
                    target_ref = AttributeRef(index, decl.name)
                assert defining_node.production is not None
                rule = defining_node.production.rule_defining(target_ref)
                if rule is None:
                    raise EvaluationError(
                        f"no semantic rule defines {target_ref!r} in production "
                        f"{defining_node.production.label!r}"
                    )
                info.rule = rule
                info.rule_node = defining_node
                for argument in rule.arguments:
                    source_node = defining_node.resolve(argument)
                    if source_node.is_terminal:
                        continue  # scanner attributes are always available
                    source_key = (source_node.node_id, argument.name)
                    source_info = self._instances[source_key]
                    source_info.dependents.append(key)
                    info.pending += 1
                    self._stats.dependency_edges += 1

    # ----------------------------------------------------------------- plumbing

    def _enqueue(self, key: _InstanceKey) -> None:
        info = self._instances[key]
        if info.priority and self.use_priority:
            self._ready_priority.append(key)
        else:
            self._ready_normal.append(key)

    def has_ready_task(self) -> bool:
        return bool(self._ready_priority or self._ready_normal)

    def next_task(self) -> Optional[_InstanceKey]:
        if self._ready_priority:
            return self._ready_priority.popleft()
        if self._ready_normal:
            return self._ready_normal.popleft()
        return None

    def run_task(self, task: _InstanceKey) -> TaskResult:
        info = self._instances[task]
        if info.available:
            return TaskResult()
        if info.rule is None or info.rule_node is None:
            raise EvaluationError(
                f"attribute instance {info.node.symbol.name}.{info.name} has no defining rule"
            )
        if info.compute is not None:
            value = info.compute(info.rule_node)
        elif info.table is not None:
            value = info.table.function(*info.table.fetch_arguments(info.rule_node))
        else:
            arguments = []
            for ref in info.rule.arguments:
                source = info.rule_node.resolve(ref)
                arguments.append(source.get_attribute(ref.name))
            value = info.rule.evaluate(arguments)
        info.node.set_attribute(info.name, value)
        result = TaskResult(
            computed=[ComputedAttribute(info.node, info.name, value)],
            rules_evaluated=1,
            rule_extra_cost=info.rule.cost,
            dependency_work=1 + len(info.dependents),
        )
        self._stats.rules_evaluated += 1
        self._stats.rule_extra_cost += info.rule.cost
        self._stats.dynamic_instances += 1
        self._stats.tasks_executed += 1
        self._mark_available(task)
        return result

    def supply(self, node: ParseTreeNode, name: str, value: Any) -> List[_InstanceKey]:
        """Provide an externally computed attribute value (remote or root-inherited)."""
        key = (node.node_id, name)
        info = self._instances.get(key)
        if info is None:
            raise EvaluationError(
                f"attribute {name!r} of node {node.node_id} is not tracked by this scheduler"
            )
        if info.available:
            return []
        node.set_attribute(name, value)
        before_priority = len(self._ready_priority)
        before_normal = len(self._ready_normal)
        self._mark_available(key)
        newly_ready = list(self._ready_priority)[before_priority:] + list(
            self._ready_normal
        )[before_normal:]
        return newly_ready

    def _mark_available(self, key: _InstanceKey) -> None:
        info = self._instances[key]
        info.available = True
        self._remaining -= 1
        for dependent_key in info.dependents:
            dependent = self._instances[dependent_key]
            dependent.pending -= 1
            if dependent.pending == 0 and not dependent.external and not dependent.available:
                self._enqueue(dependent_key)

    def is_complete(self) -> bool:
        return self._remaining == 0

    def waiting_on(self) -> Sequence[Tuple[ParseTreeNode, str]]:
        return [
            (info.node, info.name)
            for info in self._instances.values()
            if info.external and not info.available
        ]

    def unevaluated(self) -> Sequence[Tuple[ParseTreeNode, str]]:
        """All instances (external or not) still lacking a value; useful in tests."""
        return [
            (info.node, info.name)
            for info in self._instances.values()
            if not info.available
        ]

    def statistics(self) -> EvaluationStatistics:
        return self._stats

    # Values of specific instances, used by the distributed layer to export attributes.
    def value_of(self, node: ParseTreeNode, name: str) -> Any:
        return node.get_attribute(name)


class DynamicEvaluator:
    """Sequential dynamic evaluator (build full dependency graph, then evaluate)."""

    def __init__(self, grammar: AttributeGrammar):
        self.grammar = grammar

    def evaluate(
        self,
        root: ParseTreeNode,
        root_inherited: Optional[Dict[str, Any]] = None,
    ) -> EvaluationStatistics:
        supplied = root_inherited_or_default(root, root_inherited)
        scheduler = DynamicScheduler(self.grammar, root, root_inherited=supplied)
        statistics = scheduler.run_to_completion()
        return statistics
