"""The combined static/dynamic evaluator — the paper's primary contribution.

Only the attributes of tree nodes on a path from the local root to a remotely evaluated
subtree (the *spine*) are scheduled dynamically; every subtree hanging off the spine is
evaluated by the static evaluator's visit procedures.  For a statically evaluated child
of a spine node, the transitive dependencies precomputed by the ordered-evaluation
analysis (inherited attributes required before each visit) are entered into the dynamic
dependency graph, and "when all predecessors for a statically evaluated attribute become
available the appropriate static visit procedure is invoked" (paper, §2.4).

With no remote subtrees the spine degenerates to the root alone and the combined
evaluator is "essentially identical to a purely static sequential evaluator" (§4).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.plan_compiler import CompiledRules, compiled_rules
from repro.analysis.tables import EvaluationTables, RuleTable, evaluation_tables
from repro.analysis.visit_sequences import OrderedEvaluationPlan, build_evaluation_plan
from repro.evaluation.base import (
    ComputedAttribute,
    EvaluationError,
    EvaluationStatistics,
    Scheduler,
    TaskResult,
    root_inherited_or_default,
)
from repro.evaluation.static import StaticEvaluator
from repro.grammar.attributes import AttributeKind
from repro.grammar.grammar import AttributeGrammar
from repro.grammar.productions import AttributeRef, SemanticRule
from repro.grammar.symbols import Nonterminal
from repro.tree.node import ParseTreeNode

_InstanceKey = Tuple[int, str]
_TaskId = int


class _Instance:
    __slots__ = ("node", "name", "available", "external", "dependents", "priority")

    def __init__(self, node: ParseTreeNode, name: str, priority: bool):
        self.node = node
        self.name = name
        self.available = False
        self.external = False
        self.dependents: List[_TaskId] = []
        self.priority = priority


class _Task:
    __slots__ = ("kind", "node", "rule", "rule_node", "table", "compute",
                 "visit_number", "pending", "produces", "priority", "executed")

    def __init__(self, kind: str, node: ParseTreeNode):
        self.kind = kind                       # "eval" or "visit"
        self.node = node
        self.rule: Optional[SemanticRule] = None
        self.rule_node: Optional[ParseTreeNode] = None
        self.table: Optional[RuleTable] = None  # precompiled fast path
        self.compute = None                     # plan-compiled fastest path
        self.visit_number = 0
        self.pending = 0
        self.produces: List[_InstanceKey] = []
        self.priority = False
        self.executed = False


class CombinedScheduler(Scheduler):
    """Task scheduler mixing dynamic (spine) and static (off-spine) evaluation.

    :param hole_nodes: placeholder nodes standing in for remotely evaluated subtrees.
        Their synthesized attributes are external inputs; their inherited attributes are
        computed here and exported by the distributed layer.
    :param root_inherited: values of the local root's inherited attributes, or ``None``
        to mark them external.
    """

    def __init__(
        self,
        grammar: AttributeGrammar,
        root: ParseTreeNode,
        root_inherited: Optional[Dict[str, Any]] = None,
        hole_nodes: Optional[Iterable[ParseTreeNode]] = None,
        plan: Optional[OrderedEvaluationPlan] = None,
        use_priority: bool = True,
        use_tables: bool = True,
        use_compiled: bool = True,
    ):
        self.grammar = grammar
        self.root = root
        self.use_priority = use_priority
        self.plan = plan or build_evaluation_plan(grammar)
        # Precompiled per-grammar tables are the default; ``use_tables=False`` keeps
        # the seed dict/AttributeRef path alive as the parity-test reference.
        self._tables: Optional[EvaluationTables] = (
            evaluation_tables(grammar) if use_tables else None
        )
        # Plan-compiled per-rule functions for spine evals; the static subtrees get
        # their own compiled visit segments inside the StaticEvaluator below.
        self._compiled: Optional[CompiledRules] = (
            compiled_rules(grammar) if use_tables and use_compiled else None
        )
        self._static = StaticEvaluator(
            grammar, self.plan, use_tables=use_tables, use_compiled=use_compiled
        )
        self._holes: List[ParseTreeNode] = list(hole_nodes or [])
        self._hole_ids: Set[int] = {node.node_id for node in self._holes}

        self._instances: Dict[_InstanceKey, _Instance] = {}
        self._tasks: Dict[_TaskId, _Task] = {}
        self._ready_priority: deque = deque()
        self._ready_normal: deque = deque()
        self._stats = EvaluationStatistics()
        self._static_stats = EvaluationStatistics()
        self._spine_ids: Set[int] = set()
        self._static_root_ids: Set[int] = set()

        self._build(self._compute_spine(), root_inherited)

    # ----------------------------------------------------------------- geometry

    def _compute_spine(self) -> List[ParseTreeNode]:
        """The spine is every node on a path from the root to a hole (inclusive of the
        root, exclusive of the holes themselves); returns it in pre-order.

        Nodes have no parent pointer, so the paths come from one descent that carries
        its own: whenever it meets a hole, the part of the current path not yet on the
        spine joins it.  A node can only join after everything the descent entered
        before it (a node below it would have taken it along), so the list comes out
        in pre-order.  The descent stops as soon as every hole has been found.
        """
        hole_ids = self._hole_ids
        remaining = len(hole_ids)
        path = [self.root]
        spine = [self.root]
        marked = 1  # leading nodes of ``path`` already on the spine
        pending = [iter(self.root.children)]
        while path and remaining:
            for child in pending[-1]:
                if child.node_id in hole_ids:
                    remaining -= 1
                    spine.extend(path[marked:])
                    marked = len(path)
                elif child.children:
                    path.append(child)
                    pending.append(iter(child.children))
                    break
            else:
                path.pop()
                pending.pop()
                marked = min(marked, len(path))
        self._spine_ids = {node.node_id for node in spine}
        return spine

    def is_spine(self, node: ParseTreeNode) -> bool:
        return node.node_id in self._spine_ids

    def is_hole(self, node: ParseTreeNode) -> bool:
        return node.node_id in self._hole_ids

    @property
    def spine_size(self) -> int:
        return len(self._spine_ids)

    @property
    def static_subtree_count(self) -> int:
        return len(self._static_root_ids)

    # -------------------------------------------------------------------- build

    def _declare_instance(self, node: ParseTreeNode, name: str, priority: bool) -> _Instance:
        key = (node.node_id, name)
        instance = self._instances.get(key)
        if instance is None:
            instance = _Instance(node, name, priority)
            self._instances[key] = instance
        return instance

    def _add_task(self, task: _Task) -> _TaskId:
        task_id = len(self._tasks)
        self._tasks[task_id] = task
        return task_id

    def _depend(self, task_id: _TaskId, node: ParseTreeNode, name: str) -> None:
        """Make ``task_id`` wait for the instance (node, name)."""
        key = (node.node_id, name)
        instance = self._instances[key]
        instance.dependents.append(task_id)
        self._tasks[task_id].pending += 1
        self._stats.dependency_edges += 1

    def _build(
        self, spine_nodes: List[ParseTreeNode], root_inherited: Optional[Dict[str, Any]]
    ) -> None:
        # 1. Declare the dynamically tracked instances: all attributes of spine nodes,
        #    holes, and of the non-spine nonterminal children of spine nodes.
        for node in spine_nodes:
            self._declare_node_instances(node)
            for child in node.children:
                if child.is_terminal:
                    continue
                if child.node_id in self._spine_ids:
                    continue
                self._declare_node_instances(child)
                if not self.is_hole(child):
                    self._static_root_ids.add(child.node_id)
        self._stats.dependency_vertices = len(self._instances)

        # 2. External instances: the local root's inherited attributes and the holes'
        #    synthesized attributes.
        root_symbol = self.root.symbol
        if isinstance(root_symbol, Nonterminal):
            for decl in root_symbol.inherited:
                self._instances[(self.root.node_id, decl.name)].external = True
        for hole in self._holes:
            symbol = hole.symbol
            assert isinstance(symbol, Nonterminal)
            for decl in symbol.synthesized:
                self._instances[(hole.node_id, decl.name)].external = True

        # 3. Eval tasks: every semantic rule instance of every spine production whose
        #    target is a tracked instance.
        for node in spine_nodes:
            if node.production is None:
                raise EvaluationError(
                    f"spine node {node.node_id} ({node.symbol.name}) has no production"
                )
            if self._tables is not None:
                children = node.children
                for table in self._tables.productions[node.production.index].rules:
                    position = table.target_position
                    target_node = node if position == 0 else children[position - 1]
                    key = (target_node.node_id, table.target_name)
                    instance = self._instances.get(key)
                    if instance is None or instance.external:
                        continue
                    task = _Task("eval", target_node)
                    task.rule = table.rule
                    task.rule_node = node
                    task.table = table
                    if self._compiled is not None:
                        task.compute = self._compiled[node.production.index][table.index]
                    task.produces = [key]
                    task.priority = instance.priority
                    task_id = self._add_task(task)
                    for arg_position, arg_name in table.nonterminal_args:
                        source = node if arg_position == 0 else children[arg_position - 1]
                        self._depend(task_id, source, arg_name)
                continue
            for rule in node.production.rules:
                target_node = node.resolve(rule.target)
                key = (target_node.node_id, rule.target.name)
                if key not in self._instances:
                    continue
                if self._instances[key].external:
                    continue
                task = _Task("eval", target_node)
                task.rule = rule
                task.rule_node = node
                task.produces = [key]
                task.priority = self._instances[key].priority
                task_id = self._add_task(task)
                for argument in rule.arguments:
                    source = node.resolve(argument)
                    if source.is_terminal:
                        continue
                    self._depend(task_id, source, argument.name)

        # 4. Visit tasks for static subtree roots, with the precomputed transitive
        #    dependencies (inherited attributes required up to each visit).
        for node in spine_nodes:
            for child in node.children:
                if child.node_id not in self._static_root_ids:
                    continue
                symbol = child.symbol
                assert isinstance(symbol, Nonterminal)
                partition = self.plan.partition_of(symbol.name)
                priority_of = (
                    self._tables.nonterminals[symbol.name].priority_of
                    if self._tables is not None
                    else {name: decl.priority for name, decl in symbol.attributes.items()}
                )
                previous_task: Optional[_TaskId] = None
                for visit in partition.visits:
                    task = _Task("visit", child)
                    task.visit_number = visit.number
                    # Sorted: a frozenset of names iterates in hash order, which
                    # differs between interpreter runs and between a plan and its
                    # unpickled copy in a pooled worker.
                    task.produces = [
                        (child.node_id, name) for name in sorted(visit.synthesized)
                    ]
                    task.priority = any(
                        priority_of[name] for name in visit.synthesized
                    )
                    task_id = self._add_task(task)
                    for name in partition.inherited_up_to(visit.number):
                        self._depend(task_id, child, name)
                    if previous_task is not None:
                        # Chain visits through a pseudo-instance: reuse pending counter.
                        self._tasks[task_id].pending += 1
                        self._tasks[previous_task].produces.append(
                            ("__visit_chain__", task_id)
                        )
                    previous_task = task_id

        # 5. Seed ready queues.
        for task_id, task in self._tasks.items():
            if task.pending == 0:
                self._enqueue(task_id)

        # 6. Preset root inherited values if given.
        if root_inherited:
            for name, value in root_inherited.items():
                self.supply(self.root, name, value)

    def _declare_node_instances(self, node: ParseTreeNode) -> None:
        symbol = node.symbol
        if not isinstance(symbol, Nonterminal):
            return
        if self._tables is not None:
            for name, _synthesized, priority in self._tables.nonterminals[symbol.name].attrs:
                self._declare_instance(node, name, priority)
            return
        for decl in symbol.attributes.values():
            self._declare_instance(node, decl.name, decl.priority)

    # ---------------------------------------------------------------- scheduling

    def _enqueue(self, task_id: _TaskId) -> None:
        if self._tasks[task_id].priority and self.use_priority:
            self._ready_priority.append(task_id)
        else:
            self._ready_normal.append(task_id)

    def has_ready_task(self) -> bool:
        return bool(self._ready_priority or self._ready_normal)

    def next_task(self) -> Optional[_TaskId]:
        if self._ready_priority:
            return self._ready_priority.popleft()
        if self._ready_normal:
            return self._ready_normal.popleft()
        return None

    def run_task(self, task_id: _TaskId) -> TaskResult:
        task = self._tasks[task_id]
        if task.executed:
            return TaskResult()
        task.executed = True
        self._stats.tasks_executed += 1
        if task.kind == "eval":
            result = self._run_eval(task)
        else:
            result = self._run_visit(task)
        self._complete_task(task, result)
        return result

    def _run_eval(self, task: _Task) -> TaskResult:
        assert task.rule is not None and task.rule_node is not None
        if task.compute is not None:
            value = task.compute(task.rule_node)
        elif task.table is not None:
            value = task.table.function(*task.table.fetch_arguments(task.rule_node))
        else:
            arguments = []
            for ref in task.rule.arguments:
                source = task.rule_node.resolve(ref)
                arguments.append(source.get_attribute(ref.name))
            value = task.rule.evaluate(arguments)
        target = task.rule_node.resolve(task.rule.target)
        target.set_attribute(task.rule.target.name, value)
        self._stats.rules_evaluated += 1
        self._stats.rule_extra_cost += task.rule.cost
        self._stats.dynamic_instances += 1
        return TaskResult(
            computed=[ComputedAttribute(target, task.rule.target.name, value)],
            rules_evaluated=1,
            rule_extra_cost=task.rule.cost,
            dependency_work=1,
        )

    def _run_visit(self, task: _Task) -> TaskResult:
        before_rules = self._static_stats.rules_evaluated
        before_cost = self._static_stats.rule_extra_cost
        self._static.visit(task.node, task.visit_number, self._static_stats)
        rules = self._static_stats.rules_evaluated - before_rules
        extra = self._static_stats.rule_extra_cost - before_cost
        self._stats.rules_evaluated += rules
        self._stats.rule_extra_cost += extra
        self._stats.visits_performed += 1
        symbol = task.node.symbol
        assert isinstance(symbol, Nonterminal)
        partition = self.plan.partition_of(symbol.name)
        computed = []
        for name in sorted(partition.synthesized_of(task.visit_number)):
            computed.append(
                ComputedAttribute(task.node, name, task.node.get_attribute(name))
            )
        return TaskResult(
            computed=computed,
            rules_evaluated=rules,
            rule_extra_cost=extra,
            dependency_work=0,
        )

    def _complete_task(self, task: _Task, result: TaskResult) -> None:
        for produced in task.produces:
            if produced[0] == "__visit_chain__":
                follower = self._tasks[produced[1]]
                follower.pending -= 1
                if follower.pending == 0 and not follower.executed:
                    self._enqueue(produced[1])
                continue
            self._mark_available(produced)

    def supply(self, node: ParseTreeNode, name: str, value: Any) -> List[_TaskId]:
        key = (node.node_id, name)
        instance = self._instances.get(key)
        if instance is None:
            raise EvaluationError(
                f"attribute {name!r} of node {node.node_id} is not tracked by this scheduler"
            )
        if instance.available:
            return []
        node.set_attribute(name, value)
        before_priority = len(self._ready_priority)
        before_normal = len(self._ready_normal)
        self._mark_available(key)
        return list(self._ready_priority)[before_priority:] + list(self._ready_normal)[
            before_normal:
        ]

    def _mark_available(self, key: _InstanceKey) -> None:
        instance = self._instances[key]
        if instance.available:
            return
        instance.available = True
        for task_id in instance.dependents:
            task = self._tasks[task_id]
            task.pending -= 1
            if task.pending == 0 and not task.executed:
                self._enqueue(task_id)

    # ---------------------------------------------------------------- inspection

    def is_complete(self) -> bool:
        if any(not task.executed for task in self._tasks.values()):
            return False
        return all(
            instance.available
            for instance in self._instances.values()
            if not instance.external
        )

    def waiting_on(self) -> Sequence[Tuple[ParseTreeNode, str]]:
        return [
            (instance.node, instance.name)
            for instance in self._instances.values()
            if instance.external and not instance.available
        ]

    def statistics(self) -> EvaluationStatistics:
        """Aggregate statistics; static/dynamic instance counts cover the whole region."""
        stats = EvaluationStatistics()
        stats.merge(self._stats)
        stats.static_instances = max(
            0, self.root.attribute_instances - stats.dynamic_instances
        )
        return stats

    def value_of(self, node: ParseTreeNode, name: str) -> Any:
        return node.get_attribute(name)


class CombinedEvaluator:
    """Sequential wrapper around :class:`CombinedScheduler` (no remote subtrees)."""

    def __init__(
        self,
        grammar: AttributeGrammar,
        plan: Optional[OrderedEvaluationPlan] = None,
    ):
        self.grammar = grammar
        self.plan = plan or build_evaluation_plan(grammar)

    def evaluate(
        self,
        root: ParseTreeNode,
        root_inherited: Optional[Dict[str, Any]] = None,
    ) -> EvaluationStatistics:
        supplied = root_inherited_or_default(root, root_inherited)
        scheduler = CombinedScheduler(
            self.grammar, root, root_inherited=supplied, plan=self.plan
        )
        return scheduler.run_to_completion()
