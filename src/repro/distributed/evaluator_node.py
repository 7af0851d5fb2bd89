"""One evaluator process: owns a region of the tree and evaluates its attributes.

The process body follows the paper's description closely: receive the linearized
subtree, reconstruct it (computing dependency information only for spine nodes when the
combined evaluator is used), then evaluate attributes as they become ready — sending
boundary attributes to neighbouring evaluators as soon as they are computed, blocking
for remote values when nothing is ready, and (optionally) routing the final code
attribute through the string librarian.

The body is written against the backend-neutral request protocol
(:class:`~repro.backends.base.Compute` / :class:`~repro.backends.base.Receive` yields
plus ``transport.send``), so the identical code runs on the simulated cluster, on OS
threads and on OS processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.analysis.plan_compiler import compiled_rules, compiled_segments
from repro.analysis.tables import evaluation_tables
from repro.analysis.visit_sequences import OrderedEvaluationPlan
from repro.backends.base import Backend, Compute, Mailbox, Receive
from repro.distributed.protocol import (
    AssembleRequest,
    AttributeMessage,
    CodeFragmentMessage,
    ResultMessage,
    SubtreeMessage,
)
from repro.distributed.recording import RegionRecording
from repro.distributed.unique_ids import UniqueIdGenerator, unique_id_context
from repro.evaluation.base import ComputedAttribute, EvaluationStatistics
from repro.evaluation.combined import CombinedScheduler
from repro.evaluation.dynamic import DynamicScheduler
from repro.grammar.grammar import AttributeGrammar
from repro.grammar.symbols import Nonterminal
from repro.runtime.cost import CostModel
from repro.runtime.machine import ActivityKind
from repro.strings.descriptors import (
    ConcatDescriptor,
    LeafDescriptor,
    LiteralDescriptor,
    StringDescriptor,
)
from repro.strings.rope import Rope
from repro.tree.linearize import unpack
from repro.tree.node import ParseTreeNode


def default_attribute_phase(name: str) -> ActivityKind:
    """Map an attribute name to a coarse activity phase for the Figure 6 timeline."""
    lowered = name.lower()
    if any(word in lowered for word in ("stab", "env", "symtab", "table", "decl", "scope")):
        return ActivityKind.SYMBOL_TABLE
    if any(word in lowered for word in ("code", "value", "asm", "text", "output")):
        return ActivityKind.CODE_GENERATION
    return ActivityKind.CODE_GENERATION


def evaluator_body(
    transport: Backend,
    *,
    grammar_bundle: Tuple[AttributeGrammar, Optional[OrderedEvaluationPlan]],
    region_id: int,
    machine_index: int,
    evaluator_kind: str,
    cost_model: CostModel,
    mailboxes: Dict[int, Mailbox],
    machines_of_regions: Dict[int, int],
    parser_machine: int,
    parser_mailbox: Mailbox,
    librarian_machine: Optional[int] = None,
    librarian_mailbox: Optional[Mailbox] = None,
    librarian_attributes: Sequence[str] = (),
    use_priority: bool = True,
    use_tables: bool = True,
    use_compiled: bool = True,
    attribute_phase: Callable[[str], "ActivityKind"] = None,
    record: bool = False,
) -> Generator:
    """Build one evaluator process body (the :class:`~repro.backends.base.WorkerJob`
    factory used by every substrate).

    Module-level and fed only picklable arguments so the pooled processes substrate
    can ship the job to a long-lived forked worker; ``grammar_bundle`` is the
    ``(grammar, plan)`` pair pickled as one unit (preserving shared references) and
    cached per worker.  In-process substrates call it directly with the session as
    ``transport``.
    """
    grammar, plan = grammar_bundle
    node = EvaluatorNode(
        region_id=region_id,
        machine_index=machine_index,
        transport=transport,
        grammar=grammar,
        plan=plan,
        evaluator_kind=evaluator_kind,
        cost_model=cost_model,
        mailboxes=mailboxes,
        machines_of_regions=machines_of_regions,
        parser_machine=parser_machine,
        parser_mailbox=parser_mailbox,
        librarian_machine=librarian_machine,
        librarian_mailbox=librarian_mailbox,
        librarian_attributes=librarian_attributes,
        use_priority=use_priority,
        use_tables=use_tables,
        use_compiled=use_compiled,
        attribute_phase=attribute_phase or default_attribute_phase,
        record=record,
    )
    return node.run()


def prepare_evaluator(
    *,
    grammar_bundle: Tuple[AttributeGrammar, Optional[OrderedEvaluationPlan]],
    evaluator_kind: str,
    use_tables: bool = True,
    use_compiled: bool = True,
) -> None:
    """Build what an evaluator of ``grammar_bundle`` derives from it, ahead of its job.

    The rule tables, compiled rules and compiled visit segments are cached per grammar
    (:mod:`repro.analysis.plan_compiler`).  Built here when a compiler binds to a
    ``processes`` pool, they are inherited by every worker forked afterwards and found
    ready when :func:`evaluator_body` runs there.
    """
    grammar, plan = grammar_bundle
    if not use_tables:
        return
    evaluation_tables(grammar)
    if use_compiled:
        compiled_rules(grammar)
        if evaluator_kind == "combined" and plan is not None:
            compiled_segments(grammar, plan)


@dataclass
class EvaluatorReport:
    """Per-evaluator results gathered after the run.

    ``recording`` carries the region's boundary traffic back to the driver when the
    compilation ran with artifact recording on (the incremental layer strips it off
    before the report reaches callers).  ``replay_mismatches`` is set only by
    replayed regions whose live inputs differed from the cached signatures.
    """

    region_id: int
    machine: str
    statistics: EvaluationStatistics = field(default_factory=EvaluationStatistics)
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    finish_time: float = 0.0
    graph_build_time: float = 0.0
    memory_bytes: int = 0
    recording: Optional[RegionRecording] = None
    replay_mismatches: Optional[List[Tuple[int, str, str]]] = None


class EvaluatorNode:
    """One region's evaluator, driven as a backend process."""

    def __init__(
        self,
        region_id: int,
        machine_index: int,
        transport: Backend,
        grammar: AttributeGrammar,
        plan: OrderedEvaluationPlan,
        evaluator_kind: str,
        cost_model: CostModel,
        mailboxes: Dict[int, Mailbox],
        machines_of_regions: Dict[int, int],
        parser_machine: int,
        parser_mailbox: Mailbox,
        librarian_machine: Optional[int] = None,
        librarian_mailbox: Optional[Mailbox] = None,
        librarian_attributes: Sequence[str] = (),
        use_priority: bool = True,
        use_tables: bool = True,
        use_compiled: bool = True,
        attribute_phase: Callable[[str], ActivityKind] = default_attribute_phase,
        record: bool = False,
    ):
        if evaluator_kind not in ("combined", "dynamic"):
            raise ValueError("evaluator_kind must be 'combined' or 'dynamic'")
        self.region_id = region_id
        self.machine_index = machine_index
        self.transport = transport
        self.grammar = grammar
        self.plan = plan
        self.evaluator_kind = evaluator_kind
        self.cost_model = cost_model
        self.mailbox = mailboxes[region_id]
        self._mailboxes = mailboxes
        self._machines_of_regions = machines_of_regions
        self.parser_machine = parser_machine
        self.parser_mailbox = parser_mailbox
        self.librarian_machine = librarian_machine
        self.librarian_mailbox = librarian_mailbox
        self.librarian_attributes = tuple(librarian_attributes)
        self.use_priority = use_priority
        self.use_tables = use_tables
        self.use_compiled = use_compiled and use_tables
        self.attribute_phase = attribute_phase

        self.report = EvaluatorReport(region_id, f"machine-{machine_index}")
        # Boundary-traffic recording for the incremental artifact cache; pure
        # bookkeeping (no Compute requests, no messages), so a recorded run stays
        # byte-identical to an unrecorded one.
        self._recording = RegionRecording(region_id) if record else None
        self._fragment_counter = 0
        self._root: Optional[ParseTreeNode] = None
        self._holes: Dict[int, ParseTreeNode] = {}
        self._hole_regions: Dict[int, int] = {}     # node_id -> region id
        self._parent_region: Optional[int] = None
        self._root_results: Dict[str, Any] = {}

    # ------------------------------------------------------------------- body

    def run(self) -> Generator:
        """The process body."""
        # Messages from neighbouring evaluators can overtake our own subtree on the
        # network (the parser distributes subtrees one at a time while early evaluators
        # are already computing), so buffer anything that arrives before the subtree.
        early: List[Any] = []
        while True:
            message = yield Receive(self.mailbox)
            if isinstance(message, SubtreeMessage):
                break
            early.append(message)
        self._parent_region = message.parent_region

        unpack_cost = self.cost_model.delinearize_cost(message.tree.size_bytes())
        if message.parent_region is not None:
            yield Compute(unpack_cost, ActivityKind.UNPACK, "delinearize")
        root, holes = unpack(self.grammar, message.tree)
        self._root = root
        self._holes = holes
        self._hole_regions = {node.node_id: region for region, node in holes.items()}

        scheduler, build_cost = self._build_scheduler(message)
        if build_cost > 0:
            yield Compute(build_cost, ActivityKind.GRAPH, "dependencies")
        self.report.graph_build_time = build_cost

        generator = UniqueIdGenerator(message.unique_base)

        for buffered in early:
            yield from self._apply_message(buffered, scheduler)

        while True:
            while scheduler.has_ready_task():
                task = scheduler.next_task()
                if task is None:
                    break
                with unique_id_context(generator):
                    result = scheduler.run_task(task)
                dynamic_task = result.dependency_work > 0
                cost = self.cost_model.task_cost(result, dynamic=dynamic_task)
                phase = self._phase_of(result.computed)
                yield Compute(cost, phase)
                yield from self._handle_exports(result.computed)
            if scheduler.is_complete():
                break
            incoming = yield Receive(self.mailbox)
            yield from self._apply_message(incoming, scheduler)

        yield from self._finish(scheduler)
        self.report.recording = self._recording
        self.transport.publish_report(self.region_id, self.report)

    # --------------------------------------------------------------- internals

    def _build_scheduler(self, message: SubtreeMessage):
        root_inherited = message.root_inherited if message.parent_region is None else None
        hole_nodes = list(self._holes.values())
        if self.evaluator_kind == "combined":
            scheduler = CombinedScheduler(
                self.grammar,
                self._root,
                root_inherited=root_inherited,
                hole_nodes=hole_nodes,
                plan=self.plan,
                use_priority=self.use_priority,
                use_tables=self.use_tables,
                use_compiled=self.use_compiled,
            )
        else:
            scheduler = DynamicScheduler(
                self.grammar,
                self._root,
                root_inherited=root_inherited,
                hole_nodes=hole_nodes,
                use_priority=self.use_priority,
                use_tables=self.use_tables,
                use_compiled=self.use_compiled,
            )
        statistics = scheduler.statistics()
        build_cost = self.cost_model.graph_build_cost(statistics)
        return scheduler, build_cost

    def _phase_of(self, computed: Sequence[ComputedAttribute]) -> ActivityKind:
        for item in computed:
            return self.attribute_phase(item.name)
        return ActivityKind.CODE_GENERATION

    def _is_root_synthesized(self, item: ComputedAttribute) -> bool:
        if self._root is None or item.node is not self._root:
            return False
        symbol = self._root.symbol
        if not isinstance(symbol, Nonterminal):
            return False
        return symbol.attribute(item.name).is_synthesized

    def _handle_exports(self, computed: Sequence[ComputedAttribute]) -> Generator:
        for item in computed:
            hole_region = self._hole_regions.get(item.node.node_id)
            if hole_region is not None:
                symbol = item.node.symbol
                assert isinstance(symbol, Nonterminal)
                decl = symbol.attribute(item.name)
                if decl.is_inherited:
                    yield from self._send_attribute(
                        hole_region, "down", item.name, item.value, decl
                    )
                continue
            if self._is_root_synthesized(item):
                if self._parent_region is None:
                    self._root_results[item.name] = item.value
                    continue
                symbol = self._root.symbol
                assert isinstance(symbol, Nonterminal)
                decl = symbol.attribute(item.name)
                if item.name in self.librarian_attributes and self.librarian_machine is not None:
                    yield from self._export_via_librarian(item.name, item.value, decl)
                else:
                    yield from self._send_attribute(
                        self._parent_region, "up", item.name, item.value, decl
                    )
        return None

    def _send_attribute(self, target_region: int, direction: str, name: str,
                        value: Any, decl) -> Generator:
        wire_value = decl.converter.put(value)
        size = decl.size_of(value)
        yield Compute(
            self.cost_model.convert_cost(size) + self.cost_model.message_cpu_cost,
            ActivityKind.MESSAGE,
            f"send {name}",
        )
        message = AttributeMessage(
            source_region=self.region_id,
            target_region=target_region,
            direction=direction,
            name=name,
            value=wire_value,
            size=size,
            priority=decl.priority,
        )
        if self._recording is not None:
            self._recording.record_attribute_send(
                target_region, direction, name, wire_value, size, decl.priority
            )
        self.transport.send(
            self.machine_index,
            self._machines_of_regions[target_region],
            message,
            message.size_bytes(),
            mailbox=self._mailboxes[target_region],
        )
        self.report.messages_sent += 1
        self.report.bytes_sent += size

    def _export_via_librarian(self, name: str, value: Any, decl) -> Generator:
        descriptor, fragments = self._register_fragments(value)
        for fragment_id, text in fragments:
            size = text.transmission_size()
            yield Compute(
                self.cost_model.convert_cost(size) + self.cost_model.message_cpu_cost,
                ActivityKind.RESULT_PROPAGATION,
                f"fragment {name}",
            )
            fragment_message = CodeFragmentMessage(self.region_id, fragment_id, text, size)
            if self._recording is not None:
                self._recording.record_fragment_send(fragment_id, text, size)
            self.transport.send(
                self.machine_index, self.librarian_machine, fragment_message,
                fragment_message.size_bytes(), mailbox=self.librarian_mailbox,
            )
            self.report.messages_sent += 1
            self.report.bytes_sent += size
        descriptor_size = descriptor.descriptor_size()
        yield Compute(
            self.cost_model.message_cpu_cost, ActivityKind.RESULT_PROPAGATION,
            f"descriptor {name}",
        )
        message = AttributeMessage(
            source_region=self.region_id,
            target_region=self._parent_region,
            direction="up",
            name=name,
            value=descriptor,
            size=descriptor_size,
            priority=decl.priority,
        )
        if self._recording is not None:
            self._recording.record_attribute_send(
                self._parent_region, "up", name, descriptor, descriptor_size, decl.priority
            )
        self.transport.send(
            self.machine_index,
            self._machines_of_regions[self._parent_region],
            message,
            message.size_bytes(),
            mailbox=self._mailboxes[self._parent_region],
        )
        self.report.messages_sent += 1
        self.report.bytes_sent += descriptor_size

    def _register_fragments(self, value: Any) -> Tuple[StringDescriptor, List[Tuple[int, Rope]]]:
        """Turn a code value into a descriptor plus the fragments to ship.

        Plain ropes become a single fragment.  Descriptors received from child regions
        are passed through unchanged, but any literal text they carry (code generated
        locally between child fragments) is also turned into fragments so that every
        byte of code crosses the network exactly once.
        """
        fragments: List[Tuple[int, Rope]] = []
        if isinstance(value, str):
            value = Rope.leaf(value)
        return self._convert_fragments(value, fragments), fragments

    def _convert_fragments(self, node: Any, fragments: List[Tuple[int, Rope]]) -> StringDescriptor:
        # A method, not a closure: a nested function that calls itself is reachable
        # from its own cell, and that cycle would pin ``self`` (the region tree, the
        # ropes, the symbol tables) until a cyclic collection.
        if isinstance(node, ConcatDescriptor):
            return ConcatDescriptor(
                self._convert_fragments(node.left, fragments),
                self._convert_fragments(node.right, fragments),
            )
        if isinstance(node, LiteralDescriptor):
            node = node.text
        elif not isinstance(node, Rope):
            return node  # LeafDescriptor from a descendant region: pass through
        self._fragment_counter += 1
        fragments.append((self._fragment_counter, node))
        return LeafDescriptor(self.region_id, self._fragment_counter)

    def _apply_message(self, message: Any, scheduler) -> Generator:
        if not isinstance(message, AttributeMessage):
            raise TypeError(
                f"evaluator {self.region_id} received unexpected message {message!r}"
            )
        self.report.messages_received += 1
        if self._recording is not None:
            self._recording.record_input(
                message.source_region, message.direction, message.name, message.value
            )
        if message.direction == "down":
            target_node = self._root
        else:
            target_node = self._holes[message.source_region]
        symbol = target_node.symbol
        assert isinstance(symbol, Nonterminal)
        decl = symbol.attribute(message.name)
        value = message.value
        if not isinstance(value, StringDescriptor):
            value = decl.converter.get(value)
        yield Compute(
            self.cost_model.message_cpu_cost + self.cost_model.convert_cost(message.size),
            ActivityKind.MESSAGE,
            f"recv {message.name}",
        )
        scheduler.supply(target_node, message.name, value)

    def _finish(self, scheduler) -> Generator:
        self.report.statistics = scheduler.statistics()
        self.report.memory_bytes = (
            self.cost_model.tree_memory(self._root.subtree_size())
            + self.cost_model.dynamic_graph_memory(self.report.statistics)
            + self.cost_model.attribute_memory(self.report.statistics.total_instances)
        )
        if self._parent_region is None:
            # Root region: hand the root attributes back to the parser, routing
            # librarian-managed attributes through an assembly request.
            payload: Dict[str, Any] = {}
            total_size = 0
            symbol = self._root.symbol
            assert isinstance(symbol, Nonterminal)
            for name, value in self._root_results.items():
                decl = symbol.attribute(name)
                if name in self.librarian_attributes and self.librarian_machine is not None:
                    # Always route librarian-managed attributes through the librarian so
                    # the parser knows exactly how many assembled strings to expect; a
                    # plain rope (no remote fragments) just becomes a literal descriptor.
                    descriptor = (
                        value
                        if isinstance(value, StringDescriptor)
                        else LiteralDescriptor(value if isinstance(value, Rope) else Rope.leaf(str(value)))
                    )
                    request = AssembleRequest(name, descriptor, descriptor.descriptor_size())
                    yield Compute(
                        self.cost_model.message_cpu_cost,
                        ActivityKind.RESULT_PROPAGATION,
                        f"assemble {name}",
                    )
                    self.transport.send(
                        self.machine_index, self.librarian_machine, request,
                        request.size_bytes(), mailbox=self.librarian_mailbox,
                    )
                    payload[name] = value
                    continue
                payload[name] = value
                total_size += decl.size_of(value)
            yield Compute(
                self.cost_model.message_cpu_cost, ActivityKind.RESULT_PROPAGATION, "result"
            )
            result = ResultMessage(self.region_id, payload, total_size)
            self.transport.send(
                self.machine_index, self.parser_machine, result, result.size_bytes(),
                mailbox=self.parser_mailbox,
            )
            self.report.messages_sent += 1
        self.report.finish_time = self.transport.now
