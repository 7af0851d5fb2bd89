"""The parallel compiler driver.

``ParallelCompiler`` reproduces the structure of the paper's system (§2.1): a sequential
parser builds the syntax tree, divides it into subtrees and sends them to attribute
evaluators executing in parallel on different machines; the evaluators exchange
attribute values, and the root attributes flow back to the parser (optionally routing
code strings through the string librarian).

The coordinator/evaluator/librarian processes are written once against the backend
interface in :mod:`repro.backends`, so the same protocol runs on four interchangeable
substrates selected by the ``backend`` knob:

* ``"simulated"`` (default) — the paper's modelled cluster; the returned
  :class:`CompilationReport` carries simulated times, per-machine activity timelines,
  message statistics and evaluator statistics — the raw material for every figure in
  the paper's evaluation section;
* ``"threads"`` — every region a process of the simulator's kernel, run on the
  calling thread against the wall clock;
* ``"processes"`` — one forked OS process per evaluator region (pickled protocol
  messages over pipes);
* ``"sockets"`` — evaluator jobs on separate worker processes reached over TCP
  (:mod:`repro.cluster`).

Every report additionally carries wall-clock timings, so real and simulated runs can be
compared side by side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.visit_sequences import OrderedEvaluationPlan, build_evaluation_plan
from repro.backends import Backend, Substrate, create_backend
from repro.backends.base import (
    BackendError,
    Compute,
    Mailbox,
    Receive,
    SharedBundle,
    WorkerJob,
)
from repro.distributed.evaluator_node import (
    EvaluatorNode,
    EvaluatorReport,
    default_attribute_phase,
    evaluator_body,
    prepare_evaluator,
)
from repro.distributed.librarian import StringLibrarian
from repro.distributed.recording import IncrementalSessionPlan
from repro.distributed.replay import replay_body
from repro.distributed.protocol import (
    AssembledCodeMessage,
    ResultMessage,
    SubtreeMessage,
)
from repro.distributed.unique_ids import base_for_region
from repro.evaluation.base import EvaluationStatistics
from repro.grammar.attributes import AttributeKind
from repro.grammar.grammar import AttributeGrammar
from repro.grammar.symbols import Nonterminal
from repro.partition.decomposition import DecompositionPlan, TreeRoot, plan_decomposition
from repro.runtime.cost import CostModel
from repro.runtime.machine import ActivityInterval, ActivityKind
from repro.runtime.network import NetworkParameters
from repro.strings.rope import Rope


@dataclass
class CompilerConfiguration:
    """Tunable knobs of the parallel compiler.

    :param evaluator: ``"combined"`` (the paper's contribution) or ``"dynamic"``.
    :param backend: execution substrate — ``"simulated"``, ``"threads"``,
        ``"processes"`` or ``"sockets"`` (see :mod:`repro.backends`).
    :param use_librarian: route code attributes through the string librarian instead of
        shipping full code strings up the evaluator tree.
    :param librarian_attributes: names of root/split synthesized attributes treated as
        code strings by the librarian protocol.
    :param use_priority: honour priority-attribute declarations when scheduling.
    :param use_precompiled_tables: evaluate through the precompiled per-grammar rule
        tables (:mod:`repro.analysis.tables`); ``False`` selects the seed
        dict/``AttributeRef`` paths, kept as the parity-test reference.
    :param use_compiled_plans: evaluate through per-grammar generated Python
        (:mod:`repro.analysis.plan_compiler`) — straight-line argument fetch and rule
        firing with no table dispatch.  Requires (and builds on)
        ``use_precompiled_tables``; ``False`` keeps the table path as the
        bit-identical parity reference.
    :param min_split_size: explicit decomposition threshold (abstract bytes); by default
        the threshold is derived from the tree size and machine count.
    :param split_scale: multiplier on the automatically derived threshold (the paper's
        runtime granularity argument).
    :param receive_timeout: bound (wall seconds) on blocking receives for the real
        backends; ``None`` selects each backend's default.
    """

    evaluator: str = "combined"
    backend: str = "simulated"
    use_librarian: bool = True
    librarian_attributes: Tuple[str, ...] = ("code",)
    use_priority: bool = True
    use_precompiled_tables: bool = True
    use_compiled_plans: bool = True
    root_inherited: Dict[str, Any] = field(default_factory=dict)
    cost_model: CostModel = field(default_factory=CostModel)
    network: NetworkParameters = field(default_factory=NetworkParameters)
    min_split_size: Optional[int] = None
    split_scale: float = 1.0
    attribute_phase: Callable[[str], ActivityKind] = default_attribute_phase
    receive_timeout: Optional[float] = None


@dataclass
class CompilationReport:
    """Everything measured during one parallel compilation.

    On the simulated backend ``parse_time``/``evaluation_time`` are simulated seconds;
    on the real backends ``evaluation_time`` is wall-clock seconds and the simulated
    network/timeline fields are empty.  ``wall_time_seconds`` (whole compilation) and
    ``wall_evaluation_seconds`` (backend run only) are real wall-clock measurements on
    every backend.
    """

    machines: int
    evaluator: str
    use_librarian: bool
    parse_time: float
    evaluation_time: float
    decomposition: DecompositionPlan
    root_attributes: Dict[str, Any]
    assembled: Dict[str, Rope]
    evaluator_reports: List[EvaluatorReport]
    timeline: Dict[str, List[ActivityInterval]]
    utilization: Dict[str, float]
    network_messages: int
    network_bytes: int
    network_busy_time: float
    statistics: EvaluationStatistics
    memory_bytes: int
    tree_nodes: int
    backend: str = "simulated"
    wall_time_seconds: float = 0.0
    wall_evaluation_seconds: float = 0.0
    worker_count: int = 0
    #: Wall-clock seconds the parser spent encoding and sending region subtrees to
    #: their evaluators (the "ship" phase of the hot path); 0.0 until the parser has
    #: distributed all regions.
    wall_ship_seconds: float = 0.0
    #: Wall-clock seconds the caller spent parsing the source into the tree this
    #: compilation ran on.  ``compile_tree`` cannot measure it (it receives a parsed
    #: tree), so the front door (:class:`repro.api.Compiler`, the service layer and
    #: the deprecated per-workload shims) stamps it after the run; stays 0.0 when the
    #: caller never parsed (e.g. a pre-built tree swept over machine counts).
    wall_parse_seconds: float = 0.0
    #: Region-artifact cache accounting for this compilation: how many regions were
    #: replayed from the content-addressed cache and how many were (re-)evaluated.
    #: Both stay 0 on plain, non-incremental compilations; the service layer
    #: aggregates them into :class:`repro.service.ServiceStats`.
    region_cache_hits: int = 0
    region_cache_misses: int = 0

    @property
    def total_time(self) -> float:
        """Parse plus evaluation time (the paper reports them separately).

        Only meaningful on the simulated backend, where both terms are simulated
        seconds; on real backends ``parse_time`` stays a modelled cost while
        ``evaluation_time`` is wall-clock, so use ``wall_time_seconds`` there.
        """
        return self.parse_time + self.evaluation_time

    @property
    def dynamic_fraction(self) -> float:
        return self.statistics.dynamic_fraction

    def speedup_against(self, sequential: "CompilationReport") -> float:
        """Speedup of this run's evaluation time over a sequential reference run."""
        if self.evaluation_time == 0:
            return float("inf")
        return sequential.evaluation_time / self.evaluation_time

    def code_text(self, attribute: str = "code") -> str:
        """The final (assembled) text of a code attribute."""
        if attribute in self.assembled:
            return self.assembled[attribute].flatten()
        value = self.root_attributes.get(attribute)
        if isinstance(value, Rope):
            return value.flatten()
        if value is None:
            raise KeyError(f"no root attribute named {attribute!r}")
        return str(value)

    def summary(self) -> str:
        """A human-readable digest, aware of what the backend actually measured.

        The simulated backend reports modelled network occupancy and evaluator
        memory; the real substrates have no modelled link or memory figures (they
        would print misleading zeros), so their summary reports wall-clock times and
        the real worker count instead.
        """
        if self.backend == "simulated":
            lines = [
                f"{self.evaluator} evaluator on {self.machines} machine(s) "
                f"[{self.backend} backend]: "
                f"evaluation {self.evaluation_time:.3f}s (+ parse {self.parse_time:.3f}s)",
                f"  regions: {self.decomposition.region_count}, "
                f"dynamic fraction: {self.dynamic_fraction * 100:.1f}%",
                f"  network: {self.network_messages} messages, {self.network_bytes} bytes, "
                f"link busy {self.network_busy_time:.3f}s",
                f"  memory: {self.memory_bytes} bytes across evaluators",
            ]
        else:
            lines = [
                f"{self.evaluator} evaluator on {self.machines} machine(s) "
                f"[{self.backend} backend]: "
                f"evaluation {self.evaluation_time:.3f}s wall "
                f"(+ modelled parse {self.parse_time:.3f}s)",
                f"  regions: {self.decomposition.region_count}, "
                f"dynamic fraction: {self.dynamic_fraction * 100:.1f}%",
                f"  wall clock: {self.wall_time_seconds:.3f}s total"
                + (
                    f" (+ parse {self.wall_parse_seconds:.3f}s)"
                    if self.wall_parse_seconds > 0
                    else ""
                )
                + f", {self.wall_evaluation_seconds:.3f}s evaluating",
                f"  workers: {self.worker_count} real {self.backend} worker(s), "
                f"{self.network_messages} messages, {self.network_bytes} bytes",
            ]
        return "\n".join(lines)


class ParallelCompiler:
    """Generate-once, compile-many driver for a single attribute grammar.

    This is the *engine* underneath the public front door: prefer
    :class:`repro.api.Compiler` / :class:`repro.api.Session`, which add language
    registration, uniform results and substrate lifecycle on top and share
    name-keyed engines across call sites.  Construct a raw ``ParallelCompiler``
    only for grammars that are not (and should not be) registered as languages.

    By default every :meth:`compile_tree` call runs on a private substrate of the
    configured ``backend``, started for that one compilation and shut down when it
    ends.  Pass a started :class:`~repro.backends.base.Substrate` — at construction or
    per call — and the compiler becomes a thin client of that persistent pool
    instead: each compilation borrows a run session, long-lived workers pull the
    evaluator jobs, and the substrate survives for the next call.
    """

    def __init__(
        self,
        grammar: AttributeGrammar,
        configuration: Optional[CompilerConfiguration] = None,
        plan: Optional[OrderedEvaluationPlan] = None,
        backend: Optional[str] = None,
        substrate: Optional[Substrate] = None,
        bundle_key: Optional[str] = None,
    ):
        self.grammar = grammar
        self.configuration = configuration or CompilerConfiguration()
        if self.configuration.evaluator not in ("combined", "dynamic"):
            raise ValueError("evaluator must be 'combined' or 'dynamic'")
        self.backend = backend or self.configuration.backend
        self.substrate = substrate
        # The ordered-evaluation plan is only needed by the combined evaluator, and some
        # grammars are evaluable dynamically but not ordered.
        if self.configuration.evaluator == "combined":
            self.plan = plan or build_evaluation_plan(grammar)
        else:
            self.plan = plan
        # One stable (grammar, plan) tuple for every job this compiler ever submits:
        # pooled process workers cache the shipped bundle by identity, so reusing the
        # same object means the grammar crosses to each worker exactly once.
        # ``bundle_key`` (the language registry's name-derived key) goes further:
        # *every* compiler sharing the key maps to one worker-side cache entry, so the
        # bundle ships once per worker no matter how many compiler instances exist.
        if bundle_key is not None:
            self._grammar_bundle: Any = SharedBundle(bundle_key, (self.grammar, self.plan))
        else:
            self._grammar_bundle = (self.grammar, self.plan)

    # -------------------------------------------------------------------- API

    def prepare(self, substrate: Substrate) -> None:
        """Let ``substrate`` build this compiler's evaluator artifacts before its first job.

        On ``processes`` the rule tables, compiled rules and compiled visit segments
        (:func:`prepare_evaluator`) are built once in this process, and every worker
        forked afterwards inherits them instead of building its own after its first
        region arrives.
        """
        config = self.configuration
        substrate.prepare(
            WorkerJob(
                factory=prepare_evaluator,
                kwargs=dict(
                    evaluator_kind=config.evaluator,
                    use_tables=config.use_precompiled_tables,
                    use_compiled=config.use_compiled_plans,
                ),
                shared={"grammar_bundle": self._grammar_bundle},
            )
        )

    def compile_tree(
        self,
        tree: TreeRoot,
        machines: int,
        root_inherited: Optional[Dict[str, Any]] = None,
        backend: Optional[str] = None,
        substrate: Optional[Substrate] = None,
        decomposition: Optional[DecompositionPlan] = None,
        incremental: Optional[IncrementalSessionPlan] = None,
        receive_timeout: Optional[float] = None,
    ) -> CompilationReport:
        """Compile an already-parsed tree on ``machines`` (simulated or real) workers.

        ``tree`` is a built tree's root or the root span of the recogniser's
        post-order records (:mod:`repro.tree.spans`); either way each region ships
        packed and is built only by its evaluator.

        Precedence for the execution substrate: per-call ``substrate`` >
        per-call ``backend`` > the compiler's own ``substrate`` > its ``backend``.

        ``decomposition`` lets a caller that already planned the region split (the
        incremental driver fingerprints regions before compiling) reuse its plan;
        ``incremental`` switches the session into replay-and-record mode (see
        :class:`~repro.distributed.recording.IncrementalSessionPlan`);
        ``receive_timeout`` tightens this one compile's blocking-receive bound
        below the configured default — this is how a caller-supplied
        :class:`repro.resilience.Deadline` propagates into the substrate (and,
        on the sockets substrate, into the cluster's per-job timeout, which is
        derived from the session's receive bound).
        """
        config = self.configuration
        wall_started = time.perf_counter()
        tree_nodes = tree.node_count
        parse_time = config.cost_model.parse_cost(tree_nodes)

        if decomposition is None:
            decomposition = plan_decomposition(
                tree,
                machines,
                min_size=config.min_split_size,
                scale=config.split_scale,
            )
        pool: Optional[Substrate] = None
        if substrate is not None:
            pool = substrate
        elif backend is None:
            pool = self.substrate
        bound = config.receive_timeout
        if receive_timeout is not None:
            bound = receive_timeout if bound is None else min(bound, receive_timeout)
        if pool is not None:
            session = pool.session(machines, receive_timeout=bound)
        else:
            # One-shot: a private substrate, shut down when the run ends.
            session = create_backend(
                backend or self.backend,
                machines,
                network=config.network,
                cost_model=config.cost_model,
                receive_timeout=bound,
            )
        # Everything from here on runs under the session's teardown guarantee: if the
        # run (or report collection) raises, close() unwinds this compilation's
        # workers instead of leaking them.
        try:
            return self._compile_on_session(
                session,
                tree,
                machines,
                decomposition,
                root_inherited,
                parse_time,
                tree_nodes,
                wall_started,
                incremental=incremental,
            )
        finally:
            session.close()

    # --------------------------------------------------------------- internals

    def _compile_on_session(
        self,
        session: Backend,
        tree: TreeRoot,
        machines: int,
        decomposition: DecompositionPlan,
        root_inherited: Optional[Dict[str, Any]],
        parse_time: float,
        tree_nodes: int,
        wall_started: float,
        incremental: Optional[IncrementalSessionPlan] = None,
    ) -> CompilationReport:
        config = self.configuration
        reuse = incremental.reuse if incremental is not None else {}
        record = incremental.record if incremental is not None else False
        if 0 in reuse:
            # The root region delivers the final ResultMessage and assembly requests,
            # which are not part of the recorded boundary traffic; the incremental
            # driver always re-evaluates it.
            raise ValueError("the root region cannot be replayed from the cache")
        parser_machine = 0
        parser_mailbox = session.mailbox("parser.mailbox")

        machine_of_region: Dict[int, int] = {
            region.region_id: region.region_id % machines
            for region in decomposition.regions
        }
        mailboxes: Dict[int, Mailbox] = {
            region.region_id: session.mailbox(f"evaluator-{region.region_id}.mailbox")
            for region in decomposition.regions
        }

        librarian_attrs = self._root_librarian_attributes()
        librarian_active = (
            config.use_librarian
            and decomposition.region_count > 1
            and bool(librarian_attrs)
        )
        librarian: Optional[StringLibrarian] = None
        librarian_mailbox: Optional[Mailbox] = None
        if librarian_active:
            librarian_mailbox = session.mailbox("librarian.mailbox")
            librarian = StringLibrarian(
                config.cost_model,
                librarian_mailbox,
                transport=session,
                machine_index=parser_machine,
            )

        region_ids: List[int] = []
        for region in decomposition.regions:
            region_ids.append(region.region_id)
            if region.region_id in reuse:
                # Clean region: replay its cached boundary traffic in the driving
                # process instead of shipping and re-evaluating the subtree, and
                # check what its dirty neighbours send it ("early cutoff").
                artifact = reuse[region.region_id]
                body = replay_body(
                    session,
                    region_id=region.region_id,
                    machine_index=machine_of_region[region.region_id],
                    recording=artifact.recording,
                    base_report=artifact.report,
                    reuse_ids=set(reuse),
                    mailboxes=mailboxes,
                    machines_of_regions=machine_of_region,
                    librarian_machine=parser_machine if librarian_active else None,
                    librarian_mailbox=librarian_mailbox,
                )
                session.spawn(
                    body,
                    name=f"replay-{region.region_id}",
                    machine=machine_of_region[region.region_id],
                    coordinator=True,
                )
                continue
            job = WorkerJob(
                factory=evaluator_body,
                kwargs=dict(
                    region_id=region.region_id,
                    machine_index=machine_of_region[region.region_id],
                    evaluator_kind=config.evaluator,
                    cost_model=config.cost_model,
                    mailboxes=mailboxes,
                    machines_of_regions=machine_of_region,
                    parser_machine=parser_machine,
                    parser_mailbox=parser_mailbox,
                    librarian_machine=parser_machine if librarian_active else None,
                    librarian_mailbox=librarian_mailbox,
                    librarian_attributes=(
                        config.librarian_attributes if librarian_active else ()
                    ),
                    use_priority=config.use_priority,
                    use_tables=config.use_precompiled_tables,
                    use_compiled=(
                        config.use_compiled_plans and config.use_precompiled_tables
                    ),
                    attribute_phase=config.attribute_phase,
                    record=record,
                ),
                shared={"grammar_bundle": self._grammar_bundle},
            )
            session.spawn(
                job,
                name=f"evaluator-{region.region_id}",
                machine=machine_of_region[region.region_id],
            )

        if librarian_active:
            session.spawn(
                librarian.run(
                    parser_machine,
                    parser_mailbox,
                    expected_assemblies=len(librarian_attrs),
                ),
                name="librarian",
                machine=parser_machine,
                coordinator=True,
            )

        outcome: Dict[str, Any] = {
            "root_attributes": {},
            "assembled": {},
            "finish_time": 0.0,
            "ship_wall": 0.0,
        }
        session.spawn(
            self._parser_process(
                session,
                parser_machine,
                parser_mailbox,
                decomposition,
                machine_of_region,
                mailboxes,
                root_inherited if root_inherited is not None else config.root_inherited,
                expected_assemblies=len(librarian_attrs) if librarian_active else 0,
                outcome=outcome,
                reuse_ids=set(reuse),
            ),
            name="parser",
            machine=parser_machine,
            coordinator=True,
        )

        wall_evaluation = session.run()

        # Every evaluator publishes its report as the last step of its body; a missing
        # report after a successful run means results were lost in transit (e.g. a
        # worker process died silently), which must be loud, not zero-filled.
        reports_by_region = session.reports
        missing = [
            region_id for region_id in region_ids if region_id not in reports_by_region
        ]
        if missing:
            raise BackendError(
                f"backend {session.name!r} returned no evaluator report for "
                f"region(s) {missing}"
            )
        aggregate = EvaluationStatistics()
        memory = 0
        reports = []
        for region_id in region_ids:
            report = reports_by_region[region_id]
            if incremental is not None:
                # Harvest the incremental bookkeeping off the reports: recordings
                # feed the artifact cache, mismatches trigger another round, and
                # neither belongs in the report callers see.
                if report.recording is not None:
                    incremental.recordings[region_id] = report.recording
                    report.recording = None
                if report.replay_mismatches:
                    incremental.mismatches.extend(
                        (region_id, key) for key in report.replay_mismatches
                    )
                    report.replay_mismatches = None
            aggregate.merge(report.statistics)
            memory += report.memory_bytes
            reports.append(report)

        telemetry = session.telemetry()
        return CompilationReport(
            machines=machines,
            evaluator=config.evaluator,
            use_librarian=librarian_active,
            parse_time=parse_time,
            evaluation_time=outcome["finish_time"],
            decomposition=decomposition,
            root_attributes=outcome["root_attributes"],
            assembled=outcome["assembled"],
            evaluator_reports=reports,
            timeline=telemetry.timeline,
            utilization=telemetry.utilization,
            network_messages=telemetry.network_messages,
            network_bytes=telemetry.network_bytes,
            network_busy_time=telemetry.network_busy_time,
            statistics=aggregate,
            memory_bytes=memory,
            tree_nodes=tree_nodes,
            backend=session.name,
            wall_time_seconds=time.perf_counter() - wall_started,
            wall_evaluation_seconds=wall_evaluation,
            worker_count=session.worker_count,
            wall_ship_seconds=outcome["ship_wall"],
        )

    def _root_librarian_attributes(self) -> Tuple[str, ...]:
        start = self.grammar.start
        if start is None:
            return ()
        names = []
        for name in self.configuration.librarian_attributes:
            if start.has_attribute(name) and start.attribute(name).is_synthesized:
                names.append(name)
        return tuple(names)

    def _parser_process(
        self,
        substrate: Backend,
        parser_machine: int,
        parser_mailbox: Mailbox,
        decomposition: DecompositionPlan,
        machine_of_region: Dict[int, int],
        mailboxes: Dict[int, Mailbox],
        root_inherited: Dict[str, Any],
        expected_assemblies: int,
        outcome: Dict[str, Any],
        reuse_ids: Optional[Set[int]] = None,
    ) -> Generator:
        config = self.configuration
        reuse_ids = reuse_ids or set()
        ship_started = time.perf_counter()
        # Every region ships packed (``repro.tree.linearize``'s array-of-ints codec) on
        # every substrate — the plan's ``packed``, made once per region — and the
        # evaluator rebuilds it with the iterative ``unpack``, however deep it is.
        # Ship remote regions first (they must cross the network), then hand the root
        # region to the co-located evaluator.  Replayed regions are not shipped at
        # all — that is the "ship only dirty regions" half of incremental compiles.
        for region in decomposition.regions[1:]:
            if region.region_id in reuse_ids:
                continue
            encoded = decomposition.packed(region.region_id, self.grammar)
            cost = (
                config.cost_model.linearize_cost(encoded.size_bytes())
                + config.cost_model.message_cpu_cost
            )
            yield Compute(cost, ActivityKind.PARSE, f"ship region {region.label}")
            message = SubtreeMessage(
                region_id=region.region_id,
                parent_region=region.parent_region,
                tree=encoded,
                unique_base=base_for_region(region.region_id),
                label=region.label,
            )
            substrate.send(
                parser_machine,
                machine_of_region[region.region_id],
                message,
                message.size_bytes(),
                mailbox=mailboxes[region.region_id],
            )

        root_region = decomposition.regions[0]
        root_message = SubtreeMessage(
            region_id=0,
            parent_region=None,
            tree=decomposition.packed(0, self.grammar),
            unique_base=base_for_region(0),
            root_inherited=dict(root_inherited),
            label=root_region.label,
        )
        substrate.send(parser_machine, parser_machine, root_message, 0, mailbox=mailboxes[0])
        outcome["ship_wall"] = time.perf_counter() - ship_started

        expected_messages = 1 + expected_assemblies
        received = 0
        while received < expected_messages:
            message = yield Receive(parser_mailbox)
            if isinstance(message, ResultMessage):
                outcome["root_attributes"] = dict(message.attributes)
            elif isinstance(message, AssembledCodeMessage):
                outcome["assembled"][message.attribute] = message.text
            else:
                raise TypeError(f"parser received unexpected message {message!r}")
            received += 1
        outcome["finish_time"] = substrate.now
