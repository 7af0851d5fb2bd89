"""Tests for the execution backends: parity across substrates, pickling, placement."""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time

import pytest

from repro.api import Compiler
from repro.backends import BACKEND_NAMES, BackendError, ProcessesSubstrate, create_backend
from repro.backends.base import Compute, Receive, WorkerJob
from repro.distributed.compiler import CompilerConfiguration, ParallelCompiler
from repro.distributed.protocol import (
    PROTOCOL_MESSAGES,
    AssembledCodeMessage,
    AssembleRequest,
    AttributeMessage,
    CodeFragmentMessage,
    ResultMessage,
    SubtreeMessage,
)
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.strings.descriptors import ConcatDescriptor, LeafDescriptor, LiteralDescriptor
from repro.strings.rope import Rope
from repro.tree.linearize import pack


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


requires_fork = pytest.mark.skipif(
    not _fork_available(), reason="processes backend requires the fork start method"
)

REAL_BACKENDS = ["threads", pytest.param("processes", marks=requires_fork), "sockets"]


@pytest.fixture(scope="module")
def split_grammar():
    """Expression grammar with a low split threshold so small trees decompose."""
    return expression_grammar(min_split_size=60)


@pytest.fixture(scope="module")
def big_expression(split_grammar):
    source = random_expression_source(250, seed=11, nesting=6)
    return parse_expression(source, split_grammar)


@pytest.fixture(scope="module")
def pascal_setup():
    from repro.pascal import PascalCompiler, generate_program

    compiler = PascalCompiler()
    source = generate_program(procedures=10, statements_per_procedure=3, seed=3)
    return compiler, compiler.parse(source)


class TestBackendFactory:
    def test_known_names(self):
        assert BACKEND_NAMES == ("simulated", "threads", "processes", "sockets")
        for name in ("simulated", "threads"):
            assert create_backend(name, machines=2).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_backend("quantum", machines=2)
        with pytest.raises(ValueError):
            ParallelCompiler(
                expression_grammar(), backend="quantum"
            ).compile_tree(parse_expression("1 + 2", expression_grammar()), 1)


class TestBackendParity:
    """The same workload must produce identical results on every substrate."""

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_expression_value_matches_simulated(self, split_grammar, big_expression, backend):
        compiler = ParallelCompiler(split_grammar)
        simulated = compiler.compile_tree(big_expression, 4)
        real = compiler.compile_tree(big_expression, 4, backend=backend)
        assert real.backend == backend
        assert real.root_attributes["value"] == simulated.root_attributes["value"]
        assert real.decomposition.region_count == simulated.decomposition.region_count
        # One real worker per evaluator region.
        assert real.worker_count == real.decomposition.region_count

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_pascal_code_byte_identical(self, pascal_setup, backend):
        _, tree = pascal_setup
        simulated = Compiler("pascal", machines=4).compile_tree(tree).report
        real = Compiler("pascal", machines=4, backend=backend).compile_tree(tree).report
        assert real.code_text("code") == simulated.code_text("code")
        assert real.root_attributes["errs"] == simulated.root_attributes["errs"]
        assert set(real.root_attributes) == set(simulated.root_attributes)

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_dynamic_evaluator_parity(self, split_grammar, big_expression, backend):
        configuration = CompilerConfiguration(evaluator="dynamic")
        compiler = ParallelCompiler(split_grammar, configuration)
        simulated = compiler.compile_tree(big_expression, 3)
        real = compiler.compile_tree(big_expression, 3, backend=backend)
        assert real.root_attributes["value"] == simulated.root_attributes["value"]

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_wall_clock_reported(self, split_grammar, big_expression, backend):
        report = ParallelCompiler(split_grammar, backend=backend).compile_tree(
            big_expression, 3
        )
        assert report.wall_time_seconds > 0
        assert report.wall_evaluation_seconds > 0
        assert report.wall_time_seconds >= report.wall_evaluation_seconds
        # Real substrates report wall-clock evaluation time, not simulated seconds.
        assert report.evaluation_time > 0
        # Modelled-cluster telemetry does not exist off the simulator.
        assert report.timeline == {}
        assert report.utilization == {}
        assert report.network_messages > 0

    def test_simulated_wall_clock_also_reported(self, split_grammar, big_expression):
        report = ParallelCompiler(split_grammar).compile_tree(big_expression, 3)
        assert report.backend == "simulated"
        assert report.wall_time_seconds > 0
        assert report.timeline


class TestPrecompiledTablesParity:
    """The precompiled evaluation tables must reproduce the seed dict-based path
    exactly — same attribute values, same statistics — on every substrate."""

    ALL_BACKENDS = ["simulated"] + REAL_BACKENDS

    @pytest.fixture(scope="class")
    def pascal_reference(self):
        """The seed path: dict/AttributeRef lookups, simulated substrate."""
        from repro.pascal import generate_program
        from repro.pascal.grammar import pascal_grammar

        grammar = pascal_grammar()
        compiler = ParallelCompiler(
            grammar, CompilerConfiguration(use_precompiled_tables=False)
        )
        from repro.pascal.compiler import PascalCompiler

        tree = PascalCompiler().parse(
            generate_program(procedures=10, statements_per_procedure=3, seed=3)
        )
        report = compiler.compile_tree(tree, 4)
        return grammar, tree, report

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pascal_report_matches_reference(self, pascal_reference, backend):
        grammar, tree, reference = pascal_reference
        compiler = ParallelCompiler(grammar)  # tables on by default
        report = compiler.compile_tree(tree, 4, backend=backend)
        assert report.code_text("code") == reference.code_text("code")
        assert report.root_attributes["errs"] == reference.root_attributes["errs"]
        assert set(report.root_attributes) == set(reference.root_attributes)
        assert vars(report.statistics) == vars(reference.statistics)
        by_region = {entry.region_id: entry for entry in report.evaluator_reports}
        for expected in reference.evaluator_reports:
            assert vars(by_region[expected.region_id].statistics) == vars(
                expected.statistics
            )
        if backend == "simulated":
            # Modelled time must be bit-identical: the tables change how the
            # evaluators compute, never what or in which order.
            assert report.evaluation_time == reference.evaluation_time
            assert report.network_bytes == reference.network_bytes

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_dynamic_evaluator_matches_reference(
        self, split_grammar, big_expression, backend
    ):
        reference = ParallelCompiler(
            split_grammar,
            CompilerConfiguration(evaluator="dynamic", use_precompiled_tables=False),
        ).compile_tree(big_expression, 3)
        report = ParallelCompiler(
            split_grammar, CompilerConfiguration(evaluator="dynamic")
        ).compile_tree(big_expression, 3, backend=backend)
        assert report.root_attributes["value"] == reference.root_attributes["value"]
        assert vars(report.statistics) == vars(reference.statistics)


class TestCompiledPlansParity:
    """Plan-compiled evaluators must be invisible in the output: every knob
    combination reproduces the seed dict path exactly — same code, same
    attributes, same statistics — on every substrate."""

    ALL_BACKENDS = ["simulated"] + REAL_BACKENDS

    @pytest.fixture(scope="class")
    def pascal_case(self):
        from repro.pascal import generate_program
        from repro.pascal.compiler import PascalCompiler
        from repro.pascal.grammar import pascal_grammar

        grammar = pascal_grammar()
        tree = PascalCompiler().parse(
            generate_program(procedures=10, statements_per_procedure=3, seed=3)
        )
        reference = ParallelCompiler(
            grammar, CompilerConfiguration(use_precompiled_tables=False)
        ).compile_tree(tree, 4)
        return grammar, tree, reference

    def _assert_matches(self, report, reference, backend):
        assert report.code_text("code") == reference.code_text("code")
        assert report.root_attributes["errs"] == reference.root_attributes["errs"]
        assert set(report.root_attributes) == set(reference.root_attributes)
        assert vars(report.statistics) == vars(reference.statistics)
        by_region = {entry.region_id: entry for entry in report.evaluator_reports}
        for expected in reference.evaluator_reports:
            assert vars(by_region[expected.region_id].statistics) == vars(
                expected.statistics
            )
        if backend == "simulated":
            assert report.evaluation_time == reference.evaluation_time
            assert report.network_bytes == reference.network_bytes

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "tables"])
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pascal_matches_seed_reference(self, pascal_case, backend, compiled):
        grammar, tree, reference = pascal_case
        configuration = CompilerConfiguration(use_compiled_plans=compiled)
        report = ParallelCompiler(grammar, configuration).compile_tree(
            tree, 4, backend=backend
        )
        self._assert_matches(report, reference, backend)


class TestReportSummary:
    """summary() reports what the backend actually measured, never modelled zeros."""

    def test_simulated_summary_shows_modelled_network(self, split_grammar, big_expression):
        summary = ParallelCompiler(split_grammar).compile_tree(big_expression, 3).summary()
        assert "link busy" in summary
        assert "memory" in summary
        assert "wall clock" not in summary

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_real_summary_shows_wall_clock_and_workers(
        self, split_grammar, big_expression, backend
    ):
        report = ParallelCompiler(split_grammar, backend=backend).compile_tree(
            big_expression, 3
        )
        summary = report.summary()
        assert "wall clock" in summary
        assert f"{report.worker_count} real {backend} worker(s)" in summary
        # The modelled link/memory figures do not exist off the simulator.
        assert "link busy" not in summary
        assert "memory" not in summary


@requires_fork
class TestProcessesPlacement:
    """Acceptance: the paper workload runs on >= 4 real worker processes."""

    def test_paper_workload_on_four_worker_processes(self):
        from repro.experiments.workload import default_workload

        workload = default_workload()
        simulated = Compiler("pascal", machines=4).compile_tree(workload.tree).report
        real = Compiler(
            "pascal", machines=4, backend="processes"
        ).compile_tree(workload.tree).report
        assert real.worker_count >= 4
        assert real.code_text("code") == simulated.code_text("code")
        assert real.wall_evaluation_seconds > 0


def _sample_messages():
    """One instance of every protocol message, with realistic payloads."""
    grammar = expression_grammar()
    tree = parse_expression("1 + 2 * 3", grammar)
    packed = pack(grammar, tree)
    descriptor = ConcatDescriptor(
        LeafDescriptor(1, 1),
        ConcatDescriptor(LiteralDescriptor(Rope.leaf("mid")), LeafDescriptor(2, 1)),
    )
    return [
        SubtreeMessage(
            region_id=1,
            parent_region=0,
            tree=packed,
            unique_base=10_000_000,
            root_inherited={"env": ()},
            label="S",
        ),
        AttributeMessage(
            source_region=1,
            target_region=0,
            direction="up",
            name="code",
            value=descriptor,
            size=12,
            priority=True,
        ),
        CodeFragmentMessage(1, 1, Rope.leaf("movl\tr0, r1\n"), 12),
        ResultMessage(0, {"value": 7, "code": Rope.leaf("halt\n")}, 12),
        AssembleRequest("code", descriptor, descriptor.descriptor_size()),
        AssembledCodeMessage("code", Rope.leaf("movl\tr0, r1\nhalt\n"), 18),
    ]


class TestProtocolPickling:
    """Every wire message must survive multiprocessing transport."""

    def test_sample_covers_whole_vocabulary(self):
        assert {type(message) for message in _sample_messages()} == set(PROTOCOL_MESSAGES)

    @pytest.mark.parametrize(
        "message", _sample_messages(), ids=lambda message: type(message).__name__
    )
    def test_pickle_round_trip(self, message):
        clone = pickle.loads(pickle.dumps(message))
        assert type(clone) is type(message)
        assert clone.size_bytes() == message.size_bytes()

    @requires_fork
    def test_round_trip_through_a_worker_frame(self):
        """The frame the pooled substrate writes to a worker's job pipe, read back
        the way the worker reads it."""
        from repro.backends.processes import _framed

        reader, writer = multiprocessing.get_context("fork").Pipe(duplex=False)
        for message in _sample_messages():
            frame = _framed(("msg", 1, 0, message))
            assert os.write(writer.fileno(), frame) == len(frame)
            kind, session_id, mailbox_id, clone = pickle.loads(reader.recv_bytes())
            assert (kind, session_id, mailbox_id) == ("msg", 1, 0)
            assert type(clone) is type(message)
            assert clone.size_bytes() == message.size_bytes()
            if isinstance(clone, SubtreeMessage):
                assert clone.tree.codes == message.tree.codes
                assert clone.tree.values == message.tree.values
            if isinstance(clone, AssembledCodeMessage):
                assert clone.text.flatten() == message.text.flatten()
            if isinstance(clone, CodeFragmentMessage):
                assert clone.text.flatten() == message.text.flatten()
        reader.close()
        writer.close()


def _tree_census_probe(transport):
    """A WorkerJob factory counting the parse-tree nodes its worker's collector
    still has to walk — neither frozen nor freed (module-level: must pickle)."""

    def body():
        nodes = sum(type(obj).__name__ == "ParseTreeNode" for obj in gc.get_objects())
        transport.publish_report(0, nodes)
        return
        yield Compute(0.0)  # pragma: no cover — makes this a generator

    return body()


def _send_then_list_threads(transport, sink):
    """A WorkerJob factory: one send, then the worker's thread names as its report."""

    def body():
        transport.send(0, 0, "hello", 5, mailbox=sink)
        transport.publish_report(0, [thread.name for thread in threading.enumerate()])
        return
        yield Compute(0.0)  # pragma: no cover — makes this a generator

    return body()


def _send_a_lock(transport, sink):
    """A WorkerJob factory whose only send cannot be pickled."""

    def body():
        transport.send(0, 0, threading.Lock(), 1, mailbox=sink)
        return
        yield Compute(0.0)  # pragma: no cover — makes this a generator

    return body()


def _flood_peer_then_read(transport, region, own, peer, sink, chunks, chunk_bytes):
    """A WorkerJob factory that owes its peer ``chunks`` large messages, and the
    coordinator one more, before it reads any of what the peer owes it."""

    def body():
        for number in range(chunks):
            transport.send(region, 1 - region, bytes([number]) * chunk_bytes,
                           chunk_bytes, mailbox=peer)
        transport.send(region, 0, bytes([region]) * (1 << 20), 1 << 20, mailbox=sink)
        received = []
        for _ in range(chunks):
            block = yield Receive(own)
            received.append((block[0], len(block)))
        transport.publish_report(region, received)

    return body()


@requires_fork
class TestPooledMessagePlane:
    """The pooled processes substrate: worker records are written by the call that
    makes them, coordinator mailboxes never leave the process, and neither side of
    the dispatcher can be held up by a reader that is busy writing."""

    def _run(self, pool, jobs, coordinator):
        """One session: ``jobs`` maps a name to ``(factory, kwargs builder)``."""
        session = pool.session(len(jobs))
        try:
            boxes = {name: session.mailbox(name) for name in ("sink", "a", "b")}
            for name, (factory, kwargs) in jobs.items():
                session.spawn(WorkerJob(factory=factory, kwargs=kwargs(boxes)), name=name)
            session.spawn(coordinator(boxes), name="coordinator", coordinator=True)
            session.run()
            return session.reports
        finally:
            session.close()

    def test_a_pooled_worker_runs_one_thread(self):
        got = []

        def coordinator(boxes):
            got.append((yield Receive(boxes["sink"])))

        with ProcessesSubstrate(receive_timeout=10) as pool:
            reports = self._run(
                pool,
                {"census": (_send_then_list_threads, lambda boxes: {"sink": boxes["sink"]})},
                coordinator,
            )
        assert got == ["hello"]
        assert reports[0] == ["MainThread"]

    def test_unpicklable_send_fails_the_run_typed_and_promptly(self):
        def coordinator(boxes):
            yield Receive(boxes["sink"])

        started = time.monotonic()
        with ProcessesSubstrate(receive_timeout=30) as pool:
            with pytest.raises(BackendError, match=r"(?s)'tongue-tied'.*cannot pickle"):
                self._run(
                    pool,
                    {"tongue-tied": (_send_a_lock, lambda boxes: {"sink": boxes["sink"]})},
                    coordinator,
                )
            assert pool.pool_size == 1  # the worker reported the error and lives on
        assert time.monotonic() - started < 10  # nowhere near the receive bound

    def test_two_jobs_that_each_owe_the_other_more_than_a_pipe_holds(self):
        chunks, chunk_bytes = 8, 256 * 1024
        from_workers = []

        def coordinator(boxes):
            for _ in range(2):
                block = yield Receive(boxes["sink"])
                from_workers.append((block[0], len(block)))

        def kwargs_for(region, own, peer):
            return lambda boxes: dict(
                region=region, own=boxes[own], peer=boxes[peer], sink=boxes["sink"],
                chunks=chunks, chunk_bytes=chunk_bytes,
            )

        with ProcessesSubstrate(receive_timeout=30) as pool:
            reports = self._run(
                pool,
                {
                    "a": (_flood_peer_then_read, kwargs_for(0, "a", "b")),
                    "b": (_flood_peer_then_read, kwargs_for(1, "b", "a")),
                },
                coordinator,
            )
        expected = [(number, chunk_bytes) for number in range(chunks)]
        assert reports == {0: expected, 1: expected}
        assert sorted(from_workers) == [(0, 1 << 20), (1, 1 << 20)]


class TestBackendRobustness:
    @requires_fork
    def test_idle_pooled_worker_holds_no_region_tree(self, split_grammar, big_expression):
        with ProcessesSubstrate(receive_timeout=10) as pool:
            report = ParallelCompiler(split_grammar).compile_tree(
                big_expression, 1, substrate=pool
            )
            assert report.root_attributes["value"] is not None
            assert pool.pool_size == 1  # the probe lands on the worker that evaluated
            session = pool.session(1)
            try:
                session.spawn(WorkerJob(factory=_tree_census_probe), name="probe")
                session.run()
                assert session.reports[0] == 0
            finally:
                session.close()

    def test_blocked_receive_wakes_promptly_on_failure(self):
        """A parked receiver does not hold a failing run until its bound."""
        import time as time_module

        backend = create_backend("threads", machines=1, receive_timeout=30)
        mailbox = backend.mailbox("never-written")

        def waiting_body():
            yield Receive(mailbox)

        def failing_body():
            raise RuntimeError("boom")
            yield Compute(0.0)  # pragma: no cover — makes this a generator

        backend.spawn(waiting_body(), name="waiter")
        backend.spawn(failing_body(), name="bad-worker")
        started = time_module.monotonic()
        with pytest.raises(BackendError):
            backend.run()
        # Well under the 30s receive bound.
        assert time_module.monotonic() - started < 5

    @pytest.mark.parametrize("kernel", ["simulated", "threads"])
    def test_kernel_surfaces_worker_failure(self, kernel):
        backend = create_backend(kernel, machines=1, receive_timeout=5)

        def failing_body():
            raise RuntimeError("boom")
            yield Compute(0.0)  # pragma: no cover — makes this a generator

        backend.spawn(failing_body(), name="bad-worker")
        with pytest.raises(BackendError, match="bad-worker"):
            backend.run()

    @pytest.mark.parametrize("kernel", ["simulated", "threads"])
    def test_kernel_receive_times_out(self, kernel):
        """The bound is the session's wall clock, checked as a body resumes at a Receive."""
        backend = create_backend(kernel, machines=1, receive_timeout=0.2)
        mailbox = backend.mailbox("late")

        def waiting_body():
            yield Receive(mailbox)

        def slow_sender():
            time.sleep(0.3)  # real work, inline: no other body runs meanwhile
            yield Compute(0.0)
            backend.send(0, 0, "late", 1, mailbox=mailbox)

        backend.spawn(waiting_body(), name="waiter")
        backend.spawn(slow_sender(), name="sender")
        with pytest.raises(BackendError, match="waiter.*timed out"):
            backend.run()

    @pytest.mark.parametrize("kernel", ["simulated", "threads"])
    def test_kernel_deadlock_is_found_not_timed_out(self, kernel):
        backend = create_backend(kernel, machines=1, receive_timeout=60)
        mailbox = backend.mailbox("never-written")

        def waiting_body():
            yield Receive(mailbox)

        backend.spawn(waiting_body(), name="lonely-reader")
        started = time.monotonic()
        with pytest.raises(
            BackendError, match=r"deadlocked.*lonely-reader \(waiting on 'never-written'\)"
        ):
            backend.run()
        assert time.monotonic() - started < 0.5

    @pytest.mark.parametrize("kernel", ["simulated", "threads"])
    def test_kernel_unwinds_parked_bodies_at_deadlock(self, kernel):
        """A body parked when the kernel deadlocks has run its ``finally`` by the raise."""
        backend = create_backend(kernel, machines=1)
        mailbox = backend.mailbox("never-written")
        unwound = []

        def parked_body():
            try:
                yield Receive(mailbox)
            finally:
                unwound.append("parked")

        body = parked_body()  # held here too, so only an explicit unwind runs the finally
        backend.spawn(body, name="parked")
        with pytest.raises(BackendError, match="deadlocked.*parked"):
            backend.run()
        assert unwound == ["parked"]

    def test_threads_compile_starts_no_thread(self, split_grammar, big_expression, monkeypatch):
        """Every body runs on the thread that called run(); none is started."""
        before = threading.active_count()
        caller = threading.get_ident()
        seen = []
        backend = create_backend("threads", machines=1)
        box = backend.mailbox("ping")

        def probe(reader):
            seen.append((threading.get_ident(), threading.active_count()))
            if reader:
                yield Receive(box)
            else:
                yield Compute(0.0)
                backend.send(0, 0, "ping", 1, mailbox=box)
            seen.append((threading.get_ident(), threading.active_count()))

        backend.spawn(probe(True), name="reader")
        backend.spawn(probe(False), name="writer", coordinator=True)
        backend.run()
        assert len(seen) == 4 and all(sample == (caller, before) for sample in seen)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        report = ParallelCompiler(split_grammar).compile_tree(
            big_expression, 3, backend="threads"
        )
        assert report.worker_count == report.decomposition.region_count > 1
        assert started == [] and threading.active_count() == before


def _child_pids():
    """Pids of this process's children, running or zombie (Linux ``/proc``)."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as listing:
                pids.update(int(pid) for pid in listing.read().split())
        except FileNotFoundError:  # the thread exited while we looked
            continue
    return pids


def _pool_threads():
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith(("repro-pool-", "repro-cluster-"))
    }


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


requires_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="reads this process's /proc entries"
)


class TestOneShotLifecycle:
    """A one-shot compile is a private substrate: started, used once, shut down."""

    @requires_fork
    def test_raw_generator_worker_body_is_refused_at_spawn(self):
        backend = create_backend("processes", machines=1, receive_timeout=10)

        def raw_body():
            yield Compute(0.0)

        try:
            with pytest.raises(BackendError, match="WorkerJob"):
                backend.spawn(raw_body(), name="raw")
        finally:
            backend.close()

    @requires_proc
    @pytest.mark.parametrize("caller_closes", [True, False], ids=["close", "no-close"])
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_one_shot_compile_leaves_no_pool_behind(
        self, split_grammar, big_expression, backend, caller_closes
    ):
        from repro.partition.decomposition import plan_decomposition

        compiler = ParallelCompiler(split_grammar)
        expected = compiler.compile_tree(big_expression, 3).root_attributes["value"]
        threads_before, children_before = _pool_threads(), _child_pids()
        if caller_closes:
            report = compiler.compile_tree(big_expression, 3, backend=backend)
        else:
            # Drive the session the way compile_tree does, minus its close():
            # the end of run() alone must take the private substrate down.
            session = create_backend(backend, machines=3)
            report = compiler._compile_on_session(
                session, big_expression, 3, plan_decomposition(big_expression, 3),
                None, 0.0, big_expression.node_count, time.perf_counter(),
            )
        assert report.root_attributes["value"] == expected
        assert report.worker_count == report.decomposition.region_count
        assert _pool_threads() - threads_before == set()
        assert _child_pids() - children_before == set()

    @requires_fork
    @requires_proc
    def test_one_shot_processes_compiles_leave_no_fds_or_threads(self, pascal_setup):
        from repro.api import Compiler
        from repro.faults import FaultPlan, FaultRule, active
        from repro.faults.plan import FaultError

        _, tree = pascal_setup
        engine = Compiler("pascal").engine
        reference = engine.compile_tree(tree, 4, backend="processes").code_text("code")
        fds, threads = _open_fds(), threading.active_count()
        # A started pool holds its wake pipe and, per worker, its two pipe ends and
        # the two the process object keeps: nothing else, whatever the pool has run.
        held = {}
        for workers in (2, 4):
            with ProcessesSubstrate(workers=workers) as pool:
                held[workers] = _open_fds() - fds
                report = engine.compile_tree(tree, 4, substrate=pool)
                assert report.code_text("code") == reference
                assert not [
                    thread.name for thread in threading.enumerate()
                    if thread.name.startswith("QueueFeederThread")
                ]
            # No gc.collect(), no grace period: shutdown() let go of it all.
            assert _open_fds() <= fds
            assert threading.active_count() <= threads
        two_more_workers = held[4] - held[2]
        assert 0 < two_more_workers <= 8
        assert held[2] <= 2 + two_more_workers
        refused = FaultPlan(seed=1, rules=[FaultRule("worker.spawn", action="error")])
        failures = 0
        for attempt in range(10):
            try:
                if attempt == 3:
                    with active(refused, env=False):
                        engine.compile_tree(tree, 4, backend="processes")
                elif attempt == 6:
                    engine.compile_tree(tree, 4, backend="processes", receive_timeout=1e-3)
                else:
                    report = engine.compile_tree(tree, 4, backend="processes")
                    assert report.code_text("code") == reference
            except (BackendError, FaultError):
                failures += 1
        assert failures >= 1
        # No gc.collect(): shutting the private pool down must free its pipes,
        # dispatcher thread and worker sentinels by itself.
        patience = time.monotonic() + 2.0
        while (_open_fds(), threading.active_count()) > (fds, threads):
            if time.monotonic() >= patience:
                break
            time.sleep(0.02)
        assert _open_fds() <= fds
        assert threading.active_count() <= threads

    def test_one_shot_simulated_report_is_bit_identical(self, pascal_setup):
        import hashlib

        from repro.api import Compiler

        _, tree = pascal_setup
        report = Compiler("pascal", machines=4).compile_tree(tree).report
        digest = hashlib.sha256()
        for machine, intervals in sorted(report.timeline.items()):
            for interval in intervals:
                digest.update(
                    f"{machine}|{interval.start.hex()}|{interval.end.hex()}|"
                    f"{interval.kind.value}|{interval.label}\n".encode()
                )
        # A one-shot simulated compile is a kernel session on a fresh modelled cluster;
        # its finish time and Figure 6 timeline are pinned to the last bit.
        assert report.evaluation_time.hex() == "0x1.f00965da4f6c7p-1"
        assert report.network_busy_time.hex() == "0x1.fb465cdba3296p-5"
        assert (report.network_messages, report.network_bytes) == (17, 76316)
        assert sum(len(intervals) for intervals in report.timeline.values()) == 65
        assert digest.hexdigest() == (
            "fdf9fc11c18e43257cc17744f4bc00af2ad5423cc2a82fa7718ff336d7cfaa8b"
        )


@requires_fork
class TestPreparedPool:
    """A compiler bound to a ``processes`` pool builds its evaluator code once, in the
    driving process, and the workers forked afterwards inherit it with the bundle."""

    def test_workers_forked_after_binding_inherit_bundle_and_compiled_code(self):
        from repro.analysis import plan_compiler
        from repro.api import Session
        from repro.pascal.programs import generate_program

        source = generate_program(procedures=6, statements_per_procedure=2)
        with Session(backend="processes", machines=4) as session:
            pool = session.substrate
            pickled = []
            ship = pool._bundles.blob
            pool._bundles.blob = lambda key: pickled.append(key) or ship(key)
            compiler = session.compiler("pascal")
            engine = compiler.engine
            assert engine.grammar in plan_compiler._rules_cache
            assert plan_compiler._segments_cache[engine.grammar][0]() is engine.plan
            result = compiler.compile(source)
        assert result.ok and result.report.worker_count > 1
        assert pickled == []
        with Session(backend="threads", machines=4) as session:
            assert session.compile("pascal", source).value == result.value

    def test_service_binds_each_engine_before_its_first_job(self, monkeypatch):
        """The evaluator code is built in the driving process, where every worker
        forked for the job inherits it, and no bundle is pickled."""
        import weakref

        from repro.analysis import plan_compiler
        from repro.pascal.programs import generate_program
        from repro.service import CompilationJob, CompilationService

        # Empty caches, so that only a build in this process can fill them.
        monkeypatch.setattr(plan_compiler, "_rules_cache", weakref.WeakKeyDictionary())
        monkeypatch.setattr(plan_compiler, "_segments_cache", weakref.WeakKeyDictionary())
        source = generate_program(procedures=6, statements_per_procedure=2)
        job = CompilationJob(language="pascal", source=source, machines=4)
        with CompilationService("processes") as service:
            pool = service.substrate
            pickled = []
            ship = pool._bundles.blob
            pool._bundles.blob = lambda key: pickled.append(key) or ship(key)
            report = service.submit(job).result()
        assert report.worker_count > 1
        assert pickled == []
        assert len(plan_compiler._rules_cache) == 1
        assert len(plan_compiler._segments_cache) == 1
        with CompilationService("threads") as service:
            reference = service.submit(job).result()
        assert report.code_text("code") == reference.code_text("code")
