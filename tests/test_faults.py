"""Chaos tests: the fault-injection plane, the resilience layer, the invariant.

The chaos invariant, verified cell by cell over ``fault class x substrate``:
under any injected fault the compile either returns the **byte-identical**
result of a fault-free run or raises a **typed** error (:class:`FaultError`,
:class:`BackendError`, :class:`DeadlineExceeded`) within its deadline — never a
hang, never a silent wrong answer, never a leaked worker (the autouse conftest
fixture checks for leftover child processes after every cell).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import faults
from repro.backends import BackendError, ProcessesSubstrate, create_substrate
from repro.backends.base import Receive, WorkerJob
from repro.distributed.compiler import ParallelCompiler
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.faults import FaultError, FaultPlan, FaultRule
from repro.incremental.cache import ArtifactCache
from repro.incremental.engine import IncrementalCompiler
from repro.resilience import (
    CancelledCompilation,
    CancelToken,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.service import CompilationJob, CompilationService

TIMEOUT = 20.0


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


requires_fork = pytest.mark.skipif(
    not _fork_available(), reason="processes backend requires the fork start method"
)


def _running(pid: int) -> bool:
    """Is ``pid`` a process that can still run (neither gone nor a zombie)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture(autouse=True)
def no_plan_leaks():
    """A test must never leak its fault plan into the next one."""
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def split_grammar():
    return expression_grammar(min_split_size=60)


@pytest.fixture(scope="module")
def chaos_tree(split_grammar):
    source = random_expression_source(300, seed=11, nesting=6)
    return parse_expression(source, split_grammar)


@pytest.fixture(scope="module")
def expected_value(split_grammar, chaos_tree):
    """The fault-free answer (simulated substrate: deterministic, no plan)."""
    report = ParallelCompiler(split_grammar).compile_tree(chaos_tree, 3)
    return report.root_attributes["value"]


# ------------------------------------------------------------------- unit: plan


class TestFaultPlan:
    def test_rule_fires_deterministically_per_opportunity(self):
        for _ in range(3):  # same seed, same rules: same firing pattern
            plan = FaultPlan(seed=5, rules=[
                FaultRule("p", action="drop", probability=0.5, times=None)
            ])
            fired = [plan.check("p") is not None for _ in range(40)]
            plan2 = FaultPlan(seed=5, rules=[
                FaultRule("p", action="drop", probability=0.5, times=None)
            ])
            assert fired == [plan2.check("p") is not None for _ in range(40)]
            assert any(fired) and not all(fired)

    def test_after_and_times_window(self):
        plan = FaultPlan(rules=[FaultRule("p", times=2, after=3)])
        hits = [plan.check("p") is not None for _ in range(8)]
        assert hits == [False, False, False, True, True, False, False, False]
        assert plan.injected == 2

    def test_match_narrows_to_one_channel(self):
        plan = FaultPlan(rules=[FaultRule("p", match="evaluator-1", times=None)])
        assert plan.check("p", "evaluator-0:inbox") is None
        assert plan.check("p", "evaluator-1:inbox") is not None

    def test_unknown_point_is_never_hit(self):
        plan = FaultPlan(rules=[FaultRule("p")])
        assert plan.check("q") is None and plan.injected == 0

    def test_encode_decode_resets_runtime_counters(self):
        plan = FaultPlan(seed=3, rules=[FaultRule("p", times=1)])
        assert plan.check("p") is not None
        assert plan.check("p") is None  # spent
        shipped = FaultPlan.decode(plan.encode())
        assert shipped.seed == 3 and shipped.rules == plan.rules
        assert shipped.check("p") is not None  # counters start fresh per process

    def test_install_ships_via_environment(self):
        plan = FaultPlan(seed=9, rules=[FaultRule("p")])
        try:
            faults.install(plan)
            assert os.environ[faults.ENV_VAR]
            adopted = faults.load_from_env()
            assert adopted is not None and adopted.seed == 9
        finally:
            faults.uninstall()
        assert faults.ENV_VAR not in os.environ

    def test_corrupt_env_token_disables_injection(self):
        os.environ[faults.ENV_VAR] = "not-a-plan"
        try:
            assert faults.load_from_env() is None
        finally:
            faults.uninstall()

    def test_fault_error_is_typed(self):
        error = FaultError("mailbox.send", "drop", "evaluator-0")
        assert error.point == "mailbox.send" and error.action == "drop"
        assert "mailbox.send" in str(error)

    def test_no_plan_is_a_no_op(self):
        assert faults.plan.ACTIVE is None
        assert faults.check("mailbox.send") is None


# ------------------------------------------------------------- unit: resilience


class TestRetryPolicy:
    def test_exponential_schedule_with_cap(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0,
                             max_delay=0.5)
        assert [policy.delay(n) for n in policy.attempts()] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]
        )

    def test_jitter_is_deterministic_and_bounded(self):
        one = RetryPolicy(base_delay=1.0, jitter=0.3, seed=4)
        two = RetryPolicy(base_delay=1.0, jitter=0.3, seed=4)
        factors = set()
        for attempt in (1, 2, 3):
            assert one.delay(attempt) == two.delay(attempt)
            factor = one._jitter_factor(attempt)
            assert 0.7 <= factor <= 1.3
            factors.add(factor)
        assert len(factors) > 1  # jitter actually varies across attempts

    def test_call_retries_then_reraises_last_error(self):
        sleeps, calls = [], []

        def flaky():
            calls.append(1)
            raise FaultError("p", "error")

        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        with pytest.raises(FaultError):
            policy.call(flaky, retry_on=(FaultError,), sleep=sleeps.append)
        assert len(calls) == 3 and len(sleeps) == 2

    def test_call_succeeds_after_transient_failure(self):
        attempts = []

        def transient():
            attempts.append(1)
            if len(attempts) < 3:
                raise FaultError("p")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        assert policy.call(transient, retry_on=(FaultError,)) == "ok"
        assert len(attempts) == 3

    def test_call_never_outlives_its_deadline(self):
        deadline = Deadline(time.monotonic() - 1.0)  # already expired
        with pytest.raises(DeadlineExceeded):
            RetryPolicy().call(lambda: 1, deadline=deadline)


class TestDeadlineAndCancel:
    def test_bound_only_ever_shrinks_a_timeout(self):
        deadline = Deadline.after(10.0)
        assert deadline.bound(2.0) == pytest.approx(2.0, abs=0.1)
        assert deadline.bound(60.0) == pytest.approx(10.0, abs=0.1)
        assert deadline.bound() == pytest.approx(10.0, abs=0.1)

    def test_expired_deadline_raises_typed(self):
        deadline = Deadline.after(0.0, label="test")
        assert deadline.expired and deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="test"):
            deadline.check("thing")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_cancel_token_is_cooperative(self):
        token = CancelToken()
        token.check()  # not cancelled: no-op
        token.cancel("caller gave up")
        assert token.cancelled
        with pytest.raises(CancelledCompilation, match="caller gave up"):
            token.check()


# ------------------------------------------------------------------ chaos matrix

#: One fault-plan factory per fault class.  A point a substrate never reaches
#: simply never fires there — the compile then *must* be byte-identical, which
#: the invariant checks; targeted per-class assertions live in the tests below.
FAULT_RULES = {
    "message-drop": lambda: [FaultRule("mailbox.send", action="drop",
                                       times=1, after=2)],
    "wire-corrupt": lambda: [FaultRule("wire.send", action="corrupt",
                                       times=1, after=2)],
    "worker-crash": lambda: [FaultRule("worker.crash", action="crash",
                                       times=1, after=0)],
    "cache-poison": lambda: [FaultRule("cache.get", action="poison", times=1)],
    "deadline-expiry": lambda: [],
}

SUBSTRATES = [
    "simulated",
    "threads",
    pytest.param("processes", marks=requires_fork),
    "sockets",
]

#: Typed failures the invariant accepts instead of a byte-identical result.
TYPED_FAILURES = (FaultError, BackendError, DeadlineExceeded)


class TestChaosMatrix:
    @pytest.mark.parametrize("substrate_name", SUBSTRATES)
    @pytest.mark.parametrize("fault_class", sorted(FAULT_RULES))
    def test_invariant(self, split_grammar, chaos_tree, expected_value,
                       substrate_name, fault_class):
        plan = FaultPlan(seed=42, rules=FAULT_RULES[fault_class]())
        compiler = ParallelCompiler(split_grammar)
        # A dropped message surfaces as a receive timeout: keep that bound
        # short so the typed failure arrives well inside the cell's budget.
        receive_timeout = 3.0 if fault_class == "message-drop" else TIMEOUT
        with create_substrate(substrate_name, receive_timeout=receive_timeout) as pool:
            if fault_class == "deadline-expiry":
                self._deadline_cell(pool)
                return
            if fault_class == "cache-poison":
                self._cache_poison_cell(compiler, chaos_tree, expected_value,
                                        pool, plan)
                return
            try:
                with faults.active(plan):
                    report = compiler.compile_tree(chaos_tree, 3, substrate=pool)
            except TYPED_FAILURES:
                return  # a typed, deadline-bounded failure satisfies the invariant
            assert report.root_attributes["value"] == expected_value

    @staticmethod
    def _deadline_cell(pool):
        """An expired budget is a typed DeadlineExceeded on every substrate."""
        service = CompilationService(pool)
        service.start()
        try:
            job = CompilationJob(language="exprlang",
                                 source="let x = 3 in 1 + 2 * x ni", machines=2)
            future = service.submit(job, deadline=Deadline.after(0.0, label="cell"))
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=TIMEOUT)
            assert service.stats().deadline_misses >= 1
        finally:
            service.close()

    @staticmethod
    def _cache_poison_cell(compiler, tree, expected_value, pool, plan):
        """A poisoned artifact is detected, re-evaluated, and never believed."""
        cache = ArtifactCache()
        incremental = IncrementalCompiler(compiler, cache)
        warm, _ = incremental.compile_tree(tree, 3, substrate=pool)
        assert warm.root_attributes["value"] == expected_value
        with faults.active(plan):
            report, inc_report = incremental.compile_tree(tree, 3, substrate=pool)
        assert report.root_attributes["value"] == expected_value
        assert plan.injected >= 1  # the poison was actually served...
        assert inc_report.regions_evaluated >= 1  # ...and recompiled around


# ------------------------------------------------------- targeted: crash-proofing


def _collector_probe(transport, marker=None):
    """A WorkerJob factory reporting its worker's collector state (must pickle).

    With a ``marker`` path the first worker to run the job SIGKILLs itself, so the
    report that comes back was made by the replacement forked to replay it.
    """

    def body():
        if marker is not None and not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        transport.publish_report(
            0, (os.getpid(), gc.get_freeze_count(), gc.isenabled())
        )
        return
        yield  # pragma: no cover — makes this a generator

    return body()


def _cut_own_stream_once(transport, marker, sink):
    """A WorkerJob factory whose first incarnation is killed half-way through
    writing a record: a frame header promising 1000 bytes, 500 of them, SIGKILL.
    ``marker`` tells the replay (a fresh process, same spec) not to do it again."""

    def body():
        transport.send(0, 0, "before", 6, mailbox=sink)
        if not os.path.exists(marker):
            open(marker, "w").close()
            os.write(transport._records.fileno(), struct.pack("!i", 1000) + b"x" * 500)
            os.kill(os.getpid(), signal.SIGKILL)
        transport.send(0, 0, "after", 5, mailbox=sink)
        transport.publish_report(0, os.getpid())
        return
        yield  # pragma: no cover — makes this a generator

    return body()


def _echo_own_mailbox(transport, own, sink):
    """A WorkerJob factory: wait for one message, pass it on, report the pid."""

    def body():
        message = yield Receive(own)
        transport.send(1, 0, ("echo", message), 1, mailbox=sink)
        transport.publish_report(1, os.getpid())

    return body()


#: What ``test_workers_die_with_a_sigkilled_parent`` runs and then kills.
_DRIVER = """
import json, sys, time
from repro import Session
from repro.pascal import generate_program

source = generate_program(procedures=40, statements_per_procedure=6, seed=5)
session = Session(backend="processes", machines=2).start()
compiler = session.compiler("pascal")
assert compiler.compile(source).ok
pool = session._substrate
print(json.dumps([worker.process.pid for worker in pool._workers]), flush=True)
while sys.argv[1] == "mid-compile":
    compiler.compile(source)
time.sleep(60)
"""


@requires_fork
class TestProcessesCrashRecovery:
    def test_pooled_and_replacement_workers_keep_the_collector_off_the_job(
        self, tmp_path
    ):
        def probe(pool, **kwargs):
            session = pool.session(1)
            try:
                session.spawn(
                    WorkerJob(factory=_collector_probe, kwargs=kwargs), name="probe"
                )
                session.run()
                return session.reports[0]
            finally:
                session.close()

        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            pid, frozen, enabled = probe(pool)
            assert frozen > 0 and enabled is False
            # Same worker, next job: the between-jobs collection left both as is.
            again_pid, frozen, enabled = probe(pool)
            assert again_pid == pid and frozen > 0 and enabled is False
            new_pid, frozen, enabled = probe(pool, marker=str(tmp_path / "killed"))
            assert pool.respawns == 1 and new_pid != pid
            assert frozen > 0 and enabled is False

    def test_injected_crash_is_respawned_and_result_identical(
        self, split_grammar, chaos_tree, expected_value
    ):
        # after=0: every child's first blocking receive crashes it (counters
        # are per-process), so all in-flight jobs exercise recovery at once.
        plan = FaultPlan(seed=42, rules=[
            FaultRule("worker.crash", action="crash", times=1, after=0)
        ])
        compiler = ParallelCompiler(split_grammar)
        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            with faults.active(plan):
                report = compiler.compile_tree(chaos_tree, 3, substrate=pool)
            assert report.root_attributes["value"] == expected_value
            assert pool.respawns >= 1
            # The pool stays healthy: a fault-free compile still works on it.
            again = compiler.compile_tree(chaos_tree, 3, substrate=pool)
            assert again.root_attributes["value"] == expected_value

    def test_sigkilled_worker_is_respawned_and_result_identical(
        self, split_grammar, chaos_tree, expected_value
    ):
        # Receive delays (shipped to the children via the environment) stretch
        # the in-flight window so the SIGKILL below reliably lands mid-job.
        plan = FaultPlan(seed=7, rules=[
            FaultRule("mailbox.receive", action="delay", delay=0.1,
                      times=30, after=0)
        ])
        compiler = ParallelCompiler(split_grammar)
        outcome = {}

        def run(pool):
            try:
                outcome["report"] = compiler.compile_tree(
                    chaos_tree, 3, substrate=pool
                )
            except BaseException as error:  # noqa: BLE001 — surfaced below
                outcome["error"] = error

        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            with faults.active(plan):
                thread = threading.Thread(target=run, args=(pool,))
                thread.start()
                victim_pid = None
                patience = time.monotonic() + 10.0
                while victim_pid is None and time.monotonic() < patience:
                    with pool._lock:
                        for worker in pool._workers:
                            if worker.attempts and worker.process.is_alive():
                                victim_pid = worker.process.pid
                                break
                    time.sleep(0.005)
                assert victim_pid is not None, "no worker ever went in flight"
                os.kill(victim_pid, signal.SIGKILL)
                thread.join(timeout=TIMEOUT)
            assert not thread.is_alive(), "compile hung after SIGKILL"
            if "error" in outcome:
                raise AssertionError(
                    f"SIGKILLed worker failed the compile: {outcome['error']!r}"
                )
            assert outcome["report"].root_attributes["value"] == expected_value
            assert pool.respawns >= 1

    def test_stream_cut_mid_frame_is_that_workers_death_and_nobody_elses(self, tmp_path):
        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            session = pool.session(2)
            try:
                sink = session.mailbox("sink")
                bystander_box = session.mailbox("bystander")
                heard = []

                def coordinator():
                    heard.append((yield Receive(sink)))
                    heard.append((yield Receive(sink)))
                    # Only now is the bystander, asleep on its mailbox since before
                    # the death, given something to do.
                    session.send(0, 1, "still here?", 1, mailbox=bystander_box)
                    heard.append((yield Receive(sink)))

                session.spawn(
                    WorkerJob(
                        factory=_cut_own_stream_once,
                        kwargs=dict(marker=str(tmp_path / "cut"), sink=sink),
                    ),
                    name="victim",
                )
                session.spawn(
                    WorkerJob(
                        factory=_echo_own_mailbox,
                        kwargs=dict(own=bystander_box, sink=sink),
                    ),
                    name="bystander",
                )
                session.spawn(coordinator(), name="coordinator", coordinator=True)
                session.run()
                # Each message exactly once, in order: the replay's second "before"
                # fell under the watermark the first incarnation had already raised.
                assert heard == ["before", "after", ("echo", "still here?")]
                assert pool.respawns == 1 and session.replays == 1
                finished_by = session.reports
            finally:
                session.close()
            # The replacement finished the victim's job; the bystander's worker is
            # the one it started on.
            alive = {worker.process.pid for worker in pool._workers}
            assert alive == {finished_by[0], finished_by[1]}

    @pytest.mark.parametrize("moment", ["idle", "mid-compile"])
    def test_workers_die_with_a_sigkilled_parent(self, moment, tmp_path):
        """No pool worker may outlive the process that forked it — not asleep on its
        job pipe, not in the middle of an evaluation, not waiting on a mailbox."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + [entry for entry in [environment.get("PYTHONPATH")] if entry]
        )
        driver = subprocess.Popen(
            [sys.executable, "-c", _DRIVER, moment],
            stdout=subprocess.PIPE, text=True, env=environment,
        )
        try:
            pids = json.loads(driver.stdout.readline())
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
            time.sleep(0.3)  # idle: asleep on the job pipe; mid-compile: anywhere
        finally:
            driver.kill()
            driver.wait()
            driver.stdout.close()
        killed = time.monotonic()
        try:
            while any(_running(pid) for pid in pids):
                assert time.monotonic() - killed < 2.0, (
                    f"pool workers {[pid for pid in pids if _running(pid)]} "
                    "outlived their SIGKILLed parent"
                )
                time.sleep(0.01)
        finally:
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_spawn_fault_is_a_typed_failure_not_a_hang(
        self, split_grammar, chaos_tree
    ):
        # Every fork refused: the compile must fail typed, promptly, and leave
        # the pool shut-downable.  env=False — this is a parent-side fault.
        plan = FaultPlan(seed=1, rules=[
            FaultRule("worker.spawn", action="error", times=None)
        ])
        compiler = ParallelCompiler(split_grammar)
        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            with faults.active(plan, env=False):
                with pytest.raises((BackendError, FaultError)):
                    compiler.compile_tree(chaos_tree, 3, substrate=pool)


# ------------------------------------------------------------- disabled-plane


class TestDisabledPlane:
    def test_results_identical_with_and_without_empty_plan(
        self, split_grammar, chaos_tree, expected_value
    ):
        compiler = ParallelCompiler(split_grammar)
        bare = compiler.compile_tree(chaos_tree, 3, backend="threads")
        with faults.active(FaultPlan(seed=0, rules=())):
            planned = compiler.compile_tree(chaos_tree, 3, backend="threads")
        assert bare.root_attributes["value"] == expected_value
        assert planned.root_attributes["value"] == expected_value

    def test_uninstall_restores_the_no_op_plane(self):
        faults.install(FaultPlan(rules=[FaultRule("p")]))
        faults.uninstall()
        assert faults.plan.ACTIVE is None
        assert os.environ.get(faults.ENV_VAR) is None


# -------------------------------------------------------- service: deadline/cancel


class TestServiceResilience:
    def test_generous_deadline_does_not_change_the_answer(self):
        service = CompilationService("threads")
        service.start()
        try:
            job = CompilationJob(language="exprlang",
                                 source="let x = 3 in 1 + 2 * x ni", machines=2)
            plain = service.submit(job).result(timeout=TIMEOUT)
            bounded = service.submit(
                job, deadline=Deadline.after(TIMEOUT)
            ).result(timeout=TIMEOUT)
            assert bounded.root_attributes == plain.root_attributes
            assert service.stats().deadline_misses == 0
        finally:
            service.close()

    def test_cancel_token_stops_a_queued_job(self):
        service = CompilationService("threads", max_in_flight=1)
        service.start()
        try:
            source = random_expression_source(200, seed=3, nesting=5)
            blocker = service.submit(
                CompilationJob(language="exprlang", source=source, machines=2)
            )
            victim = service.submit(
                CompilationJob(language="exprlang", source=source + " ",
                               machines=2)
            )
            victim.cancel_token.cancel("test gave up")
            with pytest.raises(CancelledCompilation):
                victim.result(timeout=TIMEOUT)
            blocker.result(timeout=TIMEOUT)  # the other job is unaffected
        finally:
            service.close()
