"""Tests for the pooled substrates and the compilation service layer.

Covers the substrate/session split (persistent worker pools reused across
compilations), the service API (futures, batches, stats), output parity between the
pooled and one-shot paths on every backend, concurrent jobs in flight on one pool,
and teardown on failure (a failing compilation must not leak workers or poison the
pool for later jobs).
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.api import Compiler
from repro.backends import (
    BACKEND_NAMES,
    BackendError,
    ProcessesSubstrate,
    ThreadsSubstrate,
    create_substrate,
)
from repro.backends.base import Compute, Receive, WorkerJob
from repro.distributed.compiler import ParallelCompiler
from repro.exprlang import (
    evaluate_expression,
    parse_expression,
    random_expression_source,
)
from repro.exprlang.grammar import expression_grammar
from repro.service import CompilationJob, CompilationService, ServiceError


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


requires_fork = pytest.mark.skipif(
    not _fork_available(), reason="processes substrate requires the fork start method"
)

REAL_SUBSTRATES = ["threads", pytest.param("processes", marks=requires_fork)]
ALL_SUBSTRATES = ["simulated"] + REAL_SUBSTRATES

#: Fast receive bound for tests: failures surface in seconds, not minutes.
TIMEOUT = 20.0


@pytest.fixture(scope="module")
def split_grammar():
    return expression_grammar(min_split_size=60)


@pytest.fixture(scope="module")
def expr_compiler(split_grammar):
    return ParallelCompiler(split_grammar)


@pytest.fixture(scope="module")
def big_tree(split_grammar):
    source = random_expression_source(220, seed=7, nesting=6)
    return parse_expression(source, split_grammar)


@pytest.fixture(scope="module")
def reference_report(expr_compiler, big_tree):
    """One-shot simulated compilation of the shared tree (the parity baseline)."""
    return expr_compiler.compile_tree(big_tree, 3)


# ------------------------------------------------------------------- substrates


class TestSubstrateFactory:
    def test_known_names(self):
        for name in BACKEND_NAMES:
            if name == "processes" and not _fork_available():
                continue
            substrate = create_substrate(name)
            assert substrate.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_substrate("quantum")

    def test_sessions_require_started_threads_pool(self):
        substrate = ThreadsSubstrate()
        session = substrate.session(2)  # session() starts the pool implicitly
        assert session.name == "threads"
        substrate.shutdown()
        with pytest.raises(BackendError):
            substrate.session(2)


class TestPoolReuse:
    """Back-to-back compilations on one substrate stay independently reproducible."""

    @pytest.mark.parametrize("name", ALL_SUBSTRATES)
    def test_back_to_back_runs_match_one_shot(
        self, name, expr_compiler, big_tree, reference_report
    ):
        with create_substrate(name, receive_timeout=TIMEOUT) as pool:
            first = expr_compiler.compile_tree(big_tree, 3, substrate=pool)
            second = expr_compiler.compile_tree(big_tree, 3, substrate=pool)
        expected = reference_report.root_attributes["value"]
        assert first.root_attributes["value"] == expected
        assert second.root_attributes["value"] == expected
        assert pool.sessions_opened == 2

    @pytest.mark.parametrize("name", [pytest.param("processes", marks=requires_fork)])
    def test_pool_workers_survive_across_compilations(
        self, name, expr_compiler, big_tree
    ):
        with create_substrate(name, receive_timeout=TIMEOUT) as pool:
            expr_compiler.compile_tree(big_tree, 3, substrate=pool)
            size_after_first = pool.pool_size
            expr_compiler.compile_tree(big_tree, 3, substrate=pool)
            assert pool.pool_size == size_after_first > 0

    @requires_fork
    def test_pascal_pool_reuse_byte_identical(self):
        from repro.pascal import PascalCompiler, generate_program

        compiler = PascalCompiler()
        source = generate_program(procedures=8, statements_per_procedure=3, seed=3)
        tree = compiler.parse(source)
        reference = Compiler("pascal", machines=4).compile_tree(tree).report
        with create_substrate("processes", receive_timeout=TIMEOUT) as pool:
            pooled = Compiler("pascal", machines=4, substrate=pool)
            first = pooled.compile_tree(tree).report
            second = pooled.compile_tree(tree).report
        assert first.code_text("code") == reference.code_text("code")
        assert second.code_text("code") == reference.code_text("code")

    def test_exprlang_thin_client(self):
        with create_substrate("threads", receive_timeout=TIMEOUT) as pool:
            value = Compiler("exprlang", evaluator="combined", substrate=pool).compile(
                "let x = 3 in 1 + 2 * x ni"
            ).value
        assert value == 7


# ---------------------------------------------------------------------- service


class TestServiceParity:
    """Batched service output must match the one-shot path on every backend."""

    @pytest.mark.parametrize("name", ALL_SUBSTRATES)
    def test_batched_matches_one_shot(
        self, name, expr_compiler, big_tree, reference_report
    ):
        with CompilationService(
            name, max_in_flight=3, receive_timeout=TIMEOUT
        ) as service:
            jobs = [
                CompilationJob(expr_compiler, tree=big_tree, machines=3, label=f"j{i}")
                for i in range(3)
            ]
            reports = service.compile_many(jobs)
        expected = reference_report.root_attributes["value"]
        assert [r.root_attributes["value"] for r in reports] == [expected] * 3
        assert {r.backend for r in reports} == {name}

    def test_parse_inside_service(self, split_grammar, expr_compiler):
        source = random_expression_source(80, seed=3, nesting=4)
        expected = evaluate_expression(source, grammar=split_grammar)
        with CompilationService("threads", receive_timeout=TIMEOUT) as service:
            future = service.submit(
                CompilationJob(
                    expr_compiler,
                    source=source,
                    parse=lambda text: parse_expression(text, split_grammar),
                    machines=2,
                )
            )
            assert future.result().root_attributes["value"] == expected


class TestConcurrentSubmit:
    def test_many_jobs_in_flight_on_one_pool(self, split_grammar, expr_compiler):
        sources = [
            random_expression_source(150, seed=seed, nesting=5) for seed in range(12)
        ]
        expected = [evaluate_expression(s, grammar=split_grammar) for s in sources]
        trees = [parse_expression(s, split_grammar) for s in sources]
        with CompilationService(
            "threads", max_in_flight=6, receive_timeout=TIMEOUT
        ) as service:
            futures = [
                service.submit(CompilationJob(expr_compiler, tree=tree, machines=3))
                for tree in trees
            ]
            values = [f.result().root_attributes["value"] for f in futures]
            stats = service.stats()
        assert values == expected
        assert stats.jobs_completed == 12
        assert stats.jobs_failed == 0
        assert stats.jobs_in_flight == 0
        assert stats.sessions_opened == 12

    @requires_fork
    def test_concurrent_jobs_on_process_pool(self, split_grammar, expr_compiler):
        sources = [
            random_expression_source(150, seed=seed, nesting=5) for seed in range(6)
        ]
        expected = [evaluate_expression(s, grammar=split_grammar) for s in sources]
        trees = [parse_expression(s, split_grammar) for s in sources]
        with CompilationService(
            "processes", max_in_flight=3, receive_timeout=TIMEOUT
        ) as service:
            futures = [
                service.submit(CompilationJob(expr_compiler, tree=tree, machines=3))
                for tree in trees
            ]
            values = [f.result().root_attributes["value"] for f in futures]
        assert values == expected


class TestServiceStats:
    def test_throughput_and_latency_percentiles(self, expr_compiler, big_tree):
        with CompilationService("simulated", max_in_flight=2) as service:
            service.compile_many(
                [CompilationJob(expr_compiler, tree=big_tree, machines=2)] * 4
            )
            stats = service.stats()
        assert stats.jobs_submitted == stats.jobs_completed == 4
        assert stats.throughput > 0
        assert 0 < stats.latency_p50 <= stats.latency_p95
        assert stats.latency_mean > 0
        assert "compiles/s" in stats.summary()

    def test_lifecycle_misuse(self, expr_compiler, big_tree):
        service = CompilationService("simulated")
        service.start()
        service.shutdown()
        with pytest.raises(ServiceError):
            service.submit(CompilationJob(expr_compiler, tree=big_tree))
        service.shutdown()  # idempotent

    def test_submit_after_close_is_a_clear_runtime_error(
        self, expr_compiler, big_tree
    ):
        # Regression: this used to surface as a deep substrate failure (or a
        # vaguely-worded ServiceError); now it is a plain "service is closed",
        # and catchable as RuntimeError without importing repro.service.
        service = CompilationService("simulated")
        service.start()
        service.close()  # the alias shutdown() gained alongside the server
        with pytest.raises(RuntimeError, match="service is closed"):
            service.submit(CompilationJob(expr_compiler, tree=big_tree))
        with pytest.raises(RuntimeError, match="service is closed"):
            service.start()
        service.close()  # idempotent, like shutdown()

    def test_stats_to_dict_is_json_round_trippable(self, expr_compiler, big_tree):
        with CompilationService("simulated", max_in_flight=2) as service:
            service.compile_many(
                [CompilationJob(expr_compiler, tree=big_tree, machines=2)] * 3
            )
            service.note_coalesced(2)
            service.note_queued()
            service.note_rejected()
            stats = service.stats()
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["jobs_completed"] == 3
        assert payload["jobs_coalesced"] == 2
        assert payload["jobs_queued"] == 1
        assert payload["jobs_rejected"] == 1
        assert payload["latency_p50"] > 0
        # The duck-typed cluster counters ride along even off-cluster, and the
        # derived hit rate is materialised so consumers need no arithmetic.
        for key in ("cluster_workers", "cluster_reassignments",
                    "cluster_speculations", "region_cache_hit_rate"):
            assert key in payload
        assert "front door" in stats.summary()

    def test_job_without_tree_or_source(self, expr_compiler):
        with CompilationService("simulated") as service:
            future = service.submit(CompilationJob(expr_compiler))
            with pytest.raises(ServiceError):
                future.result()
            assert service.stats().jobs_failed == 1


# ----------------------------------------------------------- teardown on failure


class TestServiceArtifactCache:
    """Content-addressed region reuse across service jobs (and its counters)."""

    def _program(self):
        from repro.pascal.programs import generate_program

        return generate_program(procedures=10, statements_per_procedure=4, seed=5)

    def test_repeat_submissions_hit_the_region_cache(self):
        source = self._program()
        with CompilationService(
            "threads", receive_timeout=TIMEOUT, artifact_cache=True
        ) as service:
            first = service.submit(
                CompilationJob(language="pascal", source=source, machines=4)
            ).result()
            second = service.submit(
                CompilationJob(language="pascal", source=source, machines=4)
            ).result()
            stats = service.stats()
        # Results are byte-identical; the second job replayed every non-root region.
        assert first.code_text() == second.code_text()
        assert first.region_cache_hits == 0
        assert second.region_cache_hits > 0
        assert second.region_cache_misses >= 1   # the root region always re-runs
        assert stats.region_cache_hits == second.region_cache_hits
        assert stats.region_cache_misses == (
            first.region_cache_misses + second.region_cache_misses
        )
        assert 0.0 < stats.region_cache_hit_rate < 1.0
        assert "region cache" in stats.summary()
        assert "hit rate" in stats.summary()

    def test_cache_off_keeps_counters_zero_and_summary_clean(self):
        source = self._program()
        with CompilationService("threads", receive_timeout=TIMEOUT) as service:
            report = service.submit(
                CompilationJob(language="pascal", source=source, machines=4)
            ).result()
            stats = service.stats()
        assert report.region_cache_hits == 0
        assert report.region_cache_misses == 0
        assert stats.region_cache_hits == 0
        assert stats.region_cache_misses == 0
        assert stats.region_cache_hit_rate == 0.0
        assert "region cache" not in stats.summary()

    def test_cached_results_match_uncached(self):
        source = self._program()
        with CompilationService("threads", receive_timeout=TIMEOUT) as plain:
            reference = plain.submit(
                CompilationJob(language="pascal", source=source, machines=4)
            ).result()
        with CompilationService(
            "threads", receive_timeout=TIMEOUT, artifact_cache=True
        ) as cached:
            jobs = [
                CompilationJob(language="pascal", source=source, machines=4)
                for _ in range(3)
            ]
            reports = cached.compile_many(jobs)
        for report in reports:
            assert report.code_text() == reference.code_text()
            assert report.root_attributes.get("errs") == reference.root_attributes.get(
                "errs"
            )

    def test_shared_cache_instance_is_borrowed(self):
        from repro.incremental import ArtifactCache

        cache = ArtifactCache()
        source = self._program()
        with CompilationService(
            "threads", receive_timeout=TIMEOUT, artifact_cache=cache
        ) as service:
            service.submit(
                CompilationJob(language="pascal", source=source, machines=4)
            ).result()
        assert len(cache) > 0  # artifacts landed in the caller's cache


def _failing_worker_body(transport, **kwargs):
    """A WorkerJob factory whose body dies immediately (module-level: must pickle)."""

    def body():
        raise RuntimeError("boom")
        yield  # pragma: no cover — makes this a generator

    return body()


def _read_last_mailbox(transport, boxes):
    """A WorkerJob factory: one read on the last of ``boxes``, reported as it came."""

    def body():
        transport.publish_report(0, (yield Receive(boxes[-1])))

    return body()


class TestFailureTeardown:
    """A failing compilation must not leak workers or poison the pool."""

    def test_threads_pool_survives_failing_session(self, expr_compiler, big_tree):
        with ThreadsSubstrate(receive_timeout=TIMEOUT) as pool:
            session = pool.session(2)
            mailbox = session.mailbox("never-written")

            def waiting_body():
                yield Receive(mailbox)

            session.spawn(WorkerJob(factory=_failing_worker_body), name="bad")
            session.spawn(waiting_body(), name="blocked")
            with pytest.raises(BackendError, match="bad"):
                session.run()
            session.close()
            # The pool is still serviceable after the failure.
            report = expr_compiler.compile_tree(big_tree, 3, substrate=pool)
            assert report.root_attributes["value"] is not None

    @requires_fork
    def test_process_pool_survives_failing_job(self, expr_compiler, big_tree):
        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            session = pool.session(1)
            session.spawn(WorkerJob(factory=_failing_worker_body), name="bad")
            with pytest.raises(BackendError, match="bad"):
                session.run()
            session.close()
            # The same long-lived workers pick up the next (healthy) compilation.
            report = expr_compiler.compile_tree(big_tree, 3, substrate=pool)
            assert report.root_attributes["value"] is not None

    @requires_fork
    def test_unpicklable_job_fails_fast_without_poisoning_pool(
        self, split_grammar, expr_compiler, big_tree
    ):
        from repro.distributed.compiler import CompilerConfiguration

        # A lambda attribute_phase cannot pickle: the submit must fail loudly and
        # quickly, and the shared grammar-bundle cache must NOT be poisoned — a
        # later healthy compilation with the same grammar has to succeed.
        bad_compiler = ParallelCompiler(
            split_grammar, CompilerConfiguration(attribute_phase=lambda name: None)
        )
        reference = expr_compiler.compile_tree(big_tree, 3)
        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            with pytest.raises(BackendError, match="not picklable"):
                bad_compiler.compile_tree(big_tree, 3, substrate=pool)
            report = expr_compiler.compile_tree(big_tree, 3, substrate=pool)
        assert (
            report.root_attributes["value"] == reference.root_attributes["value"]
        )

    @requires_fork
    def test_process_session_rejects_raw_generators(self):
        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            session = pool.session(1)

            def body():
                yield

            with pytest.raises(BackendError, match="WorkerJob"):
                session.spawn(body(), name="raw")
            session.close()

    @requires_fork
    def test_sessions_lease_any_number_of_mailboxes(self):
        def lease_and_read(pool, label):
            session = pool.session(1)
            try:
                boxes = [session.mailbox(f"{label}-{number}") for number in range(200)]
                session.spawn(
                    WorkerJob(factory=_read_last_mailbox, kwargs={"boxes": boxes}),
                    name=f"{label}-reader",
                )

                def writer():
                    session.send(0, 1, (label, len(boxes)), 1, mailbox=boxes[-1])
                    return
                    yield  # pragma: no cover — makes this a generator

                session.spawn(writer(), name=f"{label}-writer", coordinator=True)
                session.run()
                return session.reports[0]
            finally:
                session.close()

        with ProcessesSubstrate(receive_timeout=TIMEOUT) as pool:
            assert lease_and_read(pool, "alone") == ("alone", 200)
            # Two sessions at once on one pool: both number their mailboxes 0..199.
            outcomes = {}

            def run(label):
                try:
                    outcomes[label] = lease_and_read(pool, label)
                except BaseException as error:  # noqa: BLE001 — asserted below
                    outcomes[label] = error

            threads = [threading.Thread(target=run, args=(label,)) for label in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT)
            assert outcomes == {"a": ("a", 200), "b": ("b", 200)}

    def test_threads_shutdown_mid_run_fails_fast(self):
        pool = ThreadsSubstrate(receive_timeout=TIMEOUT)
        pool.start()
        session = pool.session(1)
        running = threading.Event()

        def computing_body():
            # Keeps computing until the kernel sees the abort before a resume.
            while True:
                running.set()
                time.sleep(0.01)
                yield Compute(0.0)

        session.spawn(computing_body(), name="busy")
        outcome = {}

        def run_it():
            try:
                session.run()
                outcome["result"] = "success"
            except BackendError as error:
                outcome["result"] = str(error)

        runner = threading.Thread(target=run_it)
        runner.start()
        assert running.wait(timeout=10.0)
        stopped = time.monotonic()
        pool.shutdown()
        runner.join(timeout=10.0)
        # run() must come back promptly with an error — never hang, never report
        # an interrupted compilation as a success.
        assert not runner.is_alive()
        assert time.monotonic() - stopped < 1.0
        assert "busy" in outcome["result"] and "shut down" in outcome["result"]
        session.close()

    def test_failing_service_job_spares_siblings(self, split_grammar, expr_compiler):
        good = random_expression_source(100, seed=1, nesting=4)
        expected = evaluate_expression(good, grammar=split_grammar)
        with CompilationService("threads", receive_timeout=TIMEOUT) as service:
            bad_future = service.submit(
                CompilationJob(expr_compiler, source="1 +", machines=2,
                               parse=lambda t: parse_expression(t, split_grammar))
            )
            good_future = service.submit(
                CompilationJob(expr_compiler, source=good, machines=2,
                               parse=lambda t: parse_expression(t, split_grammar))
            )
            assert good_future.result().root_attributes["value"] == expected
            with pytest.raises(Exception):
                bad_future.result()
            stats = service.stats()
        assert stats.jobs_failed == 1
        assert stats.jobs_completed == 1
