"""Sustained-throughput rows: persistent worker pools vs per-compilation backends.

Every other benchmark measures one compilation; these rows measure *compiles per
second* over a stream of jobs — the service-layer question.  The comparison that
matters: on ``processes`` a pool sustains far more compiles/sec than creating a fresh
backend per compilation (one fork + one grammar shipment per worker, amortised over
the whole stream, instead of several forks per compile).  A ``threads`` session starts
no thread and pools nothing — every compile is a fresh kernel on the caller's thread —
so its one-shot and pooled rows measure the same path and are not compared.

Emit machine-readable JSON with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py \
        --benchmark-json=service.json
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.backends import ProcessesSubstrate, ThreadsSubstrate
from repro.distributed.compiler import ParallelCompiler
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.pascal import generate_program
from repro.pascal.grammar import pascal_grammar
from repro.service import CompilationJob, CompilationService

MACHINES = 8
JOBS = 32
PROCESS_JOBS = 6  # per-compilation forking is slow; a short stream shows the gap
MIXED_MACHINES = 4


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def expr_setup():
    """Many small splittable trees: per-compilation spawn cost dominates compute."""
    grammar = expression_grammar(min_split_size=8)
    compiler = ParallelCompiler(grammar)
    trees = [
        parse_expression(random_expression_source(16, seed=seed, nesting=5), grammar)
        for seed in range(JOBS)
    ]
    return compiler, trees


def _ephemeral_rate(compiler, trees, backend: str) -> float:
    started = time.perf_counter()
    for tree in trees:
        compiler.compile_tree(tree, MACHINES, backend=backend)
    return len(trees) / (time.perf_counter() - started)


def _pooled_rate(compiler, trees, substrate) -> float:
    compiler.compile_tree(trees[0], MACHINES, substrate=substrate)  # warm the pool
    started = time.perf_counter()
    for tree in trees:
        compiler.compile_tree(tree, MACHINES, substrate=substrate)
    return len(trees) / (time.perf_counter() - started)


def test_ephemeral_threads_throughput(benchmark, expr_setup):
    """A one-shot threads backend (a private substrate, started and shut down) per compile."""
    compiler, trees = expr_setup
    rate = benchmark.pedantic(
        _ephemeral_rate, args=(compiler, trees, "threads"), rounds=1, iterations=1
    )
    assert rate > 0


def test_pooled_threads_throughput(benchmark, expr_setup):
    """The same stream on one long-lived threads substrate."""
    compiler, trees = expr_setup
    with ThreadsSubstrate() as pool:
        rate = benchmark.pedantic(
            _pooled_rate, args=(compiler, trees, pool), rounds=1, iterations=1
        )
    assert rate > 0


def test_service_concurrent_throughput(benchmark, expr_setup):
    """The stream through CompilationService with several jobs in flight."""
    compiler, trees = expr_setup

    def serve():
        with CompilationService("threads", max_in_flight=4) as service:
            jobs = [CompilationJob(compiler, tree=tree, machines=MACHINES) for tree in trees]
            started = time.perf_counter()
            reports = service.compile_many(jobs)
            rate = len(reports) / (time.perf_counter() - started)
        return rate

    rate = benchmark.pedantic(serve, rounds=1, iterations=1)
    assert rate > 0


@pytest.mark.skipif(not _fork_available(), reason="needs the fork start method")
def test_pooled_processes_throughput(benchmark, expr_setup):
    """Long-lived forked workers vs several forks per compilation."""
    compiler, trees = expr_setup
    stream = trees[:PROCESS_JOBS]

    def sweep():
        ephemeral = _ephemeral_rate(compiler, stream, "processes")
        with ProcessesSubstrate() as pool:
            pooled = _pooled_rate(compiler, stream, pool)
        return ephemeral, pooled

    ephemeral, pooled = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Fork + grammar shipping amortised across the stream: the pool must win big.
    assert pooled > ephemeral


@pytest.mark.skipif(not _fork_available(), reason="needs the fork start method")
def test_mixed_language_bundle_cache(benchmark, capsys):
    """Name-keyed bundles vs per-call-site engines on a mixed-language stream.

    Before the language registry, every call site built its own
    :class:`ParallelCompiler` — re-running the grammar analyses and, on the pooled
    processes substrate, re-pickling and re-shipping a fresh grammar+plan bundle to
    the workers (the worker cache dedups by object identity, which a fresh plan
    defeats).  Registry jobs (``CompilationJob(language=..., source=...)``) share
    one name-keyed engine per language instead: the analyses run once per process
    and each language's bundle crosses to each pooled worker once ever.  The same
    mixed Pascal + exprlang stream runs through one service either way; the
    registry arm must win, and the substrate's shared-object cache must show
    exactly one named entry per language against the per-call arm's pile of
    identity-keyed entries.
    """
    from repro.api.language import get_language

    expr_sources = [
        random_expression_source(16, seed=seed, nesting=5) for seed in range(8)
    ]
    pascal_sources = [
        generate_program(procedures=2, statements_per_procedure=2, seed=seed)
        for seed in range(3)
    ]
    parse_pascal = get_language("pascal").parse

    def percall_jobs():
        # One fresh engine per job: grammar analyses + bundle pickling per call site.
        jobs = [
            CompilationJob(
                ParallelCompiler(expression_grammar()),
                source=source,
                parse=parse_expression,
                machines=MIXED_MACHINES,
            )
            for source in expr_sources
        ]
        jobs += [
            CompilationJob(
                ParallelCompiler(pascal_grammar()),
                source=source,
                parse=parse_pascal,
                machines=MIXED_MACHINES,
            )
            for source in pascal_sources
        ]
        return jobs

    def registry_jobs():
        jobs = [
            CompilationJob(language="exprlang", source=source, machines=MIXED_MACHINES)
            for source in expr_sources
        ]
        jobs += [
            CompilationJob(language="pascal", source=source, machines=MIXED_MACHINES)
            for source in pascal_sources
        ]
        return jobs

    def run_stream(pool, make_jobs) -> float:
        with CompilationService(pool, max_in_flight=2) as service:
            service.compile_many(make_jobs()[:2])  # warm: fork workers
            # Job construction is inside the timed window: building the engine
            # (grammar analyses included) is precisely the per-call-site cost the
            # registry amortises away.
            started = time.perf_counter()
            jobs = make_jobs()
            service.compile_many(jobs)
            return len(jobs) / (time.perf_counter() - started)

    def sweep():
        with ProcessesSubstrate() as pool:
            percall = run_stream(pool, percall_jobs)
            percall_entries = len(pool._bundles.ids)
        with ProcessesSubstrate() as pool:
            named = run_stream(pool, registry_jobs)
            named_entries = [
                ident for ident in pool._bundles.ids if ident and ident[0] == "named"
            ]
            assert len(named_entries) == 2  # one bundle per language, ever
            assert len(pool._bundles.ids) == 2
        # The per-call arm registered a fresh bundle per engine (plus warmup).
        assert percall_entries > len(named_entries)
        return percall, named

    percall, named = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            f"mixed Pascal+exprlang stream, {len(expr_sources) + len(pascal_sources)} "
            f"jobs on {MIXED_MACHINES} machines (processes substrate):"
        )
        print(f"  per-call-site engines   {percall:8.2f} compiles/s")
        print(f"  registry (name-keyed)   {named:8.2f} compiles/s")
        print(f"  registry/per-call speedup: {named / percall:.2f}x")
    assert named > percall


def test_throughput_comparison_table(benchmark, expr_setup, capsys):
    """One caller against the service with several jobs in flight (printed, not gated)."""
    compiler, trees = expr_setup

    def sweep():
        rows = {}
        with ThreadsSubstrate() as pool:
            rows["one caller"] = _pooled_rate(compiler, trees, pool)
        with CompilationService("threads", max_in_flight=4) as service:
            jobs = [CompilationJob(compiler, tree=tree, machines=MACHINES) for tree in trees]
            started = time.perf_counter()
            service.compile_many(jobs)
            rows["service (4 in flight)"] = len(jobs) / (time.perf_counter() - started)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(f"service throughput, {JOBS} expression compiles on {MACHINES} machines:")
        for name, rate in rows.items():
            print(f"  {name:<22} {rate:8.1f} compiles/s")
    assert all(rate > 0 for rate in rows.values())
