"""Wall-clock comparison of the execution backends on the paper workload.

Unlike every other benchmark in this harness (which reports *simulated* seconds),
these rows measure real wall-clock time: the same ~1100-line Pascal program compiled
sequentially in-process, on the threads backend and on the processes backend.  Emit
machine-readable JSON with::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py \
        --benchmark-json=backends.json

Expectations to sanity-check against, not golden numbers: the threads backend runs
every region on the calling thread (the simulator's kernel on a wall clock), so it adds
a little scheduling overhead and no parallel speedup, while the processes backend pays fork + pickle costs that only amortise on large
trees.  The point of the rows is to make those costs visible and machine-trackable.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.distributed.compiler import CompilerConfiguration, ParallelCompiler

MACHINES = 4


def _workers_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def parallel_compiler(workload):
    return ParallelCompiler(
        workload.compiler.grammar,
        CompilerConfiguration(evaluator="combined"),
        plan=workload.compiler.plan,
    )


def test_backend_sequential(benchmark, workload):
    """Baseline: one in-process evaluator over the whole tree (threads, 1 region)."""
    report = benchmark(
        lambda: workload.compile_tree(1, backend="threads")
    )
    assert report.decomposition.region_count == 1
    assert report.wall_evaluation_seconds > 0


def test_backend_threads(benchmark, workload, parallel_compiler):
    report = benchmark(
        lambda: parallel_compiler.compile_tree(workload.tree, MACHINES, backend="threads")
    )
    assert report.worker_count == report.decomposition.region_count >= MACHINES
    assert report.code_text("code")


@pytest.mark.skipif(not _workers_available(), reason="needs the fork start method")
def test_backend_processes(benchmark, workload, parallel_compiler):
    report = benchmark(
        lambda: parallel_compiler.compile_tree(workload.tree, MACHINES, backend="processes")
    )
    assert report.worker_count >= MACHINES
    assert report.code_text("code")


def test_backend_wall_clock_table(benchmark, workload, parallel_compiler, capsys):
    """One comparative table of wall-clock times (printed with ``-s``)."""

    def sweep():
        rows = {}
        rows["sequential"] = workload.compile_tree(1, backend="threads")
        rows["threads"] = parallel_compiler.compile_tree(
            workload.tree, MACHINES, backend="threads"
        )
        if _workers_available():
            rows["processes"] = parallel_compiler.compile_tree(
                workload.tree, MACHINES, backend="processes"
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(f"backend wall-clock, {workload.source_lines} source lines, {MACHINES} machines:")
        for name, report in rows.items():
            print(
                f"  {name:<10} workers={report.worker_count:<2} "
                f"evaluation={report.evaluation_time:.3f}s "
                f"total_wall={report.wall_time_seconds:.3f}s"
            )
    # Same decomposition => byte-identical code across real backends; the 1-region
    # sequential run draws unique labels from a different region base, so only the
    # line structure is comparable (exactly as the paper's design implies).
    reference = rows["threads"].code_text("code")
    if "processes" in rows:
        assert rows["processes"].code_text("code") == reference
    assert rows["sequential"].code_text("code").count("\n") == reference.count("\n")
