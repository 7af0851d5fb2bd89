"""One workload, one fresh interpreter: the measure loop behind ``run.py``.

``run.py`` starts this file as a subprocess (``PYTHONHASHSEED=0``, ``src`` on
``PYTHONPATH``) so that every workload is measured in an interpreter that has
done nothing else.  The result — every metric, every per-block sample, the
environment — is written as JSON to ``--out``.

**Run shape.**  Inputs are generated from ``--seed`` before any clock starts,
in a process of their own (``inputs.py``).  The measure phase is ``BLOCKS``
blocks of a *fixed* number of primary ops (the same count on every commit: see
``ops_per_block``).  A cold-start child and ``gc.collect()`` run before each
block, so the nine cold starts are spread over the run and a noise burst hits
a minority of them; per-block numbers are kept for diagnosis and no block is
ever discarded.

A traced run (``--trace 1``) does four blocks untraced and four with a span
around every call into a layer, then runs the layer micro-benchmarks of the
workload (``layers.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402
import registry  # noqa: E402
import sysinfo  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: Blocks per run, each preceded by one cold-start child: nine samples are the
#: floor that keeps a median over cold starts meaningful.
BLOCKS = 9
#: Primary ops per block at ``registry.RUN_SECONDS`` and the multiple they are
#: kept to: ``paper_sweep`` compiles each of its 7 programs once a block, and
#: http scripts are dealt evenly to the two callers.  At least 63 ops a run.
OPS_PER_BLOCK = {
    "paper_sweep": (7, 7),
    "edit_tail": (14, 1),
    "edit_head": (7, 1),
    "http_sessions": (8, 2),
}
#: How far the self times of a traced op may sum from its latency (``check_trace``).
COVERAGE_TOLERANCE = 0.10


def ops_per_block(workload: str, seconds: float) -> int:
    """The fixed op count of one block: scales with ``--seconds``, never with speed."""
    base, multiple = OPS_PER_BLOCK[workload]
    scaled = base * seconds / registry.RUN_SECONDS
    return max(multiple, int(round(scaled / multiple)) * multiple)


def measure_block(workload: Any, block: int, ops: int, tracer: Any = None) -> Dict[str, Any]:
    """One block: load, CPU and wall around ``ops`` primary operations."""
    gc.collect()
    pids = sysinfo.process_tree(workload.root_pid())
    load_before = sysinfo.load_average()
    cpu_before = sysinfo.cpu_seconds(pids)
    started = time.perf_counter()
    latencies, failed = workload.run_block(block, ops, tracer)
    wall = time.perf_counter() - started
    cpu = sysinfo.cpu_seconds(pids) - cpu_before
    return {
        "ops": ops,
        "failed": failed,
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "cpu_ms_per_op": cpu * 1000.0 / ops,
        "load_before": load_before,
        "load_after": sysinfo.load_average(),
        "latencies_ms": [value * 1000.0 for value in latencies],
    }


def end_to_end(blocks: List[Dict[str, Any]], cold_starts: List[float], rss: float) -> Dict[str, Any]:
    """The five end-to-end metrics.

    ``setup_s`` is a median of nine samples.  The other timings are taken over
    the whole measure phase — all ops, the summed wall and CPU of the nine
    blocks — and not as medians over blocks or ops: collector pauses lengthen
    45-50 % of ``edit_head`` ops by half, so its median op flips between the
    two modes from run to run (26 % IQR over ten seeds, the mean 2.7 %), and the
    median of nine block throughputs spread 1.7x wider than the total on
    ``edit_head`` and ``http_sessions`` (README, "Estimators").  A disturbed
    run is one of the ten whose median the driver takes.
    """
    ops = sum(block["ops"] for block in blocks)
    values = {
        "setup_s": statistics.median(cold_starts),
        "latency_mean_ms": statistics.mean(
            value for block in blocks for value in block["latencies_ms"]
        ),
        "ops_per_s": sum(len(block["latencies_ms"]) for block in blocks)
        / sum(block["wall_s"] for block in blocks),
        "cpu_ms_per_op": sum(block["cpu_ms_per_op"] * block["ops"] for block in blocks) / ops,
        "peak_rss_mb": rss,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in registry.END_TO_END.items()
    }


def schedule(args: argparse.Namespace) -> List[str]:
    """Which blocks a run has: ``cold`` precedes a block with a cold-start child,
    ``traced`` records spans.  A traced run orders its blocks plain, traced,
    traced, plain, twice, so that linear drift over the run (the server slows
    as its caches fill) cancels out of ``trace.overhead_ratio``."""
    if args.smoke:  # one of everything, so every metric of both kinds is emitted
        return ["cold", "traced"]
    if args.trace:
        return ["plain", "traced", "traced", "plain"] * 2
    return ["cold"] * BLOCKS


def check_trace(coverage: float) -> List[str]:
    """What a traced run must keep; what this returns fails the run.

    ``trace.overhead_ratio`` is reported and *not* checked here: a ratio of two
    means of 28-64 latencies that themselves spread by a third (collector
    pauses) repeats within about +-10 %, so a limit of 1.15 on one run would
    fail by chance (README, "Tracing overhead").
    """
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        return [
            f"per-op self times sum to {coverage:.3f} of the op latency "
            f"(limit 1 +- {COVERAGE_TOLERANCE})"
        ]
    return []


def run(args: argparse.Namespace) -> Dict[str, Any]:
    tmp = os.path.join(args.out_dir, "tmp")
    seconds = registry.RUN_SECONDS / 4 if args.smoke else args.seconds
    per_block = ops_per_block(args.workload, seconds)
    kinds = schedule(args)

    workload = workloads.create(args.workload, tmp)
    inputs = workload.prepare(args.seed, per_block * len(kinds))
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "inputs_sha256": inputs["sha256"],
        "environment": sysinfo.environment(),
        "ops_per_block": per_block,
    }
    attempted = failed = 0
    problems: List[str] = []
    cold_starts: List[float] = []
    blocks: List[Dict[str, Any]] = []
    traced_blocks: List[Dict[str, Any]] = []
    tracer = Tracer()
    metrics: Dict[str, Any] = {}
    try:
        result["host_speed_ns"] = [sysinfo.host_speed_ns()]
        began = time.perf_counter()
        workload.start()
        result["start_s"] = time.perf_counter() - began
        for index, kind in enumerate(kinds):
            if kind == "cold":
                attempted += 1
                try:
                    cold_starts.append(workload.cold_start())
                except (RuntimeError, OSError) as error:
                    print(f"cold start {index} failed: {error}", file=sys.stderr)
                    failed += 1
            if kind == "traced":
                workload.instrument(tracer)
                try:
                    block = measure_block(workload, index, per_block, tracer)
                finally:
                    tracer.unwrap()
                traced_blocks.append(block)
            else:
                block = measure_block(workload, index, per_block)
                blocks.append(block)
            attempted += block["ops"]
            failed += block["failed"]
        result["host_speed_ns"].append(sysinfo.host_speed_ns())
        pids = sysinfo.process_tree(workload.root_pid())
        result["processes"] = len(pids)
        if cold_starts and all(block["latencies_ms"] for block in blocks):
            metrics.update(end_to_end(blocks, cold_starts, sysinfo.peak_rss_mib(pids)))
            result["cold_starts_s"] = cold_starts
        if all(block["latencies_ms"] for block in traced_blocks + blocks) and traced_blocks:
            layer_metrics, samples = layers.measure(
                workload, tracer, blocks, traced_blocks, quick=args.smoke
            )
            metrics.update(layer_metrics)
            result["samples"] = samples
            result["trace_digest"] = tracer.self_time_by_name()
            result["trace_coverage"] = tracer.self_time_coverage()
            problems = check_trace(result["trace_coverage"])
            trace_path = os.path.join(args.out_dir, f"trace-{args.workload}.json")
            tracer.write(
                trace_path, workload=args.workload, seed=args.seed,
                inputs_sha256=inputs["sha256"],
            )
            result["trace_file"] = os.path.relpath(trace_path, sysinfo.REPO_ROOT)
        result["verify_failed"] = workload.verify()
        failed += result["verify_failed"]
        result["counts"] = workload.counts()
    finally:
        workload.stop()

    result["metrics"] = metrics
    result["blocks"] = blocks
    result["traced_blocks"] = traced_blocks
    result["outputs"] = len(workload.output_hashes)
    # Sorted: the two http callers finish their scripts in either order.
    result["outputs_sha256"] = workloads.digest("\n".join(sorted(workload.output_hashes)))
    result["attempted"] = attempted
    result["failed"] = failed
    result["check_failures"] = problems
    result["correct"] = failed == 0 and not problems
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=registry.WORKLOADS)
    parser.add_argument("--seed", type=int, default=registry.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
