"""The repo's benchmark: four workloads, five end-to-end metrics, a per-layer trace.

    python3 benchmarks/ledger/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/ledger/run.py --workload all [--trace]     # the whole suite
    python3 benchmarks/ledger/run.py --aa          # suite twice, same tree: A/A table
    python3 benchmarks/ledger/run.py --smoke       # schema + names check, seconds

Each workload runs in a fresh interpreter (``runner.py``) which generates every
input from ``--seed``, measures, verifies the outputs against a reference that
never comes from the path under test, and writes its full result — metrics,
per-block samples, cold-start samples, load averages, environment — to
``benchmarks/ledger/out/``.  This file prints every metric by name with its unit
and, as the last line of standard output, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).  The exit code is non-zero when any operation failed or any
output differed from its reference.  See ``README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

import registry  # HERE is sys.path[0]: this file is run as a script
from registry import REPO_ROOT

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(REPO_ROOT, "src")
OUT = os.path.join(HERE, "out")


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    tag: str = "",
) -> Dict[str, Any]:
    """Measure one workload in a fresh interpreter; returns its full result."""
    os.makedirs(OUT, exist_ok=True)
    kind = "smoke" if smoke else ("trace" if trace else "e2e")
    out_path = os.path.join(OUT, f"result-{workload}-{seed}-{kind}{tag}.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Two process-level sources of run-to-run difference that are not the
    # program's, fixed for the runner, its pool workers and the server alike:
    # set and dict layouts, and glibc's per-thread malloc arenas (which thread
    # of the server allocated what moved its VmHWM by 13 % between runs; with
    # one arena, 5 %).
    environment["PYTHONHASHSEED"] = "0"
    environment["MALLOC_ARENA_MAX"] = "1"
    command = [
        sys.executable, os.path.join(HERE, "runner.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--out-dir", OUT, "--out", out_path,
    ]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, env=environment, cwd=REPO_ROOT)
    if completed.returncode != 0 or not os.path.exists(out_path):
        raise SystemExit(f"runner for {workload} exited {completed.returncode}")
    with open(out_path, "r") as handle:
        return json.load(handle)


def contract_line(result: Dict[str, Any], names: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name] for name in names},
        }
    )


def print_table(result: Dict[str, Any], names: Dict[str, Any]) -> None:
    samples = result.get("samples", {})
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['ops_per_block']} ops/block  inputs {result['inputs_sha256'][:12]}  "
        f"commit {result['environment']['commit'][:12]}"
    )
    for name in names:
        metric = result["metrics"][name]
        # A traced run counts the samples behind each metric it measured.
        count = f"  n={samples[name]}" if name in samples else ("  idle" if samples else "")
        print(f"  {name:34s} {metric['value']:16.4f} {metric['unit']}{count}")
    print(
        f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}  "
        f"outputs verified {result['outputs']} ({result['outputs_sha256'][:12]})"
    )
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")
    for problem in result["check_failures"]:
        print(f"  CHECK FAILED: {problem}")


# ----------------------------------------------------------------------------- A/A


def relative(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_aa(seed: int, seconds: float) -> int:
    """The suite twice on the same tree: do two runs of one commit agree?

    Prints both values of every end-to-end metric with their relative
    difference against the metric's bound, and requires every count metric and
    every verified output hash to repeat exactly.
    """
    failures: List[str] = []
    rows: List[str] = []
    bounds = registry.BOUNDS
    count_names = [n for n, (unit, _) in registry.PER_LAYER.items() if unit == "count"]
    for workload in registry.WORKLOADS:
        pair = [
            run_workload(workload, seed, seconds, False, tag=f"-{side}") for side in "ab"
        ]
        traced = [
            run_workload(workload, seed, seconds, True, tag=f"-{side}") for side in "ab"
        ]
        for name, (unit, better) in registry.END_TO_END.items():
            first, second = (run["metrics"][name]["value"] for run in pair)
            worse = abs(relative(first, second, better))
            verdict = "ok" if worse <= bounds[name] else "FAIL"
            if verdict == "FAIL":
                failures.append(f"{workload}/{name} differs by {worse:.1%}")
            rows.append(
                f"{workload:14s} {name:16s} {first:12.4f} {second:12.4f} {unit:4s} "
                f"{worse:7.2%}  bound {bounds[name]:4.0%}  {verdict}"
            )
        for runs in (pair, traced):
            first, second = runs
            for run in runs:
                if run["failed"]:
                    failures.append(f"{workload}: {run['failed']} operation(s) failed")
                failures.extend(f"{workload}: {p}" for p in run["check_failures"])
            for key in ("counts", "outputs_sha256", "inputs_sha256"):
                if first[key] != second[key]:
                    failures.append(f"{workload}: {key} differ between the two runs")
        for name in count_names:
            first, second = (run["metrics"][name]["value"] for run in traced)
            if first != second:
                failures.append(f"{workload}/{name}: count {first} != {second}")
    print(f"{'workload':14s} {'metric':16s} {'run A':>12s} {'run B':>12s}")
    print("\n".join(rows))
    for failure in failures:
        print("A/A FAILURE:", failure)
    print("A/A", "failed" if failures else "passed: counts and output hashes repeat exactly")
    return 1 if failures else 0


# --------------------------------------------------------------------------- smoke


def run_smoke(seed: int) -> int:
    """A few ops of everything: result schema, every ``BENCHMARK.json`` metric emitted.

    The runner itself refuses to emit a per-layer metric it neither measured
    nor found in ``layers.IDLE``, and a measured time of 0, so a traced result
    that exists has passed that check.
    """
    problems: List[str] = []
    every = {**registry.END_TO_END, **registry.PER_LAYER}
    for workload in registry.WORKLOADS:
        result = run_workload(workload, seed, registry.RUN_SECONDS, True, smoke=True)
        if result["failed"]:
            problems.append(f"{workload}: {result['failed']} operation(s) failed")
        problems.extend(f"{workload}: {p}" for p in result["check_failures"])
        for name, (unit, _) in every.items():
            metric = result["metrics"].get(name)
            if metric is None:
                problems.append(f"{workload}: metric {name} was not emitted")
            elif metric["unit"] != unit or not isinstance(metric["value"], (int, float)):
                problems.append(f"{workload}: metric {name} is malformed: {metric}")
        for name in registry.END_TO_END:
            if not result["metrics"].get(name, {}).get("value"):
                problems.append(f"{workload}: end-to-end metric {name} is zero")
        for key in ("environment", "blocks", "cold_starts_s", "inputs_sha256", "counts"):
            if key not in result:
                problems.append(f"{workload}: result lacks {key!r}")
        if not os.path.exists(os.path.join(REPO_ROOT, result.get("trace_file", "?"))):
            problems.append(f"{workload}: no trace file was written")
        print(f"smoke {workload}: {result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print("SMOKE FAILURE:", problem)
    print("smoke", "failed" if problems else "passed")
    return 1 if problems else 0


# ---------------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", default="all", choices=registry.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=registry.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=registry.RUN_SECONDS,
        help="length of the measure phase the fixed op counts are scaled to",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run — per-layer metrics and out/trace-<workload>.json",
    )
    parser.add_argument("--aa", action="store_true", help="run the suite twice and compare")
    parser.add_argument("--smoke", action="store_true", help="schema and names check")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("run.py: src/repro is not in this checkout — nothing to measure", file=sys.stderr)
        return 2
    if args.smoke:
        return run_smoke(args.seed)
    if args.aa:
        return run_aa(args.seed, args.seconds)

    names = registry.PER_LAYER if args.trace else registry.END_TO_END
    selected = registry.WORKLOADS if args.workload == "all" else (args.workload,)
    exit_code = 0
    for workload in selected:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_table(result, names)
        if any(name not in result["metrics"] for name in names):
            print(f"run.py: {workload} produced no metrics (every cold start failed?)",
                  file=sys.stderr)
            return 1
        print(contract_line(result, names))
        if not result["correct"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
