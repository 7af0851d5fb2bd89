"""Chaos benchmark: recovery latency per fault class, disabled-plane overhead.

Two questions, answered with numbers:

1. **What does the fault plane cost when it is off?**  The exact hot-path quick
   workload (``bench_hotpath.py --quick``: Pascal, 10 procedures x 4
   statements, seed 7, machines 4, 9 iterations, compiled plans) re-measured
   with the injection sites compiled in but no plan installed.
   ``--check-baseline benchmarks/BENCH_hotpath_baseline.json`` gates the
   processes end-to-end p50 against the committed hot-path baseline with the
   same tolerance machinery (``--tolerance`` / ``BENCH_HOTPATH_TOLERANCE``) —
   if the disabled plane showed up in the profile, this fails.

2. **How long does recovery take under each fault class?**  For every class the
   chaos tests exercise (worker crash, message drop, wire corruption, cache
   poisoning, deadline expiry) one expression-language compile runs under a seeded :class:`FaultPlan` on the substrate where that
   fault bites, and the wall clock to the *settled outcome* — byte-identical
   result or typed error — is compared against a fault-free median on the same
   pool.  The difference is the recovery latency.

Emits ``BENCH_chaos.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full run
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_hotpath import (  # noqa: E402 — sibling module, not a package
    REGRESSION_FACTOR,
    _stats,
    bench_substrate,
    check_baseline,
    default_tolerance,
)

from repro import faults  # noqa: E402
from repro.backends import BackendError, create_substrate  # noqa: E402
from repro.distributed.compiler import ParallelCompiler  # noqa: E402
from repro.exprlang.evaluator import random_expression_source  # noqa: E402
from repro.exprlang.frontend import parse_expression  # noqa: E402
from repro.exprlang.grammar import expression_grammar  # noqa: E402
from repro.faults import FaultError, FaultPlan, FaultRule  # noqa: E402
from repro.incremental.cache import ArtifactCache  # noqa: E402
from repro.incremental.engine import IncrementalCompiler  # noqa: E402
from repro.pascal import generate_program  # noqa: E402
from repro.resilience import Deadline, DeadlineExceeded  # noqa: E402
from repro.service import CompilationJob, CompilationService  # noqa: E402

TIMEOUT = 20.0

#: Seconds a starved receive waits before the typed timeout on ``processes`` and
#: ``sockets``, kept short so the benchmark is fast.  It does not decide message-drop
#: latency on ``threads`` or ``simulated``: there the receiver parks and the kernel
#: finds the deadlock as soon as its queue drains.
DROP_RECEIVE_TIMEOUT = 1.0


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


#: fault class -> (substrate, plan factory).  Substrates are chosen where the
#: fault actually bites; classes needing fork fall back to threads when absent.
FAULT_CELLS = {
    "worker-crash": ("processes", lambda: [
        FaultRule("worker.crash", action="crash", times=1, after=0)
    ]),
    "message-drop": ("threads", lambda: [
        FaultRule("mailbox.send", action="drop", times=1, after=2)
    ]),
    "wire-corrupt": ("sockets", lambda: [
        FaultRule("wire.send", action="corrupt", times=1, after=2)
    ]),
    "cache-poison": ("threads", lambda: [
        FaultRule("cache.get", action="poison", times=1)
    ]),
    "deadline-expiry": ("threads", lambda: []),
}


def _timed(fn) -> Dict[str, object]:
    started = time.perf_counter()
    try:
        fn()
    except (FaultError, BackendError, DeadlineExceeded) as error:
        return {
            "seconds": time.perf_counter() - started,
            "outcome": "typed-error",
            "error": f"{type(error).__name__}: {error}",
        }
    return {"seconds": time.perf_counter() - started, "outcome": "recovered"}


def bench_fault_class(
    name: str,
    substrate_name: str,
    rules,
    grammar,
    tree,
    clean_iterations: int,
) -> Optional[Dict[str, object]]:
    compiler = ParallelCompiler(grammar)
    receive_timeout = (
        DROP_RECEIVE_TIMEOUT if name == "message-drop" else TIMEOUT
    )
    with create_substrate(substrate_name, receive_timeout=receive_timeout) as pool:
        if name == "deadline-expiry":
            service = CompilationService(pool)
            service.start()
            try:
                job = CompilationJob(
                    language="exprlang",
                    source="let x = 3 in 1 + 2 * x ni",
                    machines=2,
                )
                clean: List[float] = []
                for _ in range(clean_iterations):
                    started = time.perf_counter()
                    service.submit(job).result(timeout=TIMEOUT)
                    clean.append(time.perf_counter() - started)

                def expire():
                    service.submit(
                        job, deadline=Deadline.after(0.0, label="bench")
                    ).result(timeout=TIMEOUT)

                faulted = _timed(expire)
            finally:
                service.close()
        elif name == "cache-poison":
            cache = ArtifactCache()
            incremental = IncrementalCompiler(compiler, cache)
            clean = []
            incremental.compile_tree(tree, 3, substrate=pool)  # warm the cache
            for _ in range(clean_iterations):
                started = time.perf_counter()
                incremental.compile_tree(tree, 3, substrate=pool)
                clean.append(time.perf_counter() - started)
            plan = FaultPlan(seed=42, rules=rules())
            with faults.active(plan):
                faulted = _timed(
                    lambda: incremental.compile_tree(tree, 3, substrate=pool)
                )
        else:
            clean = []
            for _ in range(clean_iterations):
                started = time.perf_counter()
                compiler.compile_tree(tree, 3, substrate=pool)
                clean.append(time.perf_counter() - started)
            plan = FaultPlan(seed=42, rules=rules())
            with faults.active(plan):
                faulted = _timed(
                    lambda: compiler.compile_tree(tree, 3, substrate=pool)
                )
    clean_p50 = _stats(clean)["p50"]
    return {
        "substrate": substrate_name,
        "clean_p50_seconds": clean_p50,
        "faulted_seconds": faulted["seconds"],
        "recovery_latency_seconds": max(0.0, faulted["seconds"] - clean_p50),
        "outcome": faulted["outcome"],
        **({"error": faulted["error"]} if "error" in faulted else {}),
    }


def run(args: argparse.Namespace) -> Dict:
    # The overhead leg mirrors bench_hotpath --quick exactly so the committed
    # hot-path baseline is comparable (same workload-shape keys).
    procedures, statements, iterations = 10, 4, 9
    source = generate_program(
        procedures=procedures, statements_per_procedure=statements, seed=7
    )
    overhead_substrates = ["threads"]
    if _fork_available():
        overhead_substrates.append("processes")

    assert faults.plan.ACTIVE is None, "the overhead leg must run with no plan"
    overhead: Dict[str, Dict] = {}
    for backend in overhead_substrates:
        print(f"overhead (plane disabled): {backend} substrate...")
        overhead[backend] = bench_substrate(
            backend, source, args.machines, iterations, compiled_plans=True
        )
        end = overhead[backend]["end_to_end"]
        print(
            f"  end-to-end p50 {end['p50'] * 1000:.1f}ms  "
            f"p95 {end['p95'] * 1000:.1f}ms"
        )

    grammar = expression_grammar(min_split_size=60)
    tree = parse_expression(random_expression_source(300, seed=11, nesting=6), grammar)
    clean_iterations = 1 if args.quick else 3
    recovery: Dict[str, Dict] = {}
    for name, (substrate_name, rules) in sorted(FAULT_CELLS.items()):
        if substrate_name in ("processes", "sockets") and not _fork_available():
            print(f"fault class {name}: skipped ({substrate_name} needs fork)")
            continue
        if args.quick and substrate_name == "sockets":
            print(f"fault class {name}: skipped in --quick (sockets spin-up)")
            continue
        print(f"fault class {name} on {substrate_name}...")
        cell = bench_fault_class(
            name, substrate_name, rules, grammar, tree, clean_iterations
        )
        recovery[name] = cell
        print(
            f"  {cell['outcome']} in {cell['faulted_seconds'] * 1000:.1f}ms "
            f"(clean p50 {cell['clean_p50_seconds'] * 1000:.1f}ms, recovery "
            f"latency {cell['recovery_latency_seconds'] * 1000:.1f}ms)"
        )

    return {
        "benchmark": "chaos",
        "workload": {
            "language": "pascal",
            "procedures": procedures,
            "statements_per_procedure": statements,
            "seed": 7,
            "source_chars": len(source),
            "machines": args.machines,
            "iterations": iterations,
            "quick": True,  # the overhead leg always uses the quick shape
            "compiled_plans": True,
        },
        "substrates": overhead,  # hotpath-compatible: check_baseline reads this
        "fault_recovery": recovery,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer clean samples, skip sockets spin-up (CI smoke)",
    )
    parser.add_argument("--machines", type=int, default=4,
                        help="evaluator machines for the overhead leg")
    parser.add_argument("--output", default="BENCH_chaos.json",
                        help="where to write the JSON report")
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help=(
            "fail (exit 1) if the disabled-plane processes p50 regressed beyond "
            "the tolerance over this hot-path baseline JSON"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FACTOR",
        help=(
            "regression tolerance factor for --check-baseline "
            f"(default {REGRESSION_FACTOR:g}, or BENCH_HOTPATH_TOLERANCE)"
        ),
    )
    args = parser.parse_args(argv)
    tolerance = args.tolerance if args.tolerance is not None else default_tolerance()
    if tolerance <= 0:
        parser.error("--tolerance must be positive")

    payload = run(args)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check_baseline:
        return check_baseline(payload, args.check_baseline, tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
