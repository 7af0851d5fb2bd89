"""Edit-recompile loop benchmark: cold full builds vs incremental recompilation.

Simulates an editor session over the largest Pascal example program (the
paper-sized synthetic workload, ~1100 lines / 46 routines): open a
:class:`repro.incremental.Document` on a pooled substrate, then alternate a
keystroke-sized edit inside one region and ``doc.recompile()``.

Measured on the pooled **processes** substrate (threads where fork is
unavailable):

* **cold** — a full build with the artifact cache emptied first (every region
  shipped and evaluated);
* **warm** — ``recompile()`` after a single-region edit: the token stream is
  spliced, only the damaged subtree is re-parsed, and only the dirty regions
  (the edited region and the root region) are shipped and evaluated — the rest
  replay from the content-addressed cache.

Emits ``BENCH_incremental.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_incremental.py            # full run
    PYTHONPATH=src python benchmarks/bench_incremental.py --quick    # CI smoke

``--min-speedup 3`` exits non-zero when warm p50 fails to beat cold p50 by that
factor (a local regression gate; CI records the JSON without gating — shared
runners are too noisy for wall-clock ratios).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import re
import sys
import time
from typing import Dict, List

from repro.api import Session
from repro.pascal.programs import generate_program


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = (len(ordered) - 1) * q
    lower = int(index)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = index - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def _stats(samples: List[float]) -> Dict[str, float]:
    return {
        "p50": _percentile(samples, 0.50),
        "p95": _percentile(samples, 0.95),
        "samples": len(samples),
    }


def run(args: argparse.Namespace) -> Dict:
    if args.quick:
        procedures, statements, cold_iters, warm_iters = 12, 4, 2, 4
    else:
        procedures, statements, cold_iters, warm_iters = 46, 8, 5, 12
    source = generate_program(
        procedures=procedures, statements_per_procedure=statements, seed=1987
    )
    backend = "processes" if _fork_available() else "threads"

    # The edit: alternate one numeric constant in the main program body between
    # two values — always a real change, always inside a single region.
    match = list(re.finditer(r":= (\d+);", source))[-1]
    edit_at = match.start(1)
    original = match.group(1)
    variants = ["41", "53"]

    with Session(backend=backend, machines=args.machines) as session:
        doc = session.open("pascal", source, machines=args.machines)
        doc.recompile()  # warm the worker pool, parse tables and codec caches

        colds: List[float] = []
        for _ in range(cold_iters):
            session.artifact_cache.clear()
            doc._memo.replace({})  # forget fingerprints too: a genuinely cold build
            started = time.perf_counter()
            cold_result = doc.recompile()
            colds.append(time.perf_counter() - started)
        doc.recompile()  # repopulate the cache before the warm loop

        warms: List[float] = []
        current = original
        last = None
        for index in range(warm_iters):
            replacement = variants[index % 2]
            doc.edit(edit_at, edit_at + len(current), replacement)
            current = replacement
            started = time.perf_counter()
            last = doc.recompile()
            warms.append(time.perf_counter() - started)

    cold_p50 = _percentile(colds, 0.50)
    warm_p50 = _percentile(warms, 0.50)
    speedup = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
    incremental = last.incremental
    print(f"substrate: {backend}, machines: {args.machines}")
    print(
        f"cold full build  p50 {cold_p50 * 1000:.1f}ms  "
        f"p95 {_percentile(colds, 0.95) * 1000:.1f}ms  ({len(colds)} samples)"
    )
    print(
        f"incremental      p50 {warm_p50 * 1000:.1f}ms  "
        f"p95 {_percentile(warms, 0.95) * 1000:.1f}ms  ({len(warms)} samples)"
    )
    print(
        f"speedup {speedup:.2f}x — {incremental.regions_evaluated}/"
        f"{incremental.regions_total} region(s) evaluated per edit "
        f"(dirty={incremental.dirty_regions}, frontend={incremental.frontend})"
    )

    return {
        "benchmark": "incremental",
        "workload": {
            "language": "pascal",
            "procedures": procedures,
            "statements_per_procedure": statements,
            "seed": 1987,
            "source_chars": len(source),
            "machines": args.machines,
            "backend": backend,
            "quick": args.quick,
        },
        "cold": _stats(colds),
        "warm": _stats(warms),
        "speedup_p50": speedup,
        "regions": {
            "total": incremental.regions_total,
            "evaluated": incremental.regions_evaluated,
            "reused": incremental.regions_reused,
            "dirty": incremental.dirty_regions,
            "validation_rounds": incremental.validation_rounds,
            "frontend": incremental.frontend,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small program, few iterations (CI smoke)")
    parser.add_argument("--machines", type=int, default=8, help="evaluator machines per compile")
    parser.add_argument("--output", default="BENCH_incremental.json", help="where to write the JSON report")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail (exit 1) if cold p50 / warm p50 falls below this factor",
    )
    args = parser.parse_args(argv)

    payload = run(args)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.min_speedup is not None and payload["speedup_p50"] < args.min_speedup:
        print(
            f"FAIL: speedup {payload['speedup_p50']:.2f}x below the "
            f"--min-speedup {args.min_speedup:g}x gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
