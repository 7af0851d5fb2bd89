#!/usr/bin/env python3
"""Run the parallel compiler on the wall clock, on OS processes and on a loopback cluster.

Every figure in the paper reproduction runs on the deterministic simulated cluster;
this example runs the *same* distributed protocol — same parser, evaluators, string
librarian, same messages — as a one-shot compile on each real substrate (a private
substrate, pool or cluster, started for the compile and shut down after it) and checks that all
of them agree byte-for-byte on the generated code, printing wall-clock timings for
each.  Exits non-zero on any mismatch.

Run with::

    PYTHONPATH=src python examples/real_backends.py
"""

import multiprocessing

from repro.experiments.workload import default_workload

MACHINES = 4


def main() -> None:
    workload = default_workload()
    print(
        f"workload: {workload.source_lines} Pascal source lines, "
        f"{workload.statistics.node_count} parse-tree nodes, {MACHINES} machines"
    )

    backends = ["simulated", "threads"]
    if "fork" in multiprocessing.get_all_start_methods():
        backends.append("processes")
    else:
        print("(processes backend skipped: no fork start method on this platform)")
    backends.append("sockets")

    reports = {}
    for backend in backends:
        reports[backend] = workload.compile_tree(MACHINES, backend=backend)

    print()
    header = f"{'backend':<10} {'workers':>7} {'evaluation':>12} {'wall total':>11} {'messages':>9}"
    print(header)
    print("-" * len(header))
    for backend, report in reports.items():
        unit = "s sim" if backend == "simulated" else "s wall"
        print(
            f"{backend:<10} {report.worker_count:>7} "
            f"{report.evaluation_time:>8.3f}{unit:<4} "
            f"{report.wall_time_seconds:>10.3f}s {report.network_messages:>9}"
        )

    reference = reports[backends[0]].code_text("code")
    agree = all(reports[b].code_text("code") == reference for b in backends[1:])
    print()
    print(f"generated code: {len(reference)} bytes, "
          f"{'byte-identical across all backends' if agree else 'MISMATCH BETWEEN BACKENDS'}")
    if not agree:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
