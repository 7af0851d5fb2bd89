"""The modelled numbers, pinned bit for bit.

Every figure the ``simulated`` substrate reports is a pure function of the program,
the cost model and the kernel's event order.  This module recomputes the paper's
reproductions (Figure 6, Figure 7, the librarian comparison on the default workload)
and a small machine-count × evaluator sweep, and compares every non-wall field —
each float as ``float.hex`` — plus the SHA-256 of the generated code against
``tests/golden/modelled.json``.

A change that moves a modelled number on purpose regenerates the file and says why
in ``CHANGES.md``::

    PYTHONPATH=src python tests/test_modelled_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

GOLDEN = Path(__file__).with_name("golden") / "modelled.json"

#: The sweep: ``generate_program(**SWEEP_PROGRAM)`` at each machine count × evaluator.
SWEEP_PROGRAM = dict(procedures=8, statements_per_procedure=3, seed=3)
SWEEP_MACHINES = (1, 2, 4)
SWEEP_EVALUATORS = ("combined", "dynamic")


def _hex(value: float) -> str:
    return float(value).hex()


def _timeline(report: Any, full: bool) -> Dict[str, Any]:
    """Each machine's activity intervals, one ``"start end kind label"`` line each.

    ``full=False`` keeps a machine's interval count and the SHA-256 of its lines: as
    exact, and small enough for the dynamic evaluator's thousand intervals a run.
    """
    timeline = {}
    for machine, intervals in sorted(report.timeline.items()):
        lines = [f"{_hex(i.start)} {_hex(i.end)} {i.kind.value} {i.label}" for i in intervals]
        timeline[machine] = lines if full else {
            "intervals": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        }
    return timeline


def _report(report: Any, full_timeline: bool = False) -> Dict[str, Any]:
    """Every modelled (non-wall) field of one simulated :class:`CompilationReport`."""
    statistics = report.statistics
    return {
        "parse_time": _hex(report.parse_time),
        "evaluation_time": _hex(report.evaluation_time),
        "timeline": _timeline(report, full_timeline),
        "utilization": {
            machine: _hex(value) for machine, value in sorted(report.utilization.items())
        },
        "network_messages": report.network_messages,
        "network_bytes": report.network_bytes,
        "network_busy_time": _hex(report.network_busy_time),
        "memory_bytes": report.memory_bytes,
        "statistics": {
            "rules_evaluated": statistics.rules_evaluated,
            "rule_extra_cost": _hex(statistics.rule_extra_cost),
            "dynamic_instances": statistics.dynamic_instances,
            "static_instances": statistics.static_instances,
            "dependency_vertices": statistics.dependency_vertices,
            "dependency_edges": statistics.dependency_edges,
        },
        "evaluators": [
            {
                "region": e.region_id,
                "machine": e.machine,
                "finish_time": _hex(e.finish_time),
                "graph_build_time": _hex(e.graph_build_time),
                "memory_bytes": e.memory_bytes,
                "messages_sent": e.messages_sent,
                "messages_received": e.messages_received,
                "bytes_sent": e.bytes_sent,
            }
            for e in report.evaluator_reports
        ],
        "code_sha256": hashlib.sha256(report.code_text("code").encode()).hexdigest(),
    }


def compute() -> Dict[str, Any]:
    """Recompute every pinned number (about a second and a half)."""
    from repro.api import Compiler
    from repro.experiments import (
        default_workload,
        run_figure6,
        run_figure7,
        run_librarian_comparison,
    )
    from repro.pascal.programs import generate_program

    workload = default_workload()
    figure6 = run_figure6(workload, machines=5)
    figure7 = run_figure7(workload, machines=5)
    librarian = run_librarian_comparison(workload, machines=5)
    source = generate_program(**SWEEP_PROGRAM)
    sweep = {}
    for evaluator in SWEEP_EVALUATORS:
        compiler = Compiler("pascal", evaluator=evaluator, backend="simulated")
        for machines in SWEEP_MACHINES:
            result = compiler.compile(source, machines=machines)
            sweep[f"{evaluator}/m={machines}"] = _report(result.report)
    return {
        "figure6": {
            "report": _report(figure6.report, full_timeline=True),
            "phase_totals": {k: _hex(v) for k, v in sorted(figure6.phase_totals.items())},
        },
        "figure7": {
            "balance": _hex(figure7.plan.balance()),
            "regions": [
                [row["region"], row["root_symbol"], row["nodes"], row["size_bytes"],
                 row["parent"], row["children"]]
                for row in figure7.rows()
            ],
        },
        "librarian": {
            "with_librarian": _hex(librarian.with_librarian),
            "without_librarian": _hex(librarian.without_librarian),
            "bytes_with": librarian.bytes_with,
            "bytes_without": librarian.bytes_without,
        },
        "sweep": sweep,
    }


def _differences(expected: Any, actual: Any, path: str = "") -> list:
    """Paths where two JSON trees differ (the first few name what moved)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(expected) | set(actual)):
            found += _differences(expected.get(key), actual.get(key), f"{path}/{key}")
        return found
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        found = []
        for index, (left, right) in enumerate(zip(expected, actual)):
            found += _differences(left, right, f"{path}[{index}]")
        return found
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def test_modelled_numbers_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(compute()))
    moved = _differences(expected, actual)
    assert not moved, (
        f"{len(moved)} modelled number(s) moved; first: " + "; ".join(moved[:5])
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
