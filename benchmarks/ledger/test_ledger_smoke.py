"""Opt-in smoke test of the benchmark ledger (outside tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py -q

Runs ``run.py --smoke``: a few operations of every workload, traced, checking
the result schema and that every workload and metric ``BENCHMARK.json`` names
is emitted — measured, or declared idle on that workload (``layers.IDLE``).
No timing is asserted — that is what ``run.py --aa`` is for.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_ledger_smoke():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.strip().endswith("smoke passed")
