"""The names this benchmark reports, read from ``BENCHMARK.json`` at the repo root.

That file is the single list of workloads, end-to-end metrics (with their
regression bounds) and per-layer metrics; this module only reshapes it.  What
each per-layer metric should move, and on which workload, is the prediction
table of ``README.md``; which of them a workload leaves idle is ``layers.IDLE``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(_HERE))

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r") as _handle:
    _DECLARED = json.load(_handle)

DEFAULT_SEED = 1987
#: The length of the measure phase that the fixed op counts
#: (``runner.OPS_PER_BLOCK``) were sized for on the 2-core box.
RUN_SECONDS: int = _DECLARED["run_seconds"]

WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in _DECLARED["workloads"])
#: name → (unit, better).  Every workload reports all of them.
END_TO_END: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _DECLARED["end_to_end"]
}
#: name → share of the parent's median by which the metric may get worse.
BOUNDS: Dict[str, float] = {m["name"]: m["bound"] for m in _DECLARED["end_to_end"]}
#: name → (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _DECLARED["per_layer"]
}
