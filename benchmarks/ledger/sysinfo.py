"""What the ledger reads from the operating system: CPU, memory, load, identity.

Everything here is measured **from outside** the program under test — the
``/proc`` view of a process tree — so the same numbers exist for the in-process
pooled substrates (runner + forked workers) and for the HTTP server subprocess.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Dict, List

from registry import REPO_ROOT


def _stat_fields(pid: str) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` column (state first)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("ascii", "replace")
    # comm may contain spaces and parentheses; everything after the last ')' is
    # space-separated and starts with the state field (field 3 of proc(5)).
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and every live descendant, from one scan of ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(_stat_fields(entry)[1])
        except (OSError, ValueError, IndexError):
            continue  # the process exited between listdir and open
    tree = [root_pid]
    frontier = [root_pid]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        tree.extend(children)
        frontier.extend(children)
    return tree


def cpu_seconds(pids: List[int]) -> float:
    """CPU seconds (user + system) consumed so far by the live processes in ``pids``.

    Read from every thread's ``schedstat`` — nanoseconds actually spent on a
    CPU.  (``/proc/<pid>/stat`` counts 10 ms ticks sampled at the timer
    interrupt instead, which quantises a block's CPU to a handful of distinct
    values and, measured here, over-charges a pool of short-burst workers by
    ~4 %.)  A thread that exits between two readings takes its time with it;
    the pools measured here keep their threads.
    """
    nanoseconds = 0
    for pid in pids:
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                    nanoseconds += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # the process or thread exited between listdir and open
    return nanoseconds / 1e9


def peak_rss_mib(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the live processes in ``pids``, MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def load_average() -> float:
    """The 1-minute load average (diagnoses a disturbed block from its JSON)."""
    return os.getloadavg()[0]


def host_speed_ns() -> float:
    """Nanoseconds per step of a fixed pure-Python loop (~0.1 s), best of three.

    Recorded before and after the measure phase: the shared box this runs on
    changes speed by tens of percent for minutes at a time at an unchanged load
    average, and this tells a run on a slowed host from slowed code.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        value = 0
        for index in range(300_000):
            value = (value * 31 + index) % 65521
        best = min(best, time.perf_counter() - started)
    return best * 1e9 / 300_000


def commit_id() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment() -> Dict[str, object]:
    """The identity record written into every result."""
    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "malloc_arena_max": os.environ.get("MALLOC_ARENA_MAX", "default"),
    }
