"""Cluster membership: who is in the worker fleet, and who is still alive.

Transport-neutral bookkeeping shared by the coordinator: a
:class:`WorkerDirectory` assigns worker ids, tracks last-heard-from times fed by
heartbeats (or any frame — traffic is proof of life), and answers the two
questions fault tolerance needs: *which workers are alive right now* and *which
workers have gone silent past the heartbeat timeout*.  Actual connection
handling (sockets, reader threads) stays in :mod:`repro.cluster.coordinator`;
death by connection loss and death by heartbeat expiry both funnel through
:meth:`WorkerDirectory.mark_dead`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set


@dataclass
class WorkerInfo:
    """One worker's membership record."""

    worker_id: int
    name: str
    address: str
    capabilities: Dict[str, Any] = field(default_factory=dict)
    connected_at: float = 0.0
    last_seen: float = 0.0
    alive: bool = True
    #: Why the worker left the fleet ("" while alive).
    death_reason: str = ""

    @property
    def label(self) -> str:
        return f"worker {self.worker_id} ({self.name} @ {self.address})"


class WorkerDirectory:
    """Thread-safe registry of every worker that ever joined the cluster."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: Dict[int, WorkerInfo] = {}
        self._next_id = 0

    def register(self, name: str, address: str, capabilities: Dict[str, Any]) -> WorkerInfo:
        now = time.monotonic()
        with self._lock:
            worker_id = self._next_id
            self._next_id += 1
            info = WorkerInfo(
                worker_id=worker_id,
                name=name,
                address=address,
                capabilities=dict(capabilities),
                connected_at=now,
                last_seen=now,
            )
            self._workers[worker_id] = info
        return info

    def touch(self, worker_id: int) -> None:
        """Record proof of life (a heartbeat or any other frame)."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is not None:
                info.last_seen = time.monotonic()

    def mark_dead(self, worker_id: int, reason: str) -> Optional[WorkerInfo]:
        """Take ``worker_id`` out of the fleet; returns its record the first time."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None or not info.alive:
                return None
            info.alive = False
            info.death_reason = reason
            return info

    def get(self, worker_id: int) -> Optional[WorkerInfo]:
        with self._lock:
            return self._workers.get(worker_id)

    def alive(self) -> List[WorkerInfo]:
        with self._lock:
            return [info for info in self._workers.values() if info.alive]

    def pids(self) -> Set[int]:
        """The process id every worker that ever joined gave in its handshake."""
        with self._lock:
            return {
                info.capabilities["pid"]
                for info in self._workers.values()
                if "pid" in info.capabilities
            }

    def alive_count(self) -> int:
        return len(self.alive())

    def total_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def expired(self, timeout: float) -> List[WorkerInfo]:
        """Alive workers that have been silent for longer than ``timeout`` seconds."""
        cutoff = time.monotonic() - timeout
        with self._lock:
            return [
                info
                for info in self._workers.values()
                if info.alive and info.last_seen < cutoff
            ]
