"""The sockets backend: evaluator workers on other host processes, over TCP.

The fourth substrate, and the real multi-host shape of the paper's design: parser and
string librarian run with the caller, evaluators on :mod:`repro.cluster.worker`
processes — separate Python interpreters reachable only through a socket, on this
machine or any other.  Every frame is a length-prefixed pickle
(:mod:`repro.cluster.wire`).

Sessions, mailboxes, the attempt book, the bundle registry and the job runner inside
a worker are the coordinator core in :mod:`repro.backends.routing`, the same code the
``processes`` pool runs.  What is the cluster's own lives in
:class:`~repro.cluster.coordinator.ClusterCoordinator` and the worker: accept and
handshake, a reader and a writer thread per connection, heartbeats, shard placement
on a consistent hash ring, and a job that runs again after backoff on the next live
shard, up to ``max_attempts``, with speculation (``speculate_after``) and
coordinator-side timeouts (``job_timeout``) on top.

Two fleets are supported:

* **managed (default)** — the substrate spawns ``workers`` local worker
  processes (``python -m repro.cluster.worker --connect 127.0.0.1:<port>``) at
  start and replaces them if they die while work is pending.  This is the
  loopback cluster the tests, benchmarks and CI run.
* **external** — construct with ``manage_workers=False`` (or ``workers=0``),
  publish :attr:`SocketsSubstrate.address`, and start workers by hand on any
  hosts that can reach it; :meth:`SocketsSubstrate.wait_for_workers` blocks
  until the fleet is up.

Unlike the processes substrate this needs no ``fork`` start method: workers are
fresh interpreters, so the sockets substrate also runs where only ``spawn`` is
available.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.backends.base import BackendError
from repro.backends.routing import Job, RoutedSubstrate
from repro.cluster.coordinator import ClusterCoordinator, ClusterStats


def _worker_environment() -> Dict[str, str]:
    """Environment for a spawned local worker: this repro importable, nothing else."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return environment


class SocketsSubstrate(RoutedSubstrate):
    """A persistent compile cluster reached over TCP (loopback or real hosts)."""

    name = "sockets"

    def __init__(
        self,
        workers: int = 0,
        receive_timeout: Optional[float] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        manage_workers: bool = True,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        max_attempts: int = 3,
        retry_backoff: float = 0.05,
        speculate_after: Optional[float] = None,
        job_timeout: Optional[float] = None,
        worker_startup_timeout: float = 30.0,
        worker_store: Optional[str] = None,
    ):
        # A managed loopback fleet always has at least two shards so one compile
        # genuinely crosses worker boundaries (and a kill leaves a survivor).
        self._target_workers = max(2, workers) if manage_workers else workers
        self._manage_workers = manage_workers
        self.worker_startup_timeout = worker_startup_timeout
        #: Path handed to managed workers as ``--store``: respawned workers then
        #: resolve language bundles from disk instead of re-downloading them.
        self.worker_store = worker_store
        self._coordinator = ClusterCoordinator(
            host,
            port,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            max_attempts=max_attempts,
            retry_backoff=retry_backoff,
            speculate_after=speculate_after,
            job_timeout=job_timeout,
            worker_request=self._on_worker_needed if manage_workers else None,
        )
        super().__init__(
            receive_timeout, self._coordinator.book, self._coordinator.bundles
        )
        self._local_workers: List[subprocess.Popen] = []

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> "SocketsSubstrate":
        with self._lock:
            if self._stopped:
                raise BackendError("sockets substrate has been shut down")
            if self._started:
                return self
            self._started = True
        self._coordinator.start()
        if self._manage_workers and self._target_workers > 0:
            self._spawn_local_workers(self._target_workers)
            joined = self._coordinator.wait_for_workers(
                self._target_workers, timeout=self.worker_startup_timeout
            )
            if joined < self._target_workers:
                self.shutdown()
                raise BackendError(
                    f"only {joined}/{self._target_workers} local cluster workers "
                    f"joined within {self.worker_startup_timeout:.0f}s"
                )
        return self

    def shutdown(self) -> None:
        with self._lock:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
            local = list(self._local_workers)
        self._fail_sessions("sockets substrate was shut down mid-run")
        self._coordinator.shutdown()
        # A local worker that never finished its handshake is still dialling: it
        # would keep at it for its whole connect timeout, so it is stopped here.
        joined = self._coordinator.directory.pids()
        for process in local:
            if process.pid not in joined:
                process.kill()
        deadline = time.monotonic() + 5.0
        for process in local:
            try:
                process.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)

    # ------------------------------------------------------------------ cluster

    @property
    def address(self) -> Tuple[str, int]:
        """Where external workers connect: ``python -m repro.cluster.worker
        --connect HOST:PORT`` (valid after :meth:`start`)."""
        return self._coordinator.address

    @property
    def coordinator(self) -> ClusterCoordinator:
        return self._coordinator

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` workers have joined; returns how many are alive."""
        self.start()
        return self._coordinator.wait_for_workers(count, timeout=timeout)

    def cluster_stats(self) -> ClusterStats:
        """Fleet and fault-tolerance counters (feeds ``ServiceStats``)."""
        return self._coordinator.cluster_stats()

    def worker_ids(self, *, with_work: bool = False) -> List[int]:
        """Alive cluster worker ids (optionally only those evaluating a region)."""
        return self._coordinator.worker_ids(with_work=with_work)

    def kill_worker(self, worker_id: int) -> bool:
        """Fault injection: kill the worker's OS process (managed fleets) or sever
        its connection (external ones).  Returns False for unknown workers."""
        info = self._coordinator.directory.get(worker_id)
        if info is None:
            return False
        pid = info.capabilities.get("pid")
        with self._lock:
            local = list(self._local_workers)
        for process in local:
            if process.pid == pid and process.poll() is None:
                process.kill()
                return True
        return self._coordinator.disconnect_worker(worker_id)

    def pause_worker(self, worker_id: int) -> bool:
        """Fault injection: SIGSTOP a managed worker so it goes silent without
        closing its socket — death is then only detectable by heartbeat expiry."""
        info = self._coordinator.directory.get(worker_id)
        pid = None if info is None else info.capabilities.get("pid")
        with self._lock:
            local = list(self._local_workers)
        for process in local:
            if process.pid == pid and process.poll() is None:
                os.kill(process.pid, signal.SIGSTOP)
                return True
        return False

    # ---------------------------------------------------------------- internals

    def _spawn_local_workers(self, count: int) -> None:
        host, port = self._coordinator.address
        with self._lock:
            if self._stopped:
                return
            self._local_workers = [
                process for process in self._local_workers if process.poll() is None
            ]
            needed = count - len(self._local_workers)
            environment = _worker_environment() if needed > 0 else None
            command = [
                sys.executable,
                "-m",
                "repro.cluster.worker",
                "--connect",
                f"{host}:{port}",
            ]
            if self.worker_store is not None:
                command.extend(["--store", str(self.worker_store)])
            for _ in range(needed):
                self._local_workers.append(
                    subprocess.Popen(
                        command,
                        env=environment,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                )

    def _on_worker_needed(self) -> None:
        """Coordinator callback: work is stranded without a live worker — keep the
        managed fleet at its target size (dead processes are replaced, not mourned)."""
        self._spawn_local_workers(self._target_workers)

    def _place(self, jobs: List[Job]) -> None:
        self._coordinator.place(jobs)
