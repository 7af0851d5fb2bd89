"""The sockets backend: evaluator workers on other host processes, over TCP.

The fourth substrate.  Mailboxes live on a :class:`~repro.cluster.coordinator.
ClusterCoordinator` inside the driving process; evaluator jobs run on
:mod:`repro.cluster.worker` processes — separate Python interpreters reachable
only through a socket, on this machine or any other.  Every protocol message
round-trips through pickle inside a length-prefixed frame, so this substrate is
the real multi-host deployment shape of the paper's design: parser and string
librarian co-located with the caller, evaluators sharded across machines.

Two fleets are supported:

* **managed (default)** — the substrate spawns ``workers`` local worker
  processes (``python -m repro.cluster.worker --connect 127.0.0.1:<port>``) at
  start and replaces them if they die while work is pending.  This is the
  loopback cluster the tests, benchmarks and CI run.
* **external** — construct with ``manage_workers=False`` (or ``workers=0``),
  publish :attr:`SocketsSubstrate.address`, and start workers by hand on any
  hosts that can reach it; :meth:`SocketsSubstrate.wait_for_workers` blocks
  until the fleet is up.

Fault tolerance is the coordinator's: regions are consistent-hashed to worker
shards, worker death (connection loss or heartbeat expiry) reassigns orphaned
regions with exponential backoff, and ``speculate_after`` enables speculative
re-execution of stragglers.  Deterministic replay plus duplicate-output
suppression make a compile's result byte-identical whether or not a worker was
killed halfway through — see :mod:`repro.cluster.coordinator`.

Unlike the processes substrate this needs no ``fork`` start method: workers are
fresh interpreters, so the sockets substrate also runs where only ``spawn`` is
available.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    Mailbox,
    Substrate,
    WorkerJob,
    apply_send_faults,
    blocking_receive,
    drive,
)
from repro.cluster.coordinator import ClusterCoordinator, ClusterMailbox, ClusterStats
from repro.faults import plan as _faults


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


class SocketsSubstrate(Substrate):
    """A persistent compile cluster reached over TCP (loopback or real hosts)."""

    name = "sockets"

    #: Default bound on blocking receives (seconds) when none is configured.
    DEFAULT_RECEIVE_TIMEOUT = 120.0

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
        super().__init__()
        self.receive_timeout = (
            self.DEFAULT_RECEIVE_TIMEOUT if receive_timeout is None else receive_timeout
        )
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
        self._lock = threading.Lock()
        self._local_workers: List[subprocess.Popen] = []
        self._sessions: Dict[int, "SocketsSession"] = {}
        self._session_seq = 0
        self._started = False
        self._stopped = False

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
            sessions = list(self._sessions.values())
            local = list(self._local_workers)
        for session in sessions:
            # Fail the whole in-flight run: the coordinator is about to stop
            # routing frames, so completion records would never arrive.
            with session._lock:
                session._errors.append(
                    ("substrate", "sockets substrate was shut down mid-run")
                )
            session._failed.set()
            session._jobs_event.set()
            session._wake_mailboxes("sockets substrate shut down")
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

    def session(
        self,
        machines: int = 1,
        *,
        receive_timeout: Optional[float] = None,
    ) -> "SocketsSession":
        self.start()
        with self._lock:
            self._sessions_opened += 1
            self._session_seq += 1
            session_id = self._session_seq
        return SocketsSession(
            self,
            session_id,
            self.receive_timeout if receive_timeout is None else receive_timeout,
        )

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

    def _register(self, session: "SocketsSession") -> None:
        with self._lock:
            self._sessions[session.session_id] = session

    def _unregister(self, session: "SocketsSession") -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def _submit_jobs(
        self, session: "SocketsSession", jobs: List[Tuple[WorkerJob, str]]
    ) -> None:
        for index, (job, name) in enumerate(jobs):
            try:
                self._coordinator.submit(session, name, job)
            except BaseException:
                # Jobs from this one on were never submitted: settle their share
                # of the session's completion count so close() doesn't stall.
                session._account_unsubmitted(len(jobs) - index)
                raise

    def _abort_session(self, session: "SocketsSession") -> None:
        self._coordinator.abort_session(session)
        session._wake_mailboxes("session aborted")


class SocketsSession(Backend):
    """One compilation run on a :class:`SocketsSubstrate` cluster."""

    name = "sockets"

    def __init__(self, substrate: SocketsSubstrate, session_id: int, receive_timeout: float):
        super().__init__()
        self._substrate = substrate
        self.session_id = session_id
        self.receive_timeout = receive_timeout
        self._worker_jobs: List[Tuple[WorkerJob, str]] = []
        self._coordinators: List[Tuple[Generator, str]] = []
        self._leased: List[ClusterMailbox] = []
        self._failed = threading.Event()
        self._errors: List[Tuple[str, str]] = []
        self._lock = threading.Lock()
        self._messages = 0
        self._bytes = 0
        self._jobs_remaining = 0
        self._jobs_event = threading.Event()
        self._start: Optional[float] = None

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> ClusterMailbox:
        mailbox = self._substrate.coordinator.lease_mailbox(self.session_id, name)
        self._leased.append(mailbox)
        return mailbox

    def spawn(
        self,
        body: Any,
        *,
        name: str,
        machine: int = 0,
        coordinator: bool = False,
    ) -> None:
        if coordinator:
            if isinstance(body, WorkerJob):
                body = body.materialize(self)
            self._coordinators.append((body, name))
            return
        if not isinstance(body, WorkerJob):
            raise BackendError(
                "sockets workers run from picklable WorkerJob specs; raw generator "
                "bodies cannot cross a host boundary"
            )
        self._worker_count += 1
        self._worker_jobs.append((body, name))

    def send(
        self,
        source: int,
        destination: int,
        message: Any,
        size_bytes: int,
        mailbox: Mailbox,
    ) -> None:
        assert isinstance(mailbox, ClusterMailbox)
        messages = [message]
        if _faults.ACTIVE is not None:
            replacement = apply_send_faults(mailbox.name, message)
            if replacement is not None:
                messages = replacement
        # Coordinator-side sends go through route() — not straight into the local
        # queue — so they land in the mailbox's replayable log; that log is what a
        # re-executed evaluator on a fresh worker replays after a death.
        for item in messages:
            self._substrate.coordinator.route(mailbox.uid, item)
        with self._lock:
            self._messages += len(messages)
            self._bytes += size_bytes * len(messages)

    def _run(self) -> float:
        self._start = time.perf_counter()
        self._substrate._register(self)
        self._jobs_remaining = len(self._worker_jobs)
        if self._jobs_remaining == 0:
            self._jobs_event.set()
        else:
            self._substrate._submit_jobs(self, self._worker_jobs)
        coordinator_threads = [
            threading.Thread(
                target=self._run_coordinator, args=(body, name), name=name, daemon=True
            )
            for body, name in self._coordinators
        ]
        for thread in coordinator_threads:
            thread.start()
        self._jobs_event.wait()
        for thread in coordinator_threads:
            thread.join()
        if self._errors:
            name, detail = self._errors[0]
            raise BackendError(f"worker {name!r} failed: {detail}")
        return time.perf_counter() - self._start

    @property
    def now(self) -> float:
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start

    def telemetry(self) -> BackendTelemetry:
        with self._lock:
            return BackendTelemetry(
                network_messages=self._messages, network_bytes=self._bytes
            )

    def _close(self) -> None:
        if self._ran and not self._jobs_event.is_set():
            # Torn down mid-flight (an error escaped between run() and result
            # collection, or run() itself raised): unwind coordinators and abort
            # our attempts across the fleet.
            self._failed.set()
            self._substrate._abort_session(self)
            self._jobs_event.wait(timeout=10.0)
        # Nothing can leak on a wedged run: mailbox uids are never reused, and the
        # coordinator drops late frames for released sessions on the floor.
        self._substrate.coordinator.release_session(self.session_id)
        self._leased = []
        self._substrate._unregister(self)

    # ---------------------------------------------------------------- internals

    def _wake_mailboxes(self, reason: str) -> None:
        """Rouse coordinator bodies blocked on leased mailboxes.  Remote receivers
        are woken by their own abort frames; wake tokens never enter the logs."""
        for mailbox in self._leased:
            self._substrate.coordinator.wake_mailbox(mailbox, reason)

    def _account_unsubmitted(self, count: int) -> None:
        """Settle completion accounting for jobs that never reached the cluster."""
        with self._lock:
            self._jobs_remaining -= count
            if self._jobs_remaining <= 0:
                self._jobs_event.set()

    def _job_done(self, name: str, messages: int, size_bytes: int) -> None:
        with self._lock:
            self._messages += messages
            self._bytes += size_bytes
            self._jobs_remaining -= 1
            if self._jobs_remaining <= 0:
                self._jobs_event.set()

    def _job_failed(self, name: str, detail: str) -> None:
        with self._lock:
            self._errors.append((name, detail))
        self._failed.set()
        self._substrate._abort_session(self)
        with self._lock:
            self._jobs_remaining -= 1
            if self._jobs_remaining <= 0:
                self._jobs_event.set()

    def _run_coordinator(self, body: Generator, name: str) -> None:
        try:
            drive(body, lambda mailbox: self._coordinator_receive(mailbox, name))
        except BaseException as error:  # noqa: BLE001 — reported via run()
            with self._lock:
                self._errors.append((name, repr(error)))
            self._failed.set()
            self._substrate._abort_session(self)

    def _coordinator_receive(self, mailbox: ClusterMailbox, who: str) -> Any:
        return blocking_receive(
            mailbox.queue, self.receive_timeout, self._failed, who, mailbox.name
        )
