"""The cluster coordinator: connections, shard placement, liveness, and its retries.

The coordinator is the hub of a star topology: every worker holds one TCP connection
to it.  What a compile needs from the driving process — sessions, replayable
mailboxes, the attempt book that forwards each send of a job once and settles each job
once, and the bundle registry — is the coordinator core in
:mod:`repro.backends.routing`, shared with the pooled ``processes`` substrate.  A frame
a worker writes is that core's record, and goes to :meth:`AttemptBook.handle
<repro.backends.routing.AttemptBook.handle>` as it is.

What is the cluster's own is here:

* **Connections.**  Accept, handshake, and a reader and a writer thread per worker.
* **Placement.**  A consistent hash ring over the live workers
  (:mod:`repro.cluster.hashing`): a region's key combines its language bundle and job
  name, so repeated compiles land regions on the same shard (bundle + warm caches)
  while one compile's regions still spread across the fleet.
* **Liveness.**  Death is detected by connection loss (a killed worker closes its
  socket) or by heartbeat expiry (a wedged or partitioned worker goes silent).  An
  orphaned job runs again on the next shard of the ring after an exponential backoff,
  up to ``max_attempts``; optionally the coordinator also launches a speculative
  second attempt for a straggler (``speculate_after``) and gives up on an attempt that
  exceeds ``job_timeout``.
* **Bundles by reference.**  A worker with a persistent store advertises the digests
  it holds; the coordinator then ships a :class:`~repro.cluster.wire.StoreRef` instead
  of the bytes, and re-ships the bytes after a ``bundle_miss``.
"""

from __future__ import annotations

import queue as queue_module
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.backends.base import BackendError, SharedBundle
from repro.backends.routing import Attempt, AttemptBook, BundleRegistry, Job
from repro.cluster import wire
from repro.cluster.hashing import HashRing
from repro.cluster.membership import WorkerDirectory, WorkerInfo
from repro.resilience import RetryPolicy


class ClusterError(BackendError):
    """Raised when the cluster cannot complete an operation."""


@dataclass
class ClusterStats:
    """Point-in-time counters of one coordinator's lifetime."""

    workers_alive: int = 0
    workers_total: int = 0
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    #: Orphaned-region reassignments after a worker death or attempt timeout.
    reassignments: int = 0
    #: Speculative second attempts launched for stragglers.
    speculative_attempts: int = 0
    #: Workers declared dead because their heartbeats went silent.
    heartbeat_timeouts: int = 0
    #: Attempts retired because they exceeded the coordinator-side job timeout.
    timeout_retries: int = 0
    #: Duplicate sends dropped by deterministic output suppression.
    sends_suppressed: int = 0
    #: Grammar/plan bundles actually shipped (cache misses across the fleet).
    bundles_shipped: int = 0
    #: Bundle ships avoided because the worker resolved a store reference
    #: (it advertised the blob's content digest at handshake).
    bundles_from_store: int = 0
    #: Store references the worker could not resolve after all (the bytes were
    #: re-shipped; costs one round trip, never correctness).
    bundle_misses: int = 0
    frames_sent: int = 0
    frames_received: int = 0

    def summary(self) -> str:
        return (
            f"cluster: {self.workers_alive}/{self.workers_total} worker(s) alive, "
            f"{self.jobs_completed} job(s) done / {self.jobs_failed} failed, "
            f"{self.reassignments} reassignment(s), "
            f"{self.speculative_attempts} speculative attempt(s), "
            f"{self.sends_suppressed} duplicate send(s) suppressed, "
            f"{self.bundles_shipped} bundle(s) shipped "
            f"({self.bundles_from_store} from worker stores)"
        )


class _WorkerConn:
    """Coordinator-side handle for one connected worker."""

    def __init__(self, info: WorkerInfo, sock: socket.socket):
        self.info = info
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("wb")
        self.outbound: "queue_module.SimpleQueue[Optional[Any]]" = queue_module.SimpleQueue()
        self.known_keys: Set[int] = set()
        #: Bundle content digests this worker advertised at handshake (it holds
        #: them in its persistent store): ship StoreRefs, not bytes.
        self.store_digests: Set[str] = set()
        #: Shared keys already offered to this worker as StoreRefs (stats dedup).
        self.ref_keys: Set[int] = set()
        #: The attempts it runs (the book keeps them).
        self.attempts: Set[Attempt] = set()
        self.lost = False
        self.writer: Optional[threading.Thread] = None

    def post(self, frame: Tuple) -> None:
        self.outbound.put(frame)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def _shard_key(job: Job) -> str:
    bundles = [obj.key for obj in job.spec.shared.values() if isinstance(obj, SharedBundle)]
    return "/".join(bundles + [f"s{job.session.session_id}", job.name])


class ClusterCoordinator:
    """Accepts workers, places sharded jobs, and runs them again when workers die."""

    #: How long an exponential retry backoff may grow (seconds).
    MAX_BACKOFF = 2.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 10.0,
        max_attempts: int = 3,
        retry_backoff: float = 0.05,
        speculate_after: Optional[float] = None,
        job_timeout: Optional[float] = None,
        worker_request: Optional[Callable[[], None]] = None,
    ):
        self.book = AttemptBook(max_attempts)
        self.bundles = BundleRegistry()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        # The one shared backoff vocabulary (repro.resilience) instead of a
        # hand-rolled exponential.
        self._retry_policy = RetryPolicy(
            max_attempts=max_attempts,
            base_delay=retry_backoff,
            max_delay=self.MAX_BACKOFF,
        )
        self.speculate_after = speculate_after
        self.job_timeout = job_timeout
        self._worker_request = worker_request
        self._bind_host, self._bind_port = host, port
        self._lock = threading.RLock()
        self._server: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._monitor_thread: Optional[threading.Thread] = None
        self.directory = WorkerDirectory()
        self._ring = HashRing()
        self._conns: Dict[int, _WorkerConn] = {}
        self._worker_joined = threading.Condition()
        self._awaiting_worker: List[Job] = []
        self._retries: List[Tuple[float, Job]] = []
        self._shared_digests: Dict[int, str] = {}
        self.stats = ClusterStats()
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> "ClusterCoordinator":
        with self._lock:
            if self._stopped:
                raise ClusterError("cluster coordinator has been shut down")
            if self._started:
                return self
            self._started = True
            server = socket.create_server(
                (self._bind_host, self._bind_port), reuse_port=False
            )
            server.listen(64)
            self._server = server
            self._address = server.getsockname()[:2]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-cluster-accept", daemon=True
            )
            self._accept_thread.start()
            self._monitor_thread = threading.Thread(
                target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
            )
            self._monitor_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` workers connect to (valid after :meth:`start`)."""
        if self._address is None:
            raise ClusterError("cluster coordinator not started")
        return self._address

    def shutdown(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            conns = list(self._conns.values())
            server = self._server
        for conn in conns:
            conn.post(("shutdown",))
            conn.post(None)
        if server is not None:
            # close() alone leaves a thread blocked in accept() asleep on Linux;
            # shutting the listening socket down first makes accept() return.
            try:
                server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                server.close()
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for conn in conns:
            if conn.writer is not None:
                conn.writer.join(timeout=max(0.0, deadline - time.monotonic()))
            conn.close()
        for thread in (self._accept_thread, self._monitor_thread):
            if thread is not None:
                thread.join(timeout=5.0)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` workers are alive (or the timeout elapses)."""
        deadline = time.monotonic() + timeout
        with self._worker_joined:
            while self.directory.alive_count() < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._worker_joined.wait(timeout=remaining)
        return self.directory.alive_count()

    # ------------------------------------------------------------------- queries

    def place(self, jobs: List[Job]) -> None:
        """Start a first attempt of each job on its preferred live shard."""
        with self._lock:
            if self._stopped:
                raise ClusterError("cluster coordinator has been shut down")
            self.stats.jobs_submitted += len(jobs)
        for job in jobs:
            self._start_attempt(job)

    def cluster_stats(self) -> ClusterStats:
        with self._lock:
            snapshot = ClusterStats(**vars(self.stats))
        snapshot.jobs_completed = self.book.completed
        snapshot.jobs_failed = self.book.failed
        snapshot.sends_suppressed = self.book.suppressed
        snapshot.workers_alive = self.directory.alive_count()
        snapshot.workers_total = self.directory.total_count()
        return snapshot

    def worker_ids(self, *, with_work: bool = False) -> List[int]:
        """Alive worker ids; with ``with_work`` only those running an attempt."""
        with self._lock:
            return sorted(
                worker_id
                for worker_id, conn in self._conns.items()
                if not conn.lost and (conn.attempts or not with_work)
            )

    def disconnect_worker(self, worker_id: int) -> bool:
        """Sever a worker's connection (fault injection: a network partition)."""
        with self._lock:
            conn = self._conns.get(worker_id)
        if conn is None:
            return False
        conn.close()  # the reader thread observes EOF and runs the death path
        return True

    # ----------------------------------------------------------------- placement

    def _shared_digest_locked(self, key: int) -> str:
        digest = self._shared_digests.get(key)
        if digest is None:
            from repro.store import content_digest

            digest = content_digest(self.bundles.blob(key))
            self._shared_digests[key] = digest
        return digest

    def _start_attempt(self, job: Job) -> None:
        """Launch the next attempt of ``job`` on its preferred live shard."""
        request_worker = None
        with self._lock:
            if self._stopped or job.done:
                return
            conn = self._choose_worker_locked(job)
            if conn is None:
                if job not in self._awaiting_worker:
                    self._awaiting_worker.append(job)
                request_worker = self._worker_request
            else:
                self._launch_on_locked(job, conn)
        if request_worker is not None:
            request_worker()

    def _choose_worker_locked(self, job: Job) -> Optional[_WorkerConn]:
        busy = {attempt.worker.info.worker_id for attempt in list(job.attempts)}
        for node in self._ring.preference(_shard_key(job)):
            worker_id = int(node)
            if worker_id in busy:
                continue
            conn = self._conns.get(worker_id)
            if conn is not None and not conn.lost:
                return conn
        return None

    def _launch_on_locked(self, job: Job, conn: _WorkerConn) -> None:
        shipped: Dict[int, Any] = {}
        for key in job.shared_keys.values():
            if key in conn.known_keys:
                continue
            blob = self.bundles.blob(key)
            digest = self._shared_digest_locked(key)
            shipped[key] = wire.StoreRef(digest) if digest in conn.store_digests else blob
        attempt = self.book.start(job, conn)
        if attempt is None:
            return
        for key, blob in shipped.items():
            if isinstance(blob, wire.StoreRef):
                # The worker holds these exact bytes in its persistent store: a
                # reference instead of the (often large) blob.  The key is
                # deliberately NOT marked known: resolution can still fail
                # worker-side (eviction race), and any other in-flight job on this
                # connection must then carry its own ref rather than assume the
                # bundle is cached.  Redundant refs are ~50 bytes and the worker
                # skips keys it has already resolved.
                if key not in conn.ref_keys:
                    conn.ref_keys.add(key)
                    self.stats.bundles_from_store += 1
            else:
                self.stats.bundles_shipped += 1
                conn.known_keys.add(key)
        conn.post(("job", attempt.attempt_id, job.name, job.payload, shipped,
                   job.session.receive_timeout))

    def _retry_later(self, jobs: List[Job]) -> None:
        """Run each job again after its backoff, and ask for a worker if managed."""
        if not jobs:
            return
        with self._lock:
            for job in jobs:
                self.stats.reassignments += 1
                due = time.monotonic() + self._retry_policy.delay(max(1, job.started))
                self._retries.append((due, job))
        if self._worker_request is not None:
            self._worker_request()

    # --------------------------------------------------------------- connections

    def _accept_loop(self) -> None:
        server = self._server
        while True:
            try:
                sock, addr = server.accept()
            except OSError:
                return  # server socket closed by shutdown()
            threading.Thread(
                target=self._serve_connection,
                args=(sock, addr),
                name=f"repro-cluster-conn-{addr[1]}",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket, addr: Tuple) -> None:
        address = f"{addr[0]}:{addr[1]}"
        try:
            sock.settimeout(10.0)
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            greeting = wire.check_handshake(wire.recv_message(rfile))
            if greeting.get("role") != "worker":
                wire.send_message(wfile, wire.reject(
                    f"unsupported role {greeting.get('role')!r}"
                ))
                sock.close()
                return
        except (wire.ProtocolError, OSError) as error:
            try:
                wire.send_message(sock.makefile("wb"), wire.reject(str(error)))
            except Exception:
                pass
            sock.close()
            return
        info = self.directory.register(
            greeting.get("name") or address, address, greeting.get("capabilities", {})
        )
        conn = _WorkerConn(info, sock)
        conn.rfile, conn.wfile = rfile, wfile
        advertised = greeting.get("capabilities", {}).get("bundle_digests")
        if isinstance(advertised, (list, tuple, set)):
            conn.store_digests = {d for d in advertised if isinstance(d, str)}
        with self._lock:
            if self._stopped:
                sock.close()
                return
            # The writer runs before the connection is visible: shutdown() joins
            # the writer of every connection it finds in ``_conns``, and a thread
            # that has not been started cannot be joined.
            conn.writer = threading.Thread(
                target=self._writer_loop, args=(conn,),
                name=f"repro-cluster-writer-{info.worker_id}", daemon=True,
            )
            conn.writer.start()
            self._conns[info.worker_id] = conn
            self._ring.add(str(info.worker_id))
            waiting = list(self._awaiting_worker)
            self._awaiting_worker = []
        try:
            wire.send_message(conn.wfile, wire.welcome(info.worker_id, self.heartbeat_interval))
        except (wire.ProtocolError, OSError) as error:
            self._worker_lost(conn, f"handshake reply failed: {error}")
            return
        sock.settimeout(None)
        with self._worker_joined:
            self._worker_joined.notify_all()
        for job in waiting:
            self._start_attempt(job)
        self._reader_loop(conn)

    def _writer_loop(self, conn: _WorkerConn) -> None:
        while True:
            frame = conn.outbound.get()
            if frame is None:
                return
            try:
                wire.send_message(conn.wfile, frame)
            except (wire.ProtocolError, OSError) as error:
                self._worker_lost(conn, f"send failed: {error}")
                return
            with self._lock:
                self.stats.frames_sent += 1

    def _reader_loop(self, conn: _WorkerConn) -> None:
        try:
            while True:
                frame = wire.recv_message(conn.rfile)
                self.directory.touch(conn.info.worker_id)
                with self._lock:
                    self.stats.frames_received += 1
                tag = frame[0]
                if tag == "bundle_miss":
                    self._bundle_missed(*frame[1:])
                elif tag != "ping":  # a ping's proof of life is the touch above
                    self.book.handle(frame)
        except (wire.ProtocolError, OSError) as error:
            self._worker_lost(conn, f"connection lost: {error}")

    def _bundle_missed(self, attempt_id: int, shared_key: int, digest: str) -> None:
        """A worker could not resolve a shipped :class:`wire.StoreRef`.

        Benign and self-correcting: stop advertising that digest for this worker,
        forget that the connection "knows" the shared key, and relaunch — the next
        attempt ships real bytes.  The miss is not a body error (no job code ran) and
        not a worker death, so it neither fails the job nor spends one of its attempts.
        """
        attempt = self.book.attempt(attempt_id)
        if attempt is None:
            return
        with self._lock:
            conn = attempt.worker
            conn.store_digests.discard(digest)
            conn.known_keys.discard(shared_key)
            conn.ref_keys.discard(shared_key)
            self.stats.bundle_misses += 1
        job = self.book.lost(attempt, "bundle miss", refund=True)
        if job is not None:
            self._start_attempt(job)

    # ------------------------------------------------------------ fault handling

    def _worker_lost(self, conn: _WorkerConn, reason: str) -> None:
        """A worker died (socket loss) or was declared dead (heartbeat expiry): its
        attempts are lost, and their jobs run again with backoff or fail out of
        attempts."""
        with self._lock:
            if conn.lost:
                return
            conn.lost = True
            self.directory.mark_dead(conn.info.worker_id, reason)
            self._ring.remove(str(conn.info.worker_id))
            self._conns.pop(conn.info.worker_id, None)
            conn.outbound.put(None)  # retire the writer thread
            orphaned = list(conn.attempts)
        conn.close()
        detail = f"{conn.info.label} lost ({reason})"
        self._retry_later([
            job for job in (self.book.lost(attempt, detail) for attempt in orphaned)
            if job is not None
        ])

    def _monitor_loop(self) -> None:
        """Heartbeat expiry, due retries, stragglers and job timeouts."""
        while True:
            with self._lock:
                if self._stopped:
                    return
            now = time.monotonic()

            for info in self.directory.expired(self.heartbeat_timeout):
                with self._lock:
                    conn = self._conns.get(info.worker_id)
                    self.stats.heartbeat_timeouts += 1
                if conn is not None:
                    self._worker_lost(conn, "heartbeat timeout")

            with self._lock:
                due = [job for when, job in self._retries if when <= now]
                self._retries = [(when, job) for when, job in self._retries if when > now]
            for job in due:
                self._start_attempt(job)

            speculate: List[Job] = []
            timed_out: List[Attempt] = []
            for attempt in self.book.live():
                job = attempt.job
                if job.done or job.aborted:
                    continue
                if (
                    self.speculate_after is not None
                    and job.started == 1
                    and len(job.attempts) == 1
                    and now - attempt.started_at > self.speculate_after
                ):
                    speculate.append(job)
                if self.job_timeout is not None and now - attempt.started_at > self.job_timeout:
                    timed_out.append(attempt)
            for job in speculate:
                with self._lock:
                    conn = self._choose_worker_locked(job)
                    if conn is None or job.done or job.started > 1:
                        continue
                    self.stats.speculative_attempts += 1
                    self._launch_on_locked(job, conn)
            for attempt in timed_out:
                attempt.worker.post(("abort", attempt.attempt_id))
                job = self.book.lost(
                    attempt, f"attempt timed out after {self.job_timeout:.1f}s"
                )
                if job is not None:
                    with self._lock:
                        self.stats.timeout_retries += 1
                    self._retry_later([job])

            time.sleep(0.02)
