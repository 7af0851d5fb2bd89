"""The cluster coordinator: shard assignment, mailbox bridging, fault tolerance.

The coordinator is the hub of a star topology.  Every worker holds one TCP
connection to it; every mailbox of every run session logically lives here.  A
message sent anywhere in the cluster arrives at the coordinator exactly once and
is then delivered to whoever receives on that mailbox — a coordinator-side body
(parser, librarian, replay stand-ins) through a local queue, or a remote worker
over its connection.

Three mechanisms give the cluster its paper-faithful fault tolerance, all built
on one invariant: **process bodies are deterministic functions of their mailbox
message sequence** (each body receives from a single mailbox, and the request
protocol has no non-blocking receive, so timing cannot leak into results).

* **Message logs.**  Every message routed to a mailbox is appended to that
  mailbox's log.  A worker *claims* a mailbox before its first receive; the
  claim replays the full log, so an evaluator restarted elsewhere sees exactly
  the message sequence its dead predecessor saw — in the same order.

* **Output suppression.**  Each job tracks how many sends have already been
  forwarded on its behalf (``forwarded``).  A re-executed (or speculative)
  attempt re-produces the identical send sequence, so its first ``forwarded``
  sends are dropped instead of delivered twice; whichever attempt gets ahead
  extends the sequence.  Reports are keyed by region and idempotent.

* **Liveness tracking.**  Death is detected by connection loss (a killed worker
  closes its socket) or by heartbeat expiry (a wedged or partitioned worker goes
  silent).  Orphaned regions are reassigned to the next shard on the consistent
  hash ring with exponential backoff, up to ``max_attempts``; optionally the
  coordinator also launches speculative second attempts for stragglers
  (``speculate_after``) and retries attempts that exceed ``job_timeout``.

Shard placement uses a consistent hash ring over the live workers
(:mod:`repro.cluster.hashing`): a region's key combines its language bundle and
job name, so repeated compiles land regions on the same shard (bundle + warm
caches) while one compile's regions still spread across the fleet.  Language
bundles ship to each shard at most once ever, exactly like the pooled processes
substrate's name-keyed :class:`~repro.backends.base.SharedBundle` scheme.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.backends.base import BackendError, Mailbox, SharedBundle, WakeToken, WorkerJob
from repro.cluster import wire
from repro.cluster.hashing import HashRing
from repro.cluster.membership import WorkerDirectory, WorkerInfo
from repro.resilience import RetryPolicy


class ClusterError(BackendError):
    """Raised when the cluster cannot complete an operation."""


class ClusterMailbox(Mailbox):
    """A coordinator-resident mailbox: a local queue plus a routed message log."""

    __slots__ = ("uid", "queue")

    def __init__(self, name: str, uid: str, fifo: "queue_module.Queue"):
        super().__init__(name)
        self.uid = uid
        self.queue = fifo


def encode_wire_kwargs(value: Any) -> Any:
    """Replace cluster mailboxes with wire references, recursing into containers."""
    if isinstance(value, ClusterMailbox):
        return wire.MailboxRef(value.uid, value.name)
    if isinstance(value, Mailbox):
        raise ClusterError(
            f"mailbox {value.name!r} was not leased from this cluster coordinator "
            "and cannot cross to a sockets worker"
        )
    if isinstance(value, dict):
        return {key: encode_wire_kwargs(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(encode_wire_kwargs(item) for item in value)
    return value


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
        self.attempt_ids: Set[int] = set()
        self.lost = False
        self.writer: Optional[threading.Thread] = None

    def enqueue(self, frame: Tuple) -> None:
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


class _Attempt:
    """One execution of a job on one worker."""

    __slots__ = ("attempt_id", "job", "conn", "sent", "started_at", "state")

    def __init__(self, attempt_id: int, job: "_ClusterJob", conn: _WorkerConn):
        self.attempt_id = attempt_id
        self.job = job
        self.conn = conn
        self.sent = 0                      # SEND frames produced so far
        self.started_at = time.monotonic()
        self.state = "running"             # running | done | aborted | lost


class _ClusterJob:
    """One worker job of one run session, across however many attempts it takes."""

    __slots__ = (
        "job_id", "session", "name", "key", "payload_blob", "shared_keys",
        "timeout", "attempts", "attempts_started", "forwarded", "done",
        "session_aborted", "speculated", "last_started",
    )

    def __init__(self, job_id, session, name, key, payload_blob, shared_keys, timeout):
        self.job_id = job_id
        self.session = session
        self.name = name
        self.key = key
        self.payload_blob = payload_blob
        self.shared_keys = shared_keys
        self.timeout = timeout
        self.attempts: List[_Attempt] = []     # live attempts only
        self.attempts_started = 0
        self.forwarded = 0                     # sends already routed on this job's behalf
        self.done = False
        self.session_aborted = False
        self.speculated = False
        self.last_started = 0.0


class _MailboxState:
    """Routing state for one leased mailbox."""

    __slots__ = ("uid", "name", "session_id", "queue", "log", "claimants")

    def __init__(self, uid: str, name: str, session_id: int):
        self.uid = uid
        self.name = name
        self.session_id = session_id
        self.queue: "queue_module.Queue" = queue_module.Queue()
        self.log: List[Any] = []
        self.claimants: List[_Attempt] = []


class ClusterCoordinator:
    """Accepts workers, assigns sharded jobs, bridges mailboxes, survives deaths."""

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
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        # The one shared backoff vocabulary (repro.resilience) instead of a
        # hand-rolled exponential; same schedule as the old _backoff_delay.
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
        self._threads: List[threading.Thread] = []
        self.directory = WorkerDirectory()
        self._ring = HashRing()
        self._conns: Dict[int, _WorkerConn] = {}
        self._worker_joined = threading.Condition()
        self._mailboxes: Dict[str, _MailboxState] = {}
        self._mailbox_seq = 0
        self._jobs: Dict[int, _ClusterJob] = {}
        self._attempts: Dict[int, _Attempt] = {}
        self._pending: Set[_ClusterJob] = set()
        self._awaiting_worker: List[_ClusterJob] = []
        self._retries: List[Tuple[float, _ClusterJob]] = []
        self._job_seq = 0
        self._attempt_seq = 0
        self._shared_ids: Dict[Tuple, int] = {}
        self._shared_objects: Dict[int, Any] = {}
        self._shared_blobs: Dict[int, bytes] = {}
        self._shared_digests: Dict[int, str] = {}
        self._next_shared_key = 0
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
            conn.enqueue(("shutdown",))
            conn.enqueue(None)
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

    # --------------------------------------------------------------- session API

    def lease_mailbox(self, session_id: int, name: str) -> ClusterMailbox:
        """Create a coordinator-resident mailbox for one run session."""
        with self._lock:
            if self._stopped:
                raise ClusterError("cluster coordinator has been shut down")
            self._mailbox_seq += 1
            uid = f"m{self._mailbox_seq}"
            state = _MailboxState(uid, name, session_id)
            self._mailboxes[uid] = state
        return ClusterMailbox(name, uid, state.queue)

    def release_session(self, session_id: int) -> None:
        """Drop every mailbox (and its log) belonging to ``session_id``."""
        with self._lock:
            doomed = [
                uid
                for uid, state in self._mailboxes.items()
                if state.session_id == session_id
            ]
            for uid in doomed:
                del self._mailboxes[uid]

    def route(self, uid: str, message: Any) -> None:
        """Deliver ``message`` to mailbox ``uid`` (log + local queue + claimants)."""
        with self._lock:
            self._route_locked(uid, message)

    def wake_mailbox(self, mailbox: ClusterMailbox, reason: str) -> None:
        """Rouse a coordinator-side receiver blocked on ``mailbox`` (tokens only —
        wake tokens are control-plane and never enter the replayable message log)."""
        mailbox.queue.put(WakeToken(reason))

    def submit(self, session: Any, name: str, job: WorkerJob) -> int:
        """Assign one worker job to a shard; returns its cluster job id.

        The job is pickled here, in the caller, so unpicklable kwargs fail
        loudly at submit time rather than as a hung run.
        """
        with self._lock:
            if self._stopped:
                raise ClusterError("cluster coordinator has been shut down")
            shared_keys: Dict[str, int] = {}
            bundle_names: List[str] = []
            for argument, obj in job.shared.items():
                key = self._shared_entry_locked(obj)
                shared_keys[argument] = key
                if isinstance(obj, SharedBundle):
                    bundle_names.append(obj.key)
            try:
                payload_blob = pickle.dumps(
                    (job.factory, encode_wire_kwargs(dict(job.kwargs)), shared_keys)
                )
            except ClusterError:
                raise
            except Exception as error:
                raise ClusterError(
                    f"worker job {name!r} is not picklable for the sockets "
                    "substrate; use module-level factories and picklable kwargs"
                ) from error
            self._job_seq += 1
            shard_key = "/".join(bundle_names + [f"s{session.session_id}", name])
            cluster_job = _ClusterJob(
                self._job_seq,
                session,
                name,
                shard_key,
                payload_blob,
                shared_keys,
                session.receive_timeout,
            )
            self._jobs[cluster_job.job_id] = cluster_job
            self._pending.add(cluster_job)
            self.stats.jobs_submitted += 1
        self._start_attempt(cluster_job)
        return cluster_job.job_id

    def abort_session(self, session: Any) -> None:
        """Abort every live attempt of ``session``'s jobs; settle never-ran jobs."""
        settled: List[_ClusterJob] = []
        with self._lock:
            for job in list(self._pending):
                if job.session is not session or job.done:
                    continue
                job.session_aborted = True
                if job in self._awaiting_worker:
                    self._awaiting_worker.remove(job)
                self._retries = [(due, j) for due, j in self._retries if j is not job]
                if not job.attempts:
                    job.done = True
                    self._pending.discard(job)
                    settled.append(job)
                    continue
                for attempt in job.attempts:
                    attempt.conn.enqueue(("abort", attempt.attempt_id))
        for job in settled:
            job.session._job_done(job.name, 0, 0)

    def cluster_stats(self) -> ClusterStats:
        with self._lock:
            snapshot = ClusterStats(**vars(self.stats))
        snapshot.workers_alive = self.directory.alive_count()
        snapshot.workers_total = self.directory.total_count()
        return snapshot

    def worker_ids(self, *, with_work: bool = False) -> List[int]:
        """Alive worker ids; with ``with_work`` only those running an attempt."""
        with self._lock:
            ids = []
            for worker_id, conn in self._conns.items():
                if conn.lost:
                    continue
                if with_work and not conn.attempt_ids:
                    continue
                ids.append(worker_id)
            return sorted(ids)

    def disconnect_worker(self, worker_id: int) -> bool:
        """Sever a worker's connection (fault injection: a network partition)."""
        with self._lock:
            conn = self._conns.get(worker_id)
        if conn is None:
            return False
        conn.close()  # the reader thread observes EOF and runs the death path
        return True

    # -------------------------------------------------------------- shared objects

    def _shared_entry_locked(self, obj: Any) -> int:
        # Same two dedup regimes as the pooled processes substrate: explicit
        # stable names for SharedBundles (one cache entry per language, ships to
        # each shard once ever), component identity for everything else.
        if isinstance(obj, SharedBundle):
            ident: Tuple = ("named", obj.key)
            payload = obj.payload
        else:
            ident = (
                tuple(id(part) for part in obj) if isinstance(obj, tuple) else (id(obj),)
            )
            payload = obj
        key = self._shared_ids.get(ident)
        if key is None:
            key = self._next_shared_key
            self._next_shared_key += 1
            self._shared_ids[ident] = key
            self._shared_objects[key] = payload
        return key

    def _shared_blob_locked(self, key: int) -> bytes:
        blob = self._shared_blobs.get(key)
        if blob is None:
            try:
                blob = pickle.dumps(self._shared_objects[key])
            except Exception as error:
                raise ClusterError(
                    "shared objects (grammar/plan bundles) must be picklable for "
                    "the sockets substrate; use module-level semantic functions"
                ) from error
            self._shared_blobs[key] = blob
        return blob

    def _shared_digest_locked(self, key: int) -> str:
        digest = self._shared_digests.get(key)
        if digest is None:
            from repro.store import content_digest

            digest = content_digest(self._shared_blob_locked(key))
            self._shared_digests[key] = digest
        return digest

    # ----------------------------------------------------------------- placement

    def _start_attempt(self, job: _ClusterJob) -> None:
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

    def _choose_worker_locked(self, job: _ClusterJob) -> Optional[_WorkerConn]:
        busy = {attempt.conn.info.worker_id for attempt in job.attempts}
        for node in self._ring.preference(job.key):
            worker_id = int(node)
            if worker_id in busy:
                continue
            conn = self._conns.get(worker_id)
            if conn is not None and not conn.lost:
                return conn
        return None

    def _launch_on_locked(self, job: _ClusterJob, conn: _WorkerConn) -> None:
        self._attempt_seq += 1
        attempt = _Attempt(self._attempt_seq, job, conn)
        job.attempts.append(attempt)
        job.attempts_started += 1
        job.last_started = attempt.started_at
        self._attempts[attempt.attempt_id] = attempt
        conn.attempt_ids.add(attempt.attempt_id)
        shared_blobs: Dict[int, Any] = {}
        for key in job.shared_keys.values():
            if key in conn.known_keys:
                continue
            blob = self._shared_blob_locked(key)
            digest = self._shared_digest_locked(key)
            if digest in conn.store_digests:
                # The worker holds these exact bytes in its persistent store:
                # ship a reference instead of the (often large) blob.  The key
                # is deliberately NOT marked known: resolution can still fail
                # worker-side (eviction race), and any other in-flight job on
                # this connection must then carry its own ref rather than
                # assume the bundle is cached.  Redundant refs are ~50 bytes
                # and the worker skips keys it has already resolved.
                shared_blobs[key] = wire.StoreRef(digest)
                if key not in conn.ref_keys:
                    conn.ref_keys.add(key)
                    self.stats.bundles_from_store += 1
            else:
                shared_blobs[key] = blob
                self.stats.bundles_shipped += 1
                conn.known_keys.add(key)
        conn.enqueue(
            ("job", attempt.attempt_id, job.name, job.payload_blob, shared_blobs,
             job.timeout)
        )

    def _backoff_delay(self, attempts_started: int) -> float:
        """Backoff before re-running a lost/timed-out attempt (RetryPolicy)."""
        return self._retry_policy.delay(max(1, attempts_started))

    # --------------------------------------------------------------- connections

    def _accept_loop(self) -> None:
        server = self._server
        while True:
            try:
                sock, addr = server.accept()
            except OSError:
                return  # server socket closed by shutdown()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock, addr),
                name=f"repro-cluster-conn-{addr[1]}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

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
                self._handle_frame(conn, frame)
        except (wire.ProtocolError, OSError) as error:
            self._worker_lost(conn, f"connection lost: {error}")

    # ------------------------------------------------------------ frame handling

    def _handle_frame(self, conn: _WorkerConn, frame: Tuple) -> None:
        tag = frame[0]
        if tag == "ping":
            return  # directory.touch already recorded the proof of life
        if tag == "claim":
            _, attempt_id, uid = frame
            with self._lock:
                attempt = self._attempts.get(attempt_id)
                state = self._mailboxes.get(uid)
                if attempt is None or state is None or attempt.state != "running":
                    return
                if attempt not in state.claimants:
                    state.claimants.append(attempt)
                    for message in state.log:
                        conn.enqueue(("deliver", attempt_id, uid, message))
            return
        if tag == "send":
            _, attempt_id, uid, message, size_bytes = frame
            with self._lock:
                attempt = self._attempts.get(attempt_id)
                if attempt is None:
                    return
                job = attempt.job
                attempt.sent += 1
                if attempt.sent <= job.forwarded:
                    # A prior (or concurrent) attempt of this deterministic job
                    # already delivered this very message: drop the duplicate.
                    self.stats.sends_suppressed += 1
                    return
                job.forwarded = attempt.sent
                # Worker-side send totals come back with the "done" frame (exactly
                # like the pooled processes substrate), so nothing is counted here.
                self._route_locked(uid, message)
            return
        if tag == "report":
            _, attempt_id, region_id, report = frame
            with self._lock:
                attempt = self._attempts.get(attempt_id)
                if attempt is None:
                    return
                session = attempt.job.session
            session._reports[region_id] = report
            return
        if tag == "done":
            _, attempt_id, messages, size_bytes = frame
            self._attempt_finished(attempt_id, messages, size_bytes)
            return
        if tag == "aborted":
            self._attempt_aborted(frame[1])
            return
        if tag == "error":
            _, attempt_id, detail = frame
            self._attempt_errored(attempt_id, detail)
            return
        if tag == "bundle_miss":
            _, attempt_id, shared_key, digest = frame
            self._bundle_missed(attempt_id, shared_key, digest)
            return

    def _retire_attempt_locked(self, attempt: _Attempt, state: str) -> None:
        attempt.state = state
        self._attempts.pop(attempt.attempt_id, None)
        attempt.conn.attempt_ids.discard(attempt.attempt_id)
        if attempt in attempt.job.attempts:
            attempt.job.attempts.remove(attempt)
        for mailbox in self._mailboxes.values():
            if attempt in mailbox.claimants:
                mailbox.claimants.remove(attempt)

    def _attempt_finished(self, attempt_id: int, messages: int, size_bytes: int) -> None:
        with self._lock:
            attempt = self._attempts.get(attempt_id)
            if attempt is None:
                return
            job = attempt.job
            self._retire_attempt_locked(attempt, "done")
            if job.done:
                return
            job.done = True
            self._pending.discard(job)
            self.stats.jobs_completed += 1
            for sibling in list(job.attempts):
                sibling.conn.enqueue(("abort", sibling.attempt_id))
            session = job.session
        session._job_done(job.name, messages, size_bytes)

    def _attempt_aborted(self, attempt_id: int) -> None:
        settle = False
        with self._lock:
            attempt = self._attempts.get(attempt_id)
            if attempt is None:
                return
            job = attempt.job
            self._retire_attempt_locked(attempt, "aborted")
            # Settle completion accounting exactly once for session-initiated
            # aborts; timeout-retired attempts and speculative losers are not
            # completions — their job either retries or already finished.
            if not job.done and job.session_aborted and not job.attempts:
                job.done = True
                self._pending.discard(job)
                settle = True
            session = job.session
        if settle:
            session._job_done(job.name, 0, 0)

    def _bundle_missed(self, attempt_id: int, shared_key: int, digest: str) -> None:
        """A worker could not resolve a shipped :class:`wire.StoreRef`.

        Benign and self-correcting: stop advertising that digest for this
        worker, forget that the connection "knows" the shared key, and relaunch
        — the next attempt ships real bytes.  The miss is not a body error (no
        job code ran) and not a worker death, so it neither fails the job nor
        burns one of its retry attempts.
        """
        relaunch: Optional[_ClusterJob] = None
        with self._lock:
            attempt = self._attempts.get(attempt_id)
            if attempt is None:
                return
            job = attempt.job
            attempt.conn.store_digests.discard(digest)
            attempt.conn.known_keys.discard(shared_key)
            attempt.conn.ref_keys.discard(shared_key)
            self._retire_attempt_locked(attempt, "lost")
            self.stats.bundle_misses += 1
            if job.done or job.session_aborted or job.attempts:
                return
            job.attempts_started = max(0, job.attempts_started - 1)
            relaunch = job
        if relaunch is not None:
            self._start_attempt(relaunch)

    def _attempt_errored(self, attempt_id: int, detail: str) -> None:
        """A body raised: deterministic failure, so retrying cannot help."""
        with self._lock:
            attempt = self._attempts.get(attempt_id)
            if attempt is None:
                return
            job = attempt.job
            self._retire_attempt_locked(attempt, "done")
            if job.done:
                return
            job.done = True
            self._pending.discard(job)
            self.stats.jobs_failed += 1
            for sibling in list(job.attempts):
                sibling.conn.enqueue(("abort", sibling.attempt_id))
            session = job.session
        session._job_failed(job.name, detail)

    # ------------------------------------------------------------ fault handling

    def _worker_lost(self, conn: _WorkerConn, reason: str) -> None:
        """A worker died (socket loss) or was declared dead (heartbeat expiry):
        reassign its orphaned attempts with backoff, or fail jobs out of retries."""
        settled: List[_ClusterJob] = []
        failed: List[Tuple[_ClusterJob, str]] = []
        need_worker = False
        with self._lock:
            if conn.lost:
                return
            conn.lost = True
            self.directory.mark_dead(conn.info.worker_id, reason)
            self._ring.remove(str(conn.info.worker_id))
            self._conns.pop(conn.info.worker_id, None)
            conn.outbound.put(None)  # retire the writer thread
            orphaned = [
                self._attempts[attempt_id]
                for attempt_id in list(conn.attempt_ids)
                if attempt_id in self._attempts
            ]
            for attempt in orphaned:
                self._retire_attempt_locked(attempt, "lost")
            jobs = {attempt.job for attempt in orphaned}
            for job in jobs:
                if job.done:
                    continue
                if job.session_aborted:
                    if not job.attempts:
                        job.done = True
                        self._pending.discard(job)
                        settled.append(job)
                    continue
                if job.attempts:
                    continue  # a speculative sibling is still running the region
                if job.attempts_started >= self.max_attempts:
                    job.done = True
                    self._pending.discard(job)
                    self.stats.jobs_failed += 1
                    failed.append(
                        (job, f"{conn.info.label} lost ({reason}); "
                              f"{job.attempts_started} attempt(s) exhausted")
                    )
                    continue
                self.stats.reassignments += 1
                due = time.monotonic() + self._backoff_delay(job.attempts_started)
                self._retries.append((due, job))
                need_worker = True
        conn.close()
        if need_worker and self._worker_request is not None:
            self._worker_request()
        for job in settled:
            job.session._job_done(job.name, 0, 0)
        for job, detail in failed:
            job.session._job_failed(job.name, detail)

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

            due_jobs: List[_ClusterJob] = []
            with self._lock:
                still_waiting = []
                for due, job in self._retries:
                    if due <= now:
                        due_jobs.append(job)
                    else:
                        still_waiting.append((due, job))
                self._retries = still_waiting
            for job in due_jobs:
                self._start_attempt(job)

            speculate: List[_ClusterJob] = []
            timed_out: List[_Attempt] = []
            with self._lock:
                for job in self._pending:
                    if job.done or job.session_aborted or not job.attempts:
                        continue
                    if (
                        self.speculate_after is not None
                        and not job.speculated
                        and len(job.attempts) == 1
                        and now - job.last_started > self.speculate_after
                    ):
                        speculate.append(job)
                    if self.job_timeout is not None:
                        timed_out.extend(
                            attempt for attempt in job.attempts
                            if now - attempt.started_at > self.job_timeout
                        )
            for job in speculate:
                with self._lock:
                    if job.done or job.speculated:
                        continue
                    conn = self._choose_worker_locked(job)
                    if conn is None:
                        continue
                    job.speculated = True
                    self.stats.speculative_attempts += 1
                    self._launch_on_locked(job, conn)
            for attempt in timed_out:
                self._retry_timed_out(attempt)

            time.sleep(0.02)

    def _retry_timed_out(self, attempt: _Attempt) -> None:
        """Coordinator-side timeout: retire one overdue attempt, retry with backoff."""
        failed_detail = None
        with self._lock:
            if attempt.attempt_id not in self._attempts:
                return
            job = attempt.job
            attempt.conn.enqueue(("abort", attempt.attempt_id))
            self._retire_attempt_locked(attempt, "aborted")
            if job.done or job.session_aborted or job.attempts:
                return
            self.stats.timeout_retries += 1
            if job.attempts_started >= self.max_attempts:
                job.done = True
                self._pending.discard(job)
                self.stats.jobs_failed += 1
                failed_detail = (
                    f"attempt timed out after {self.job_timeout:.1f}s; "
                    f"{job.attempts_started} attempt(s) exhausted"
                )
            else:
                self.stats.reassignments += 1
                due = time.monotonic() + self._backoff_delay(job.attempts_started)
                self._retries.append((due, job))
        if failed_detail is not None:
            job.session._job_failed(job.name, failed_detail)

    # ----------------------------------------------------------------- routing

    def _route_locked(self, uid: str, message: Any) -> None:
        state = self._mailboxes.get(uid)
        if state is None:
            return  # a late message for a released session: drop it
        state.log.append(message)
        state.queue.put(message)
        for attempt in state.claimants:
            if attempt.state == "running":
                attempt.conn.enqueue(("deliver", attempt.attempt_id, uid, message))
