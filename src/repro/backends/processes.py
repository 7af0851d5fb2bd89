"""The multiprocessing backend: real OS processes with pickled protocol messages.

Whatever leaves a process — linearized subtrees, boundary attribute values, code
fragments, descriptors, results — is pickled by its sender and unpickled by its
reader, exactly like bytes on a wire; a message between two bodies of the driving
process is handed over as the object it is.

Two lifecycles are provided:

* :class:`ProcessesSubstrate` — the persistent pool.  ``start()`` forks long-lived
  worker processes that read *job specs* (picklable :class:`~repro.backends.base.WorkerJob`
  descriptions, not generators) from a pipe of their own and survive across
  compilations, so fork cost is paid once, not per compile.  Large immutable objects
  (grammar + evaluation plan bundles) are shipped to each worker once and cached there
  by key.  The pool grows on demand (``fork`` start method), and many run sessions may
  be in flight concurrently.  Its message plane:

  - **worker → parent**: every worker owns the write end of one one-way pipe,
    created at its fork.  Each record (``send``, ``claim``, ``report`` and the final
    ``done``/``aborted``/``error``) is pickled and written by the call that produces
    it, so it is on the wire when the call returns.  A worker runs one thread and
    takes no lock to write: killing it can only truncate its own stream.
  - **dispatcher**: one parent thread sleeps in ``multiprocessing.connection.wait``
    over every worker's pipe and process sentinel (plus a wake pipe for pool
    changes and shutdown); a record is routed when it lands and a death is handled
    when it happens.  It routes a worker's message without opening it: the message
    travels inside its record as the bytes the worker pickled, and whoever reads the
    mailbox unpickles them — so the time the dispatcher spends on a record does
    not grow with the message (a thread woken by a pipe write tends to run on the
    writer's core, and the writer waits it out).
  - **mailboxes** are leased per session.  A mailbox read by a coordinator body in
    the driving process (parser, librarian, replay bodies) is a ``queue.SimpleQueue``
    inside that process: what another coordinator sends arrives as the object
    itself, what a worker sends as its pickled bytes, nothing crosses a pipe again.
    A mailbox read by a worker job is one of a fixed registry of
    ``multiprocessing.Queue`` slots created before the first fork (so every child
    inherits every handle it will need), written only by the parent and buffered
    there, so the dispatcher never waits for a worker to read.  Which of the two a
    mailbox is, is decided by its first reader: every delivery is logged, and the
    log is handed over when a coordinator first reads the mailbox or a worker's
    ``claim`` for it arrives.
  - **lifetime**: a child closes every pipe end that belongs to the parent, so the
    pipes reach end-of-file exactly when the driving process is gone (or shuts the
    pool down).  An idle worker then reads EOF on its job pipe, a busy one finds its
    record pipe broken or sees the EOF while waiting on a mailbox; all of them exit.

* :class:`ProcessesBackend` — the legacy one-shot API.  Workers are forked *after*
  the coordinator has built the grammar and every process body, so the process bodies
  are inherited copy-on-write and never serialised; this is the only processes path
  that can run arbitrary in-memory generators (and unpicklable grammars).  Its
  mailboxes and its control channel are ``multiprocessing.Queue`` instances.

Placement (both lifecycles): worker bodies (the evaluators) execute on forked OS
processes; coordinator bodies (parser, librarian) run on threads inside the driving
process, where they can share the compilation outcome with the caller.  Worker reports
come back out-of-band via ``publish_report``.

Requires a POSIX ``fork`` start method (Linux/macOS); on platforms without it,
construction raises :class:`BackendError` — use the threads backend there.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue as queue_module
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    FaultError,
    Mailbox,
    SharedBundle,
    Substrate,
    WakeToken,
    WorkerJob,
    apply_receive_faults,
    apply_send_faults,
    blocking_receive,
    deadline_get,
    drain_fifo,
    drive,
    freeze_inherited_heap,
)
from repro.backends.threads import QueueMailbox
from repro.faults import plan as _faults
from repro.faults.plan import FaultPlan


#: Held across every fork this module makes, and around every change to
#: :data:`_PARENT_ENDS`.  A child inherits a copy of each descriptor open in the
#: parent at the instant of the fork; with forks serialised, the child-side end of a
#: worker's pipe exists in the parent only between its creation and its close a few
#: lines later, so no sibling can inherit it and keep the pipe from reaching EOF.
_FORK_LOCK = threading.Lock()

#: Every pipe end the driving process holds for its pooled workers (all substrates):
#: job-pipe write ends, record-pipe read ends, dispatcher wake pipes.  A forked child
#: closes its copies first thing (:func:`_drop_parent_ends`).
_PARENT_ENDS: Set[Any] = set()


def _close_parent_ends(*ends: Any) -> None:
    with _FORK_LOCK:
        _PARENT_ENDS.difference_update(ends)
    for end in ends:
        end.close()


def _drop_parent_ends() -> None:
    """First call of a forked child: close its copies of the parent's pipe ends.

    The child's :data:`_PARENT_ENDS` is the parent's as of the fork.  With these
    closed, each pipe reaches EOF exactly when the driving process lets go of it —
    by shutting a pool down, or by dying.
    """
    for end in _PARENT_ENDS:
        end.close()
    _PARENT_ENDS.clear()


# ---------------------------------------------------------------------------- wire


@dataclass(frozen=True)
class _MailboxRef:
    """Registry index standing in for a mailbox inside a pickled job spec."""

    index: int
    name: str


class RegistryMailbox(QueueMailbox):
    """A mailbox leased from a :class:`ProcessesSubstrate` registry slot.

    ``queue`` is the slot's ``multiprocessing.Queue``, the transport a worker job
    reads.  In the driving process the mailbox also carries the ``log`` of every
    message delivered to it and its ``sink`` — where deliveries go once the reader is
    known: ``None`` until the first read, then a ``queue.SimpleQueue`` (a coordinator
    body reads it) or ``queue`` itself (a worker claimed it).
    """

    __slots__ = ("index", "log", "sink")

    def __init__(self, name: str, fifo: Any, index: int):
        super().__init__(name, fifo)
        self.index = index
        self.log: List[Any] = []
        self.sink: Optional[Any] = None


class _Sealed:
    """A worker's message as the bytes the worker pickled it to.

    The dispatcher logs and routes it unopened; the mailbox's reader unpickles it —
    a coordinator thread straight from its queue, another worker after one more
    copy of the same bytes through its mailbox queue.
    """

    __slots__ = ("blob",)

    def __init__(self, blob: bytes):
        self.blob = blob

    def __reduce__(self) -> Tuple:
        return _Sealed, (self.blob,)


def _opened(message: Any) -> Any:
    """What a mailbox read returns: the message itself, unpickled if it was sealed."""
    return pickle.loads(message.blob) if type(message) is _Sealed else message


def _encode_wire(value: Any) -> Any:
    """Replace mailboxes with registry references, recursing into containers."""
    if isinstance(value, RegistryMailbox):
        return _MailboxRef(value.index, value.name)
    if isinstance(value, Mailbox):
        raise BackendError(
            f"mailbox {value.name!r} was not leased from this substrate's registry "
            "and cannot cross to a pooled worker"
        )
    if isinstance(value, dict):
        return {key: _encode_wire(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_encode_wire(item) for item in value)
    return value


def _decode_wire(value: Any, registry: List[Any]) -> Any:
    """Child-side inverse of :func:`_encode_wire`.

    Mailboxes decode to :class:`RegistryMailbox` (index preserved) so the child
    transport can name the destination slot in routed sends and claims.
    """
    if isinstance(value, _MailboxRef):
        return RegistryMailbox(value.name, registry[value.index], value.index)
    if isinstance(value, dict):
        return {key: _decode_wire(item, registry) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_decode_wire(item, registry) for item in value)
    return value


# ---------------------------------------------------------------------- child side


class _JobAborted(Exception):
    """Raised inside a pooled worker when the parent flags the current job aborted."""


class _ParentGone(Exception):
    """Raised inside a pooled worker whose pipes to the driving process have closed.

    Either the parent died or it shut the pool down; there is nobody left to report
    to, so the worker unwinds and exits.
    """


def _write_record(records: Any, record: Tuple) -> None:
    """Pickle one record and write it to the worker's record pipe, in the caller.

    A record that does not pickle raises here, inside the job that produced it.
    """
    blob = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
    try:
        records.send_bytes(blob)
    except OSError as error:  # EPIPE: the only reader was the driving process
        raise _ParentGone() from error


class _ChildTransport:
    """The Backend facade seen by a job running inside a pooled worker process.

    Sends do not touch the destination mailbox: they travel to the parent on the
    worker's record pipe (``("send", session, job, seq, mailbox index, pickled
    message)``) and the dispatcher routes them.  That single hop is what makes
    pooled-worker death recoverable: the parent logs every message per mailbox, so
    a respawned worker can replay the job from the full history, and the per-job
    send sequence number lets the parent suppress the replay's duplicate outputs
    — the same claim/log/forwarded design the sockets cluster coordinator uses.
    Every channel has one writer: this worker on its record pipe, the parent on
    each mailbox queue and job pipe — so a worker killed at any instant damages
    nothing a sibling reads or writes.
    """

    name = "processes"

    def __init__(
        self,
        records: Any,
        lifeline: Any,
        session_id: int,
        job_name: str,
        abort_event: Any,
        receive_timeout: float,
    ):
        self._records = records
        #: The worker's job pipe.  The parent writes nothing to it while a job runs,
        #: so mid-job it becomes readable only at EOF — the driving process is gone.
        self._lifeline = lifeline
        self._session_id = session_id
        self._job_name = job_name
        self._abort = abort_event
        self._timeout = receive_timeout
        self._started = time.perf_counter()
        self._send_seq = 0
        self._claimed: Set[int] = set()
        self.messages = 0
        self.bytes = 0

    def _route(self, mailbox: "RegistryMailbox", message: Any) -> None:
        self._send_seq += 1
        _write_record(
            self._records,
            ("send", self._session_id, self._job_name, self._send_seq,
             mailbox.index, pickle.dumps(message, pickle.HIGHEST_PROTOCOL)),
        )

    def send(self, source: int, destination: int, message: Any, size_bytes: int,
             mailbox: "RegistryMailbox") -> None:
        if _faults.ACTIVE is not None:
            replacement = apply_send_faults(mailbox.name, message)
            if replacement is not None:
                for copy in replacement:
                    self._route(mailbox, copy)
                self.messages += len(replacement)
                self.bytes += size_bytes * len(replacement)
                return
        self._route(mailbox, message)
        self.messages += 1
        self.bytes += size_bytes

    def publish_report(self, region_id: int, report: Any) -> None:
        _write_record(self._records, ("report", self._session_id, region_id, report))

    @property
    def now(self) -> float:
        return time.perf_counter() - self._started

    def receive(self, mailbox: "RegistryMailbox") -> Any:
        if mailbox.index not in self._claimed:
            # Claim before the first blocking read: the claim is what turns the
            # mailbox's deliveries towards this worker, and if this process dies
            # mid-receive it tells the parent which mailbox history to rebuild for
            # the replay.  It is in the pipe when this call returns, ahead of
            # anything that could kill the worker afterwards.
            self._claimed.add(mailbox.index)
            _write_record(
                self._records,
                ("claim", self._session_id, self._job_name, mailbox.index),
            )
        if _faults.ACTIVE is not None:
            apply_receive_faults(self._job_name, mailbox.name)
            hit = _faults.ACTIVE.check("worker.crash", self._job_name)
            if hit is not None:
                if hit.action == "crash":
                    os._exit(3)  # a hard, SIGKILL-like death
                raise FaultError("worker.crash", hit.action, self._job_name)
        # Genuinely blocking: the worker sleeps in the OS until a message (or a
        # WakeToken injected by the parent's abort path) lands in the mailbox, so the
        # per-message latency floor is the transport itself, not a poll tick.
        deadline = time.monotonic() + self._timeout
        waitables = [mailbox.queue._reader, self._lifeline]
        while True:
            if self._abort.is_set():
                raise _JobAborted()
            ready = multiprocessing.connection.wait(
                waitables, max(0.0, deadline - time.monotonic())
            )
            if self._lifeline in ready:
                raise _ParentGone()
            message = deadline_get(
                mailbox.queue, deadline, self._timeout, "pooled worker", mailbox.name
            )
            if isinstance(message, WakeToken):
                continue
            return _opened(message)


def _pool_worker_main(
    worker_index: int,
    jobs: Any,
    records: Any,
    registry: List[Any],
    abort_event: Any,
) -> None:
    """Entry point of a long-lived pooled worker process.

    Reads pickled job specs from ``jobs`` until the pipe reaches EOF — the pool was
    shut down, or the driving process died.  Shared bundles (grammar + plan) arrive
    at most once and are cached by key for every later job.  A failing or aborted job
    is reported on ``records`` and the worker stays alive for the next job — one bad
    compilation never costs the pool a fork.

    The cyclic collector runs only here, between jobs: the inherited heap is frozen,
    a job runs with automatic collection off, and once its last record is written and
    :func:`_run_pooled_job` has returned (taking the job's region tree, evaluator and
    transport with it) one ``gc.collect()`` frees whatever cycles the job left — so
    a collection never lands inside an evaluation and an idle pool holds no trees.
    """
    _drop_parent_ends()
    freeze_inherited_heap()
    shared_cache: Dict[int, Any] = {}
    _faults.load_from_env()
    adopted_fault_token: Optional[str] = os.environ.get(_faults.ENV_VAR)
    while True:
        try:
            item = pickle.loads(jobs.recv_bytes())
        except (EOFError, OSError):
            return
        fault_token = item[-1]
        # The fault plan ships with the job, like a (tiny) language bundle, so a
        # plan installed after this worker forked still reaches it; the token is
        # cached so an unchanged plan is decoded once per worker, and a cleared
        # plan deactivates injection here too.
        if fault_token != adopted_fault_token:
            adopted_fault_token = fault_token
            try:
                _faults.ACTIVE = FaultPlan.decode(fault_token) if fault_token else None
            except Exception:
                _faults.ACTIVE = None
        try:
            _run_pooled_job(jobs, records, registry, abort_event, shared_cache, item)
        except _ParentGone:
            return
        del item
        gc.collect()


def _run_pooled_job(
    jobs: Any,
    records: Any,
    registry: List[Any],
    abort_event: Any,
    shared_cache: Dict[int, Any],
    item: Tuple,
) -> None:
    """Run one job spec to its final record (done, aborted or error).

    A function of its own so that every exit releases the job's locals before the
    worker's between-jobs collection.
    """
    session_id, name, payload_blob, shared_blobs, receive_timeout, _ = item
    # The abort event is cleared by the PARENT (under its lock) when this job is
    # assigned and when job-completion records are processed; clearing it here
    # could erase an abort meant for this very job.
    try:
        for key, blob in shared_blobs.items():
            shared_cache[key] = pickle.loads(blob)
        factory, encoded_kwargs, shared_keys = pickle.loads(payload_blob)
        kwargs = _decode_wire(encoded_kwargs, registry)
        for argument, key in shared_keys.items():
            kwargs[argument] = shared_cache[key]
        transport = _ChildTransport(
            records, jobs, session_id, name, abort_event, receive_timeout
        )
        body = factory(transport, **kwargs)
        drive(body, transport.receive)
        final: Tuple = ("done", session_id, name, transport.messages, transport.bytes)
    except _ParentGone:
        raise
    except _JobAborted:
        final = ("aborted", session_id, name)
    except BaseException:  # noqa: BLE001 — shipped to the parent; worker survives
        final = ("error", session_id, name, traceback.format_exc())
    _write_record(records, final)


# --------------------------------------------------------------------- parent side


class _PoolWorker:
    """Parent-side bookkeeping for one long-lived worker process."""

    __slots__ = (
        "index", "process", "jobs", "records", "abort_event", "known_keys", "current",
        "inflight",
    )

    def __init__(self, index: int, process: Any, jobs: Any, records: Any, abort_event: Any):
        self.index = index
        self.process = process
        self.jobs = jobs          # write end of the worker's job pipe
        self.records = records    # read end of the worker's record pipe
        self.abort_event = abort_event
        self.known_keys: set = set()
        self.current: Optional[Tuple[int, str]] = None  # (session_id, job name)
        #: Everything needed to re-execute the current job on a respawned worker:
        #: (session_id, name, payload_blob, shared key tuple, receive_timeout).
        self.inflight: Optional[Tuple[int, str, bytes, Tuple[int, ...], float]] = None

    def assign(self, inflight: Tuple, shared_blobs: Dict[int, bytes],
               fault_token: Optional[str]) -> None:
        """Write one job spec to the worker and record it as the worker's job.

        The spec is pickled and written by the caller.  A worker that died since it
        was last seen alive has closed the pipe; the job is recorded all the same, so
        the dispatcher, which buries the worker next, replays it on a replacement.
        """
        session_id, name, payload_blob, _, receive_timeout = inflight
        # A stale abort (from a previous assignment, already settled under the
        # substrate lock) must not leak into the job about to be written; clear
        # before the write — the child may read it immediately.
        self.abort_event.clear()
        spec = (session_id, name, payload_blob, shared_blobs, receive_timeout, fault_token)
        try:
            self.jobs.send_bytes(pickle.dumps(spec, pickle.HIGHEST_PROTOCOL))
        except OSError:
            pass
        # Blobs count as known only from here, once written — marking earlier would
        # let a submit that failed before the write poison the cache for every later
        # compilation.
        self.known_keys.update(shared_blobs)
        self.current = (session_id, name)
        self.inflight = inflight


class ProcessesSubstrate(Substrate):
    """A persistent pool of forked worker processes shared by many run sessions."""

    name = "processes"

    #: Default bound on blocking receives (seconds) when none is configured.
    DEFAULT_RECEIVE_TIMEOUT = 120.0

    #: How many times one job may be re-executed after worker deaths before the
    #: session gives up with a typed error.
    MAX_RESPAWNS = 3

    def __init__(
        self,
        workers: int = 0,
        mailbox_capacity: int = 128,
        receive_timeout: Optional[float] = None,
        max_respawns: Optional[int] = None,
    ):
        super().__init__()
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:
            raise BackendError(
                "the processes substrate requires the 'fork' multiprocessing start "
                "method (POSIX only); use the threads substrate on this platform"
            ) from error
        self.receive_timeout = (
            self.DEFAULT_RECEIVE_TIMEOUT if receive_timeout is None else receive_timeout
        )
        self.mailbox_capacity = mailbox_capacity
        self.max_respawns = self.MAX_RESPAWNS if max_respawns is None else max_respawns
        self._initial_workers = workers
        self._lock = threading.Lock()
        self._workers: List[_PoolWorker] = []
        self._next_worker_index = 0
        self._registry: List[Any] = []
        self._free_mailboxes: List[int] = []
        #: Registry slots permanently taken out of circulation after a worker
        #: death: live workers forked earlier still hold the pre-replacement
        #: queue for these indexes, so re-leasing them could silently split a
        #: mailbox across two queues.  Recovery is rare; leaking a slot is safe.
        self._retired_slots: Set[int] = set()
        self._respawns = 0
        self._wake_reader: Optional[Any] = None
        self._wake_writer: Optional[Any] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._sessions: Dict[int, "ProcessesSession"] = {}
        self._session_seq = 0
        self._shared_ids: Dict[Tuple[int, ...], int] = {}  # component ids -> key
        self._shared_objects: Dict[int, Any] = {}   # key -> obj (keeps ids stable)
        self._shared_blobs: Dict[int, bytes] = {}
        self._next_shared_key = 0
        self._started = False
        self._stopped = False

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> "ProcessesSubstrate":
        with self._lock:
            if self._stopped:
                raise BackendError("processes substrate has been shut down")
            if self._started:
                return self
            self._started = True
            self._wake_reader, self._wake_writer = self._context.Pipe(duplex=False)
            with _FORK_LOCK:
                _PARENT_ENDS.update((self._wake_reader, self._wake_writer))
            # The whole mailbox registry is created before the first fork so every
            # worker — including ones forked later to grow the pool — inherits every
            # transport handle a session could ever lease.
            self._registry = [self._context.Queue() for _ in range(self.mailbox_capacity)]
            self._free_mailboxes = list(range(self.mailbox_capacity))
            for _ in range(self._initial_workers):
                self._fork_worker_locked()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-pool-dispatcher", daemon=True
            )
            self._dispatcher.start()
        return self

    def shutdown(self) -> None:
        with self._lock:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
            workers = list(self._workers)
            sessions = list(self._sessions.values())
        for session in sessions:
            # Fail the whole in-flight run, not just its receives: the dispatcher is
            # about to exit, so the workers' final records will never be routed —
            # without an error and a completed jobs-event, run() would wait on those
            # records forever (or, worse, report an aborted run as success).
            with session._lock:
                session._errors.append(
                    ("substrate", "processes substrate was shut down mid-run")
                )
            session._failed.set()
            session._jobs_event.set()
        for worker in workers:
            # Abort flags must be set BEFORE the mailboxes are woken: a worker roused
            # by a token re-checks its abort event and must find it already flipped,
            # or it would go straight back to sleep with no second wake coming.
            if worker.process.is_alive():
                worker.abort_event.set()
        for session in sessions:
            session._wake_mailboxes("processes substrate shut down")
        self._wake_dispatcher()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        # Letting go of the pipes is the stop signal: an idle worker reads EOF on its
        # job pipe and returns; one still unwinding a job finds its record pipe
        # broken, or sees the EOF from its mailbox wait, and exits just the same.
        for worker in workers:
            _close_parent_ends(worker.jobs, worker.records)
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        _close_parent_ends(self._wake_reader, self._wake_writer)

    def session(
        self,
        machines: int = 1,
        *,
        receive_timeout: Optional[float] = None,
    ) -> "ProcessesSession":
        self.start()
        with self._lock:
            self._sessions_opened += 1
            self._session_seq += 1
            session_id = self._session_seq
        return ProcessesSession(
            self,
            session_id,
            self.receive_timeout if receive_timeout is None else receive_timeout,
        )

    @property
    def pool_size(self) -> int:
        """How many worker processes are alive (grows with the largest batch seen)."""
        with self._lock:
            return sum(1 for worker in self._workers if worker.process.is_alive())

    @property
    def respawns(self) -> int:
        """Workers respawned after an unexpected death (feeds ServiceStats)."""
        with self._lock:
            return self._respawns

    # ------------------------------------------------------------ pool plumbing

    def _fork_worker_locked(self) -> _PoolWorker:
        if _faults.ACTIVE is not None:
            hit = _faults.ACTIVE.check("worker.spawn", f"worker-{self._next_worker_index}")
            if hit is not None:
                raise FaultError("worker.spawn", hit.action, f"worker-{self._next_worker_index}")
        # Forking here is safe even though the parent is multi-threaded (dispatcher,
        # service executors, other sessions' coordinators may be mid-put on a mailbox
        # queue): multiprocessing.Queue registers an after-fork hook that re-inits
        # its internal condition lock and buffer in the child (Queue._reset with
        # after_fork=True), the pipes carry no lock at all, and the child's first
        # action is our own worker loop, which touches nothing else inherited.
        index = self._next_worker_index
        self._next_worker_index += 1
        abort_event = self._context.Event()
        with _FORK_LOCK:
            jobs_reader, jobs_writer = self._context.Pipe(duplex=False)
            records_reader, records_writer = self._context.Pipe(duplex=False)
            _PARENT_ENDS.update((jobs_writer, records_reader))
            process = self._context.Process(
                target=_pool_worker_main,
                args=(index, jobs_reader, records_writer, self._registry, abort_event),
                name=f"repro-pool-worker-{index}",
                daemon=True,
            )
            try:
                process.start()
            except BaseException:
                _PARENT_ENDS.difference_update((jobs_writer, records_reader))
                jobs_writer.close()
                records_reader.close()
                raise
            finally:
                jobs_reader.close()
                records_writer.close()
        worker = _PoolWorker(index, process, jobs_writer, records_reader, abort_event)
        self._workers.append(worker)
        self._wake_dispatcher()  # its wait set is one worker short
        return worker

    def _wake_dispatcher(self) -> None:
        self._wake_writer.send_bytes(b"!")

    def _lease_mailbox(self, name: str) -> RegistryMailbox:
        with self._lock:
            if not self._started:
                raise BackendError("processes substrate not started")
            if not self._free_mailboxes:
                raise BackendError(
                    f"mailbox registry exhausted ({self.mailbox_capacity} slots); "
                    "raise mailbox_capacity or lower the number of concurrent sessions"
                )
            index = self._free_mailboxes.pop()
        return RegistryMailbox(name, self._registry[index], index)

    def _release_mailboxes(self, leased: List[RegistryMailbox], settle: bool) -> None:
        """Empty and return leased registry slots so the next lease starts empty.

        Only a mailbox a worker claimed ever had its slot's queue written.  A clean
        run leaves that queue empty by protocol, so the fast path never blocks;
        after a failed run (``settle``) the queue's feeder thread in this process
        may still be writing wake tokens and undelivered messages into the pipe, and
        the drain waits a moment for them to land.
        """
        for mailbox in leased:
            if mailbox.sink is mailbox.queue:
                drain_fifo(mailbox.queue, settle_timeout=0.1 if settle else 0.0)
        with self._lock:
            for mailbox in leased:
                if mailbox.index in self._retired_slots:
                    continue  # replaced after a worker death; never re-lease
                self._free_mailboxes.append(mailbox.index)

    def _replace_registry_slot(self, index: int) -> Any:
        """Swap registry slot ``index`` for a fresh queue and retire the slot.

        Called during worker-death recovery, *before* the replacement fork, so
        the respawned worker inherits the fresh queue under the same index and
        the job's pickled payload (which references mailboxes by index) replays
        unchanged.  The old queue — its read side possibly left mid-frame or with
        its reader lock held by the death — is abandoned.
        """
        with self._lock:
            fresh = self._context.Queue()
            self._registry[index] = fresh
            self._retired_slots.add(index)
            return fresh

    def _shared_entry(self, obj: Any) -> int:
        # Two dedup regimes.  A SharedBundle carries an explicit stable name (the
        # language registry's bundle key), so every caller-side compiler for one
        # registered language maps to one cache entry — the payload crosses to each
        # worker once ever, even when callers rebuild grammar/plan objects per call
        # site.  Everything else is keyed by component identity: grammar bundles are
        # rebuilt as fresh (grammar, plan) tuples by every thin-client compiler
        # instance, but the grammar and plan objects themselves are stable — dedup on
        # those so each worker receives a given grammar exactly once.  The payloads
        # stay pinned for the substrate's lifetime (the ident is the cache key); their
        # pickled blobs are evicted once every live worker has received them and
        # re-pickled only if the pool later grows.
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

    def _shared_blob(self, key: int) -> bytes:
        blob = self._shared_blobs.get(key)
        if blob is None:
            try:
                blob = pickle.dumps(self._shared_objects[key])
            except Exception as error:
                raise BackendError(
                    "shared objects (grammar/plan bundles) must be picklable for the "
                    "pooled processes substrate; use module-level semantic functions "
                    "and converters, or the threads substrate instead"
                ) from error
            self._shared_blobs[key] = blob
        return blob

    def _evict_delivered_blobs_locked(self) -> None:
        """Free pickled bundles every live worker already holds (lazily re-created)."""
        for key in list(self._shared_blobs):
            if all(key in worker.known_keys for worker in self._workers):
                del self._shared_blobs[key]

    def _register(self, session: "ProcessesSession") -> None:
        with self._lock:
            self._sessions[session.session_id] = session

    def _unregister(self, session: "ProcessesSession") -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def _submit_jobs(
        self, session: "ProcessesSession", jobs: List[Tuple[WorkerJob, str]]
    ) -> None:
        """Assign one session's worker jobs, growing the pool so all run at once.

        Every job of a batch gets its own worker immediately: pooled bodies block on
        each other's messages, so a batch queued behind itself would deadlock.
        """
        with self._lock:
            if self._stopped:
                raise BackendError("processes substrate has been shut down")
            free = [
                worker
                for worker in self._workers
                if worker.current is None and worker.process.is_alive()
            ]
            while len(free) < len(jobs):
                free.append(self._fork_worker_locked())
            active_plan = _faults.ACTIVE
            fault_token = active_plan.encode() if active_plan is not None else None
            for index, ((job, name), worker) in enumerate(zip(jobs, free)):
                try:
                    shared_keys: Dict[str, int] = {}
                    shared_blobs: Dict[int, bytes] = {}
                    for argument, obj in job.shared.items():
                        key = self._shared_entry(obj)
                        shared_keys[argument] = key
                        if key not in worker.known_keys:
                            shared_blobs[key] = self._shared_blob(key)
                    try:
                        payload_blob = pickle.dumps(
                            (job.factory, _encode_wire(dict(job.kwargs)), shared_keys)
                        )
                    except Exception as error:
                        raise BackendError(
                            f"worker job {name!r} is not picklable for the pooled "
                            "processes substrate; use the threads substrate or the "
                            "one-shot ProcessesBackend"
                        ) from error
                    # The record is retained until the job completes: a dead worker's
                    # job is re-executed from it on a respawned worker.
                    worker.assign(
                        (session.session_id, name, payload_blob,
                         tuple(shared_keys.values()), session.receive_timeout),
                        shared_blobs, fault_token,
                    )
                except BaseException:
                    # Jobs from this one on were never handed out: settle their share
                    # of the session's completion count so close() doesn't stall.
                    session._account_unsubmitted(len(jobs) - index)
                    raise
            self._evict_delivered_blobs_locked()

    def _abort_session(self, session: "ProcessesSession") -> None:
        """Flag every pooled worker still running a job of ``session`` to unwind.

        The abort event alone is not enough with blocking receives — a worker asleep
        on its mailbox never looks at it — so the session's mailboxes are also woken
        with tokens; the roused worker re-checks the event and unwinds.
        """
        with self._lock:
            for worker in self._workers:
                if worker.current is not None and worker.current[0] == session.session_id:
                    worker.abort_event.set()
        session._wake_mailboxes("session aborted")

    # ----------------------------------------------------------------- dispatcher

    def _dispatch_loop(self) -> None:
        """Route worker records and bury dead workers until shutdown.

        Sleeps in ``connection.wait`` over every worker's record pipe and process
        sentinel, and the wake pipe: a record is routed the moment it lands, a death
        is handled the moment it happens, and a wake (a worker was forked, or
        ``shutdown()`` was called) makes the loop re-read the pool.
        """
        while True:
            with self._lock:
                if self._stopped:
                    return
                workers = list(self._workers)
            sources: Dict[Any, Optional[_PoolWorker]] = {self._wake_reader: None}
            for worker in workers:
                sources[worker.records] = worker
                sources[worker.process.sentinel] = worker
            dead: List[_PoolWorker] = []
            for source in multiprocessing.connection.wait(list(sources)):
                worker = sources[source]
                if worker is None:
                    self._wake_reader.recv_bytes()
                elif worker in dead:
                    continue
                elif source is not worker.records or not self._read_record(worker):
                    dead.append(worker)
            for worker in dead:
                self._bury(worker)

    def _read_record(self, worker: _PoolWorker) -> bool:
        """Read and handle one record of ``worker``; False when its stream has ended.

        A stream ends at EOF, in the middle of a frame (the worker was killed while
        writing) or at bytes that do not unpickle; each means the same thing — this
        worker will say nothing more that can be trusted.
        """
        try:
            record = pickle.loads(worker.records.recv_bytes())
        except Exception:  # noqa: BLE001 — EOFError, OSError, UnpicklingError, ...
            return False
        self._handle_record(worker, record)
        return True

    def _handle_record(self, worker: _PoolWorker, record: Tuple) -> None:
        tag, session_id = record[0], record[1]
        with self._lock:
            session = self._sessions.get(session_id)
        if tag == "send":
            # ("send", session_id, job name, seq, mailbox index, pickled message)
            if session is not None:
                session._forward(record[2], record[3], record[4], _Sealed(record[5]))
            return
        if tag == "claim":
            # ("claim", session_id, job name, mailbox index)
            if session is not None:
                session._note_claim(record[2], record[3])
            return
        if tag == "report":
            if session is not None:
                session._reports[record[2]] = record[3]
            return
        with self._lock:
            worker.current = None
            worker.inflight = None
            worker.abort_event.clear()
        if session is None:
            return
        if tag == "done":
            session._job_done(record[2], record[3], record[4])
        elif tag == "aborted":
            session._job_done(record[2], 0, 0)
        elif tag == "error":
            session._job_failed(record[2], record[3])

    def _bury(self, worker: _PoolWorker) -> None:
        """Take a dead worker out of the pool and replay the job it was running.

        Whatever the worker wrote before it died is still in its pipe and is routed
        first, so the replay starts from exactly what the first attempt got out: its
        claims name the mailboxes to rebuild, its sends advance the watermark.  The
        worker leaves the pool before the replacement is forked.
        """
        while worker.records.poll() and self._read_record(worker):
            pass
        with self._lock:
            self._workers.remove(worker)
            current = worker.current
        _close_parent_ends(worker.jobs, worker.records)
        worker.process.kill()  # a no-op unless the stream ended before the process
        worker.process.join()
        if current is not None:
            session_id, name = current
            with self._lock:
                session = self._sessions.get(session_id)
            if session is not None:
                self._recover_job(session, worker, name)

    def _recover_job(
        self, session: "ProcessesSession", worker: _PoolWorker, name: str
    ) -> None:
        """Re-execute a dead worker's in-flight job on a freshly forked worker.

        Worker jobs are deterministic functions of their mailbox message
        sequence, so replaying the same payload against the rebuilt mailbox
        history (see :meth:`ProcessesSession._reset_claimed_mailboxes`) produces
        a byte-identical result; the dispatcher's forwarded watermark swallows
        the replay's duplicate outputs.  Runs on the dispatcher thread, so it
        never races :meth:`_handle_record`.
        """
        exitcode = worker.process.exitcode
        detail = f"worker process exited with code {exitcode}"
        inflight = worker.inflight
        if inflight is None:
            session._job_failed(name, detail)
            return
        attempts = session._bump_replay_attempts(name)
        if attempts > self.max_respawns:
            session._job_failed(
                name, f"{detail} ({attempts - 1} respawn(s) already spent)"
            )
            return
        try:
            # Fresh queues for the dead job's claimed mailboxes FIRST, so the
            # replacement forks with the updated registry.
            session._reset_claimed_mailboxes(name, self)
            shared_keys = inflight[3]
            with self._lock:
                if self._stopped:
                    raise BackendError("substrate shut down during recovery")
                replacement = self._fork_worker_locked()
                self._respawns += 1
                shared_blobs = {
                    key: self._shared_blob(key)
                    for key in shared_keys
                    if key not in replacement.known_keys
                }
                # The replay runs with NO fault plan: plan counters are process-
                # local, so re-shipping the plan would re-arm one-shot rules and
                # turn every injected crash into a crash loop.  A real SIGKILL
                # doesn't recur on the replacement either.
                replacement.assign(inflight, shared_blobs, None)
        except BaseException as error:  # noqa: BLE001 — surfaced as a typed job failure
            session._job_failed(name, f"{detail}; respawn failed: {error!r}")
            return
        session._note_replay()


class ProcessesSession(Backend):
    """One compilation run on a :class:`ProcessesSubstrate` pool."""

    name = "processes"
    packed_wire = True
    shared_ship = True

    def __init__(self, substrate: ProcessesSubstrate, session_id: int, receive_timeout: float):
        super().__init__()
        self._substrate = substrate
        self.session_id = session_id
        self.receive_timeout = receive_timeout
        self._worker_jobs: List[Tuple[WorkerJob, str]] = []
        self._coordinators: List[Tuple[Generator, str]] = []
        self._leased: List[RegistryMailbox] = []
        self._failed = threading.Event()
        self._errors: List[Tuple[str, str]] = []
        self._lock = threading.Lock()
        # Routing state.  Every message delivered to a leased mailbox — parent
        # sends and dispatcher-forwarded child sends alike — is appended to the
        # mailbox's log under _route_lock and, once the mailbox has a reader, put
        # into its sink.  The log is what the first reader is handed, and what a
        # mailbox claimed by a job that died is rebuilt from, byte-identically,
        # into a fresh queue.  The per-job forwarded watermark suppresses the
        # replayed job's duplicate outputs.  NOTE on lock order: _route_lock may
        # nest the substrate lock inside it (via _replace_registry_slot); never the
        # other way around.
        self._route_lock = threading.Lock()
        self._by_index: Dict[int, RegistryMailbox] = {}
        self._claims: Dict[str, Set[int]] = {}     # job name -> claimed slots
        self._forwarded: Dict[str, int] = {}       # job name -> last forwarded seq
        self._wake_reason: Optional[str] = None    # set once receivers were roused
        self._replay_attempts: Dict[str, int] = {}
        self._replays = 0
        self._messages = 0
        self._bytes = 0
        self._jobs_remaining = 0
        self._jobs_event = threading.Event()
        self._start: Optional[float] = None
        self._ran = False
        self._closed = False

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> RegistryMailbox:
        mailbox = self._substrate._lease_mailbox(name)
        self._leased.append(mailbox)
        with self._route_lock:
            self._by_index[mailbox.index] = mailbox
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
                "pooled processes workers run from picklable WorkerJob specs; "
                "spawn raw generator bodies on the one-shot ProcessesBackend instead"
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
        assert isinstance(mailbox, RegistryMailbox)
        messages = [message]
        if _faults.ACTIVE is not None:
            replacement = apply_send_faults(mailbox.name, message)
            if replacement is not None:
                messages = replacement
        # A coordinator's send is delivered by the coordinator's own thread: straight
        # into another coordinator's queue, or — one pickle hop — towards a worker.
        with self._route_lock:
            for item in messages:
                self._deliver_locked(mailbox, item)
        with self._lock:
            self._messages += len(messages)
            self._bytes += size_bytes * len(messages)

    def run(self) -> float:
        if self._ran:
            raise BackendError("a run session can only be run once")
        self._ran = True
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

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            settle = False
            if self._ran and not self._jobs_event.is_set():
                # The compilation is being torn down mid-flight (an error escaped
                # between run() and report collection, or run() itself raised):
                # unwind our coordinators and flag our pooled workers so they
                # return to the pool.
                self._failed.set()
                self._substrate._abort_session(self)
                self._jobs_event.wait(timeout=10.0)
                settle = True
            if self._errors:
                settle = True
            if self._ran and not self._jobs_event.is_set():
                # A worker is still wedged in this session's compute after the grace
                # period: leak the leased mailbox slots rather than return them — a
                # slot re-leased to a new session could otherwise receive a late
                # message from this dead compilation and corrupt an unrelated
                # result.
                self._substrate._unregister(self)
                return
            self._substrate._release_mailboxes(self._leased, settle=settle)
            self._leased = []
            self._substrate._unregister(self)
        finally:
            # Shared-memory ship segments are unlinked on every teardown path —
            # including the wedged-worker early return above (POSIX keeps the
            # mapping valid for any worker still reading).
            self.release_segments()

    # ---------------------------------------------------------------- internals

    def _deliver_locked(self, mailbox: RegistryMailbox, message: Any) -> None:
        """Log one delivery and, if the mailbox has a reader yet, hand it over."""
        mailbox.log.append(message)
        if mailbox.sink is not None:
            mailbox.sink.put(message)

    def _bind_locked(self, mailbox: RegistryMailbox, sink: Any) -> None:
        """Give a mailbox its reader's queue, starting with everything logged so far.

        A reader that turns up after the session's receivers were roused gets its
        wake token here, behind the history.
        """
        mailbox.sink = sink
        for message in mailbox.log:
            sink.put(message)
        if self._wake_reason is not None:
            sink.put(WakeToken(self._wake_reason))

    def _wake_mailboxes(self, reason: str) -> None:
        """Rouse every receiver (pooled worker or coordinator) blocked on a mailbox
        this session leased.  Stray tokens are drained with the mailbox at release.
        Tokens are deliberately NOT logged: a replayed job must see the protocol's
        message history, not the teardown chatter around a past crash."""
        with self._route_lock:
            self._wake_reason = reason
            for mailbox in self._leased:
                if mailbox.sink is not None:
                    mailbox.sink.put(WakeToken(reason))

    def _forward(self, job_name: str, seq: int, index: int, message: Any) -> None:
        """Route one child send (dispatcher thread): log it and deliver it.

        Sends with ``seq`` at or below the job's forwarded watermark are a
        replayed job re-emitting history the first incarnation already
        delivered; they are suppressed entirely — not delivered, not logged —
        which is what makes recovery invisible to every other participant.
        """
        with self._route_lock:
            if seq <= self._forwarded.get(job_name, 0):
                return
            self._forwarded[job_name] = seq
            mailbox = self._by_index.get(index)
            if mailbox is not None:
                self._deliver_locked(mailbox, message)

    def _note_claim(self, job_name: str, index: int) -> None:
        """A worker job is about to read mailbox ``index`` (dispatcher thread)."""
        with self._route_lock:
            self._claims.setdefault(job_name, set()).add(index)
            mailbox = self._by_index.get(index)
            if mailbox is not None and mailbox.sink is None:
                self._bind_locked(mailbox, mailbox.queue)

    def _reset_claimed_mailboxes(self, job_name: str, substrate: ProcessesSubstrate) -> None:
        """Rebuild every mailbox the dead job had claimed into a fresh queue.

        The old queue is never drained or reused — a SIGKILL can leave a
        multiprocessing queue with its reader lock held or a half-read frame, so
        the registry slot is swapped for a brand-new queue (and retired from the
        free list) and the fresh queue is refilled from the mailbox's full message
        log.  The respawned worker then replays the job against byte-identical
        mailbox history.
        """
        with self._route_lock:
            for index in sorted(self._claims.get(job_name, ())):
                mailbox = self._by_index.get(index)
                if mailbox is None:
                    continue
                mailbox.queue = substrate._replace_registry_slot(index)
                self._bind_locked(mailbox, mailbox.queue)

    def _bump_replay_attempts(self, job_name: str) -> int:
        with self._lock:
            attempts = self._replay_attempts.get(job_name, 0) + 1
            self._replay_attempts[job_name] = attempts
            return attempts

    def _note_replay(self) -> None:
        with self._lock:
            self._replays += 1

    @property
    def replays(self) -> int:
        """Jobs re-executed after a worker death (feeds ServiceStats retries)."""
        with self._lock:
            return self._replays

    def _account_unsubmitted(self, count: int) -> None:
        """Settle completion accounting for jobs that never reached a worker."""
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

    def _coordinator_receive(self, mailbox: RegistryMailbox, who: str) -> Any:
        if mailbox.sink is None:
            # First read by a body of this process: from here on the mailbox is a
            # plain in-process queue, and nothing sent to it is pickled.
            with self._route_lock:
                if mailbox.sink is None:
                    self._bind_locked(mailbox, queue_module.SimpleQueue())
        return _opened(blocking_receive(
            mailbox.sink, self.receive_timeout, self._failed, who, mailbox.name
        ))


# ------------------------------------------------------------------ one-shot API


class ProcessesBackend(Backend):
    """Run the distributed protocol on freshly forked OS processes (one-shot).

    Workers are forked *after* the coordinator has built the grammar, the evaluation
    plan and every process body, so the (possibly unpicklable, closure-rich) grammar
    machinery is inherited copy-on-write and never serialised; only protocol messages
    travel between processes.  For a persistent pool that amortises the fork cost
    across many compilations, use :class:`ProcessesSubstrate`.
    """

    name = "processes"
    packed_wire = True
    shared_ship = True

    def __init__(self, receive_timeout: float = 120.0):
        super().__init__()
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:
            raise BackendError(
                "the processes backend requires the 'fork' multiprocessing start "
                "method (POSIX only); use backend='threads' on this platform"
            ) from error
        self.receive_timeout = receive_timeout
        self._workers: List[Tuple[Generator, str]] = []
        self._coordinators: List[Tuple[Generator, str]] = []
        self._control = self._context.Queue()
        self._failed = threading.Event()
        self._errors: List[Tuple[str, str]] = []
        self._lock = threading.Lock()
        self._messages = 0
        self._bytes = 0
        self._net_records_seen = 0
        self._start: Optional[float] = None
        self._in_child = False
        self._children: List[Any] = []
        self._closed = False
        self._mailboxes: List[QueueMailbox] = []
        self._live_coordinators = 0

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> QueueMailbox:
        mailbox = QueueMailbox(name, self._context.Queue())
        self._mailboxes.append(mailbox)
        return mailbox

    def spawn(
        self,
        body: Any,
        *,
        name: str,
        machine: int = 0,
        coordinator: bool = False,
    ) -> None:
        if isinstance(body, WorkerJob):
            # Materialised pre-fork: the body is inherited copy-on-write, so even
            # unpicklable grammars work on the one-shot path.
            body = body.materialize(self)
        if coordinator:
            self._coordinators.append((body, name))
        else:
            self._worker_count += 1
            self._workers.append((body, name))

    def send(
        self,
        source: int,
        destination: int,
        message: Any,
        size_bytes: int,
        mailbox: Mailbox,
    ) -> None:
        assert isinstance(mailbox, QueueMailbox)
        messages = [message]
        if _faults.ACTIVE is not None:
            replacement = apply_send_faults(mailbox.name, message)
            if replacement is not None:
                messages = replacement
        for item in messages:
            mailbox.queue.put(item)
        with self._lock:
            self._messages += len(messages)
            self._bytes += size_bytes * len(messages)

    def publish_report(self, region_id: int, report: Any) -> None:
        if self._in_child:
            self._control.put(("report", region_id, report))
        else:
            super().publish_report(region_id, report)

    def run(self) -> float:
        self._start = time.perf_counter()
        # Fork the workers before starting any coordinator thread (and hence before the
        # first queue put): forking a process with live queue feeder threads is unsafe.
        children = [
            self._context.Process(target=self._child_main, args=(body, name), name=name, daemon=True)
            for body, name in self._workers
        ]
        self._children = children
        with _FORK_LOCK:
            for child in children:
                child.start()
        self._live_coordinators = len(self._coordinators)
        coordinator_threads = [
            threading.Thread(
                target=self._run_coordinator, args=(body, name), name=name, daemon=True
            )
            for body, name in self._coordinators
        ]
        for thread in coordinator_threads:
            thread.start()

        pending_children = {child.name: child for child in children}
        # The monitor sleeps until something actually happens: a control record
        # arrives (the queue's reader pipe becomes readable) or a child process
        # exits (its sentinel fires); finishing coordinators enqueue a wake record.
        # The timeout is only a safety net, not the detection mechanism.
        control_reader = getattr(self._control, "_reader", None)
        try:
            while True:
                self._drain_control_nowait()
                for name, child in list(pending_children.items()):
                    if not child.is_alive():
                        child.join()
                        if child.exitcode not in (0, None):
                            with self._lock:
                                if not any(entry[0] == name for entry in self._errors):
                                    self._errors.append(
                                        (name, f"worker process exited with code {child.exitcode}")
                                    )
                            self._fail()
                        del pending_children[name]
                if self._failed.is_set():
                    break
                with self._lock:
                    coordinators_done = self._live_coordinators == 0
                if not pending_children and coordinators_done:
                    break
                if control_reader is not None:
                    multiprocessing.connection.wait(
                        [control_reader]
                        + [child.sentinel for child in pending_children.values()],
                        timeout=0.5,
                    )
                else:  # pragma: no cover — transport without a reader pipe
                    time.sleep(0.05)
        finally:
            # Also terminate on exceptions that bypass the error plumbing (e.g. a
            # KeyboardInterrupt in this monitor loop) — otherwise healthy children
            # blocked in a receive would pin the join below for the full timeout.
            aborting = self._failed.is_set() or sys.exc_info()[0] is not None
            if aborting:
                for child in pending_children.values():
                    if child.is_alive():
                        child.terminate()
            for child in pending_children.values():
                child.join()
            for thread in coordinator_threads:
                thread.join()
            # Each child enqueues its report and then its network-counter record just
            # before exiting, and the queue's feeder pipe can lag the join: keep
            # draining until both have landed for every worker (bounded, in case a
            # child died before publishing).  Each read blocks only until the next
            # record arrives — nothing waits out a fixed window once the counts are in.
            drain_deadline = time.monotonic() + 5.0
            self._drain_control_nowait()
            while (
                (len(self._reports) < self._worker_count
                 or self._net_records_seen < self._worker_count)
                and not self._errors
                and not aborting
            ):
                remaining = drain_deadline - time.monotonic()
                if remaining <= 0 or not self._drain_one(remaining):
                    break

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
        return BackendTelemetry(network_messages=self._messages, network_bytes=self._bytes)

    def close(self) -> None:
        """Terminate any forked worker still alive (idempotent, safe on every path).

        ``run()`` already joins or terminates its children in its own ``finally``;
        this is the last line of defence for error paths that never reach ``run`` or
        that abandon the backend between ``run`` and report collection.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._failed.set()
            with self._lock:
                coordinators_blocked = self._live_coordinators > 0
            if coordinators_blocked:
                # Only a run abandoned mid-flight can still have a coordinator asleep
                # in a receive; a cleanly finished run must not get garbage wake
                # tokens.
                self._fail()
            for child in self._children:
                if child.is_alive():
                    child.terminate()
            for child in self._children:
                child.join(timeout=5.0)
        finally:
            self.release_segments()

    # ---------------------------------------------------------------- internals

    def _fail(self) -> None:
        """Flag the run failed and wake every receiver blocked on one of its
        mailboxes (coordinator threads; children also get terminated by ``run``)."""
        self._failed.set()
        if not self._in_child:
            for mailbox in self._mailboxes:
                mailbox.queue.put(WakeToken("run failed"))

    def _child_main(self, body: Generator, name: str) -> None:
        """Entry point of a forked worker process."""
        self._in_child = True
        self._start = time.perf_counter()
        _drop_parent_ends()  # hold no pooled substrate's pipes open
        freeze_inherited_heap()  # one job, then exit: this worker never collects
        try:
            drive(body, lambda mailbox: self._child_receive(mailbox, name))
            self._control.put(("net", self._messages, self._bytes))
        except BaseException:  # noqa: BLE001 — shipped to the parent, then re-raised
            self._control.put(("error", name, traceback.format_exc()))
            raise

    def _child_receive(self, mailbox: QueueMailbox, who: str) -> Any:
        if _faults.ACTIVE is not None:
            apply_receive_faults(who, mailbox.name)
            hit = _faults.ACTIVE.check("worker.crash", who)
            if hit is not None:
                if hit.action == "crash":
                    time.sleep(0.05)  # let the control queue's feeder flush
                    os._exit(3)
                raise FaultError("worker.crash", hit.action, who)
        deadline = time.monotonic() + self.receive_timeout
        while True:
            message = deadline_get(
                mailbox.queue, deadline, self.receive_timeout, who, mailbox.name
            )
            if isinstance(message, WakeToken):
                continue  # parent-side wake for a failure we learn about via terminate
            return message

    def _run_coordinator(self, body: Generator, name: str) -> None:
        try:
            drive(body, lambda mailbox: self._coordinator_receive(mailbox, name))
        except BaseException as error:  # noqa: BLE001 — reported via run()
            with self._lock:
                self._errors.append((name, repr(error)))
            self._fail()
        finally:
            with self._lock:
                self._live_coordinators -= 1
            # Wake the monitor loop so coordinator completion is seen immediately.
            self._control.put(None)

    def _coordinator_receive(self, mailbox: QueueMailbox, who: str) -> Any:
        return blocking_receive(
            mailbox.queue, self.receive_timeout, self._failed, who, mailbox.name
        )

    def _drain_control_nowait(self) -> None:
        """Absorb every already-queued report/telemetry/error record, never blocking."""
        while self._drain_one(0.0):
            pass

    def _drain_one(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for one control record; False when none came."""
        try:
            if timeout <= 0:
                record = self._control.get_nowait()
            else:
                record = self._control.get(timeout=timeout)
        except queue_module.Empty:
            return False
        if record is None:  # wake record from a finishing coordinator thread
            return True
        tag = record[0]
        if tag == "report":
            self._reports[record[1]] = record[2]
        elif tag == "net":
            with self._lock:
                self._messages += record[1]
                self._bytes += record[2]
                self._net_records_seen += 1
        elif tag == "error":
            with self._lock:
                # A child's traceback beats the bare exit-code diagnostic that the
                # liveness check may already have recorded for the same worker.
                self._errors = [
                    entry
                    for entry in self._errors
                    if not (entry[0] == record[1] and "exited with code" in entry[1])
                ]
                self._errors.insert(0, (record[1], record[2]))
            self._fail()
        return True
