"""The multiprocessing backend: real OS processes with pickled protocol messages.

Whatever leaves a process — linearized subtrees, boundary attribute values, code
fragments, descriptors, results — is pickled by its sender and unpickled by its
reader, exactly like bytes on a wire; a message between two bodies of the driving
process is handed over as the object it is.

:class:`ProcessesSubstrate` is a pool of long-lived forked workers, each reading
picklable :class:`~repro.backends.base.WorkerJob` specs from a pipe of its own, so fork
cost is paid once, not per compile; grammar + plan bundles ship to each worker once and
are cached there by key.  A worker forked after a bundle was registered inherits it
instead, with the evaluator code the driving process compiled from it when the compiler
bound to the pool (:meth:`ProcessesSubstrate.prepare`).  The pool grows on demand and
serves many concurrent run sessions; a one-shot compile is a private pool, started,
used once and shut down.

- **worker → parent**: each worker pickles every record (``send``, ``claim``,
  ``report``, then ``done``/``aborted``/``error``) straight into its own one-way pipe,
  from its only thread and without a lock: killing it can only cut its own stream.
- **parent → worker**: the worker's job pipe is its only way in.  It carries three
  kinds of frame: job specs, deliveries ``(session, mailbox, message)`` and aborts
  ``(session, job)``.  Any parent thread may append a frame to the worker's outbox;
  only the dispatcher writes the pipe, non-blocking, so a worker that is busy writing
  records of its own can never hold the dispatcher up.
- **dispatcher**: one parent thread sleeps in a ``selectors`` poll over every record
  pipe and process sentinel, a wake pipe, and each job pipe that still has bytes to
  take, routing records as they land and handling deaths as they happen.  A worker's
  message is routed as the bytes the worker pickled; only the mailbox's reader
  unpickles it.
- **mailboxes** are numbered within their session and bound by their first reader.  A
  body of the driving process (parser, librarian, replay) reads an in-process
  ``queue.SimpleQueue``; a worker job claims the mailbox, and its deliveries become
  frames to that worker, buffered per mailbox on the worker's side until read.  Every
  delivery is logged, and the log is handed to the reader when it binds — and sent
  again, behind the job spec, to the replacement of a worker that died mid-job.
- **lifetime**: a child closes every pipe end that belongs to the parent, so its pipes
  reach EOF exactly when the driving process dies or shuts the pool down, and the
  worker exits.  ``shutdown()`` joins every worker and closes every pipe the pool
  made, on every path.

Worker bodies (the evaluators) run in the forked workers; coordinator bodies run on
threads of the driving process, where they share the outcome with the caller.  A
worker body must be a :class:`WorkerJob` whose factory and arguments pickle; raw
generator bodies run on the threads substrate.

Requires a POSIX ``fork`` start method (Linux/macOS); on platforms without it,
construction raises :class:`BackendError` — use the threads backend there.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import queue as queue_module
import selectors
import struct
import threading
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Set, Tuple

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
    drive,
    freeze_inherited_heap,
    receive_timed_out,
)
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


def _reap(process: Any) -> None:
    """Join a worker process, killing it if it outstays 5 s, and free its sentinel."""
    process.join(timeout=5.0)
    if process.is_alive():
        process.kill()
        process.join()
    process.close()


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


#: The length header ``Connection.recv_bytes`` reads in front of each frame; a frame
#: of 2 GiB or more has ``-1`` here and its length in the 8 bytes that follow.
_LENGTH = struct.Struct("!i")
_LONG_LENGTH = struct.Struct("!Q")


def _framed(frame: Tuple) -> bytes:
    """``frame`` pickled, behind the header a worker's ``recv_bytes`` expects."""
    blob = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
    if len(blob) > 0x7FFFFFFF:
        return _LENGTH.pack(-1) + _LONG_LENGTH.pack(len(blob)) + blob
    return _LENGTH.pack(len(blob)) + blob


class PooledMailbox(Mailbox):
    """A mailbox of one :class:`ProcessesSession`, numbered within that session.

    It crosses to a worker as its name and number only.  In the driving process it
    also carries the ``log`` of every message delivered to it and its ``sink`` — where
    deliveries go once the reader is known: ``None`` until the first read, then a
    ``queue.SimpleQueue`` (a coordinator body reads it) or a :class:`_WorkerInbox`
    (a worker job claimed it).
    """

    __slots__ = ("index", "log", "sink")

    def __init__(self, name: str, index: int):
        super().__init__(name)
        self.index = index
        self.log: List[Any] = []
        self.sink: Optional[Any] = None

    def __reduce__(self) -> Tuple:
        return PooledMailbox, (self.name, self.index)


class _Sealed:
    """A worker's message as the bytes the worker pickled it to.

    The dispatcher logs and routes it unopened; the mailbox's reader unpickles it —
    a coordinator thread straight from its queue, another worker after one more
    copy of the same bytes in a frame on its job pipe.
    """

    __slots__ = ("blob",)

    def __init__(self, blob: bytes):
        self.blob = blob

    def __reduce__(self) -> Tuple:
        return _Sealed, (self.blob,)


def _opened(message: Any) -> Any:
    """What a mailbox read returns: the message itself, unpickled if it was sealed."""
    return pickle.loads(message.blob) if type(message) is _Sealed else message


# ---------------------------------------------------------------------- child side


class _JobAborted(Exception):
    """Raised inside a pooled worker when the parent aborts the current job."""


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
    Every channel has one writer: this worker on its record pipe, the parent's
    dispatcher on its job pipe — so a worker killed at any instant damages nothing a
    sibling reads or writes.
    """

    name = "processes"

    def __init__(
        self,
        records: Any,
        jobs: Any,
        session_id: int,
        job_name: str,
        receive_timeout: float,
    ):
        self._records = records
        #: The worker's job pipe.  While a job runs it brings that job's deliveries,
        #: which wait in ``_inbox`` by mailbox until read, and its abort; it reaches
        #: EOF when the driving process is gone.
        self._jobs = jobs
        self._inbox: Dict[int, Deque[Any]] = {}
        self._session_id = session_id
        self._job_name = job_name
        self._timeout = receive_timeout
        self._started = time.perf_counter()
        self._send_seq = 0
        self._claimed: Set[int] = set()
        self.messages = 0
        self.bytes = 0

    def _route(self, mailbox: PooledMailbox, message: Any) -> None:
        self._send_seq += 1
        _write_record(
            self._records,
            ("send", self._session_id, self._job_name, self._send_seq,
             mailbox.index, pickle.dumps(message, pickle.HIGHEST_PROTOCOL)),
        )

    def send(self, source: int, destination: int, message: Any, size_bytes: int,
             mailbox: PooledMailbox) -> None:
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

    def receive(self, mailbox: PooledMailbox) -> Any:
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
        # Genuinely blocking: the worker sleeps in the OS until a frame lands on its
        # job pipe, so the per-message latency floor is the pipe itself, not a tick.
        pending = self._inbox.get(mailbox.index)
        deadline = time.monotonic() + self._timeout
        while not pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._jobs.poll(remaining):
                raise receive_timed_out("pooled worker", self._timeout, mailbox.name)
            self._read_frame()
            pending = self._inbox.get(mailbox.index)
        return _opened(pending.popleft())

    def _read_frame(self) -> None:
        """Take one frame off the job pipe: buffer a delivery, or unwind on an abort.

        A frame for another session was meant for a job this worker ran earlier.
        """
        try:
            frame = pickle.loads(self._jobs.recv_bytes())
        except (EOFError, OSError) as error:
            raise _ParentGone() from error
        if frame[1] != self._session_id:
            return
        if frame[0] == "msg":
            self._inbox.setdefault(frame[2], deque()).append(frame[3])
        elif frame[0] == "abort" and frame[2] == self._job_name:
            raise _JobAborted()


def _pool_worker_main(
    worker_index: int, jobs: Any, records: Any, inherited: Dict[int, Any]
) -> None:
    """Entry point of a long-lived pooled worker process.

    Reads frames from ``jobs`` until the pipe reaches EOF — the pool was shut down, or
    the driving process died.  Between jobs only a job spec matters; a delivery or an
    abort read then belongs to a job that is over.  Shared bundles (grammar + plan)
    registered with the pool before this worker forked are ``inherited`` as the
    parent's own objects, with whatever the parent derived from them (its compiled
    evaluators, see :meth:`ProcessesSubstrate.prepare`); later ones arrive pickled,
    at most once.  Both are cached by key for every later job.  A failing or
    aborted job is reported on ``records`` and the worker stays alive for the next job
    — one bad compilation never costs the pool a fork.

    The cyclic collector runs only here, between jobs: the inherited heap is frozen,
    a job runs with automatic collection off, and once its last record is written and
    :func:`_run_pooled_job` has returned (taking the job's region tree, evaluator and
    transport with it) one ``gc.collect()`` frees whatever cycles the job left — so
    a collection never lands inside an evaluation and an idle pool holds no trees.
    """
    _drop_parent_ends()
    freeze_inherited_heap()
    shared_cache: Dict[int, Any] = dict(inherited)
    _faults.load_from_env()
    adopted_fault_token: Optional[str] = os.environ.get(_faults.ENV_VAR)
    while True:
        try:
            frame = pickle.loads(jobs.recv_bytes())
        except (EOFError, OSError):
            return
        if frame[0] != "job":
            continue
        fault_token = frame[-1]
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
            _run_pooled_job(jobs, records, shared_cache, frame)
        except _ParentGone:
            return
        del frame
        gc.collect()


def _run_pooled_job(
    jobs: Any, records: Any, shared_cache: Dict[int, Any], spec: Tuple
) -> None:
    """Run one job spec to its final record (done, aborted or error).

    A function of its own so that every exit releases the job's locals before the
    worker's between-jobs collection.
    """
    _, session_id, name, payload_blob, shared_blobs, receive_timeout, _ = spec
    try:
        for key, blob in shared_blobs.items():
            shared_cache[key] = pickle.loads(blob)
        factory, kwargs, shared_keys = pickle.loads(payload_blob)
        for argument, key in shared_keys.items():
            kwargs[argument] = shared_cache[key]
        transport = _ChildTransport(records, jobs, session_id, name, receive_timeout)
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
        "index", "process", "jobs", "records", "outbox", "written", "wake",
        "known_keys", "current", "inflight",
    )

    def __init__(self, index: int, process: Any, jobs: Any, records: Any, wake: Any):
        self.index = index
        self.process = process
        self.jobs = jobs          # write end of the worker's job pipe (non-blocking)
        self.records = records    # read end of the worker's record pipe
        #: Framed bytes waiting for the job pipe, and how much of the first is in it.
        self.outbox: Deque[bytes] = deque()
        self.written = 0
        self.wake = wake          # rouses the dispatcher, which alone writes ``jobs``
        self.known_keys: set = set()
        self.current: Optional[Tuple[int, str]] = None  # (session_id, job name)
        #: Everything needed to re-execute the current job on a respawned worker:
        #: (session_id, name, payload_blob, shared key tuple, receive_timeout).
        self.inflight: Optional[Tuple[int, str, bytes, Tuple[int, ...], float]] = None

    def post(self, frame: Tuple) -> None:
        """Queue one frame for the worker (any thread); the dispatcher writes it."""
        self.outbox.append(_framed(frame))
        self.wake()

    def flush(self) -> bool:
        """Write what the job pipe takes now (dispatcher only); True once all is out.

        A worker that died has nobody left to read its frames: they are dropped, and
        the dispatcher, which buries the worker, replays its job on a replacement.
        """
        outbox = self.outbox
        while outbox:
            try:
                self.written += os.write(
                    self.jobs.fileno(), memoryview(outbox[0])[self.written:]
                )
            except BlockingIOError:
                return False
            except OSError:
                outbox.clear()
                self.written = 0
                return True
            if self.written == len(outbox[0]):
                outbox.popleft()
                self.written = 0
        return True

    def assign(self, inflight: Tuple, shared_blobs: Dict[int, bytes],
               fault_token: Optional[str]) -> None:
        """Queue one job spec for the worker and record it as the worker's job."""
        session_id, name, payload_blob, _, receive_timeout = inflight
        self.post(("job", session_id, name, payload_blob, shared_blobs,
                   receive_timeout, fault_token))
        # Blobs count as known only from here — marking earlier would let a submit
        # that failed before the spec was queued poison the cache for every later
        # compilation.
        self.known_keys.update(shared_blobs)
        self.current = (session_id, name)
        self.inflight = inflight


class _WorkerInbox:
    """The sink of a mailbox a worker job claimed: each delivery, a frame to it.

    Wake tokens rouse readers in the driving process only; a worker job is stopped
    by an abort frame, or by EOF on its job pipe.
    """

    __slots__ = ("worker", "session_id", "index")

    def __init__(self, worker: _PoolWorker, session_id: int, index: int):
        self.worker = worker
        self.session_id = session_id
        self.index = index

    def put(self, message: Any) -> None:
        if type(message) is not WakeToken:
            self.worker.post(("msg", self.session_id, self.index, message))


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
        self.max_respawns = self.MAX_RESPAWNS if max_respawns is None else max_respawns
        self._initial_workers = workers
        self._lock = threading.Lock()
        self._workers: List[_PoolWorker] = []
        self._next_worker_index = 0
        self._respawns = 0
        #: Guards the wake pipe and ``_wake_pending``: at most one wake is ever in
        #: the pipe, so a wake never blocks, whatever lock its caller holds.
        self._wake_lock = threading.Lock()
        self._wake_pending = False
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
        try:
            with self._lock:
                if self._stopped:
                    raise BackendError("processes substrate has been shut down")
                if self._started:
                    return self
                self._started = True
                self._wake_reader, self._wake_writer = self._context.Pipe(duplex=False)
                with _FORK_LOCK:
                    _PARENT_ENDS.update((self._wake_reader, self._wake_writer))
                for _ in range(self._initial_workers):
                    self._fork_worker_locked()
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, name="repro-pool-dispatcher", daemon=True
                )
                self._dispatcher.start()
        except BaseException:
            # A pool that came up halfway (a refused fork, no fds left) is torn
            # down here: a caller whose start() raised never reaches shutdown().
            self.shutdown()
            raise
        return self

    def shutdown(self) -> None:
        with self._lock:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
            workers = list(self._workers)
            sessions = list(self._sessions.values())
        try:
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
                session._wake_mailboxes("processes substrate shut down")
            if self._dispatcher is not None:
                self._wake_dispatcher()
                self._dispatcher.join(timeout=5.0)
            # Letting go of the pipes is the stop signal: a worker reads EOF on its job
            # pipe, idle or waiting for a message, and returns; one still computing
            # finds its record pipe broken at its next write and exits just the same.
            for worker in workers:
                _close_parent_ends(worker.jobs, worker.records)
            for worker in workers:
                _reap(worker.process)
            with self._lock:
                self._workers = []
        finally:
            # The wake pipe goes on every path, a failed stop included.
            with self._wake_lock:
                ends = (self._wake_reader, self._wake_writer)
                self._wake_reader = self._wake_writer = None
            _close_parent_ends(*(end for end in ends if end is not None))

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
        # service executors, other sessions' coordinators may be mid-post to an
        # outbox): the pipes carry no lock at all, and the child's first action is
        # our own worker loop, which touches nothing else inherited.
        index = self._next_worker_index
        self._next_worker_index += 1
        with _FORK_LOCK:
            jobs_reader, jobs_writer = self._context.Pipe(duplex=False)
            records_reader, records_writer = self._context.Pipe(duplex=False)
            _PARENT_ENDS.update((jobs_writer, records_reader))
            process = self._context.Process(
                target=_pool_worker_main,
                args=(index, jobs_reader, records_writer, dict(self._shared_objects)),
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
        os.set_blocking(jobs_writer.fileno(), False)
        worker = _PoolWorker(
            index, process, jobs_writer, records_reader, self._wake_dispatcher
        )
        worker.known_keys.update(self._shared_objects)
        self._workers.append(worker)
        self._wake_dispatcher()  # its wait set is one worker short
        return worker

    def _wake_dispatcher(self) -> None:
        """Make the dispatcher re-read the pool and flush every outbox.

        Its own calls return at once: it does both before it sleeps again.
        """
        if threading.current_thread() is self._dispatcher:
            return
        with self._wake_lock:
            if self._wake_pending or self._wake_writer is None:
                return
            self._wake_pending = True
            self._wake_writer.send_bytes(b"!")

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
            submitted = 0
            try:
                if self._stopped:
                    raise BackendError("processes substrate has been shut down")
                free = [
                    worker
                    for worker in self._workers
                    if worker.current is None and worker.process.is_alive()
                ]
                # Registered before any fork below, so a new worker inherits them.
                for job, _ in jobs:
                    for obj in job.shared.values():
                        self._shared_entry(obj)
                while len(free) < len(jobs):
                    free.append(self._fork_worker_locked())
                active_plan = _faults.ACTIVE
                fault_token = active_plan.encode() if active_plan is not None else None
                for (job, name), worker in zip(jobs, free):
                    shared_keys: Dict[str, int] = {}
                    shared_blobs: Dict[int, bytes] = {}
                    for argument, obj in job.shared.items():
                        key = self._shared_entry(obj)
                        shared_keys[argument] = key
                        if key not in worker.known_keys:
                            shared_blobs[key] = self._shared_blob(key)
                    try:
                        payload_blob = pickle.dumps(
                            (job.factory, dict(job.kwargs), shared_keys)
                        )
                    except Exception as error:
                        raise BackendError(
                            f"worker job {name!r} is not picklable for the processes "
                            "substrate; give the WorkerJob a module-level factory "
                            "and picklable arguments, or use the threads substrate"
                        ) from error
                    # The record is retained until the job completes: a dead worker's
                    # job is re-executed from it on a respawned worker.
                    worker.assign(
                        (session.session_id, name, payload_blob,
                         tuple(shared_keys.values()), session.receive_timeout),
                        shared_blobs, fault_token,
                    )
                    submitted += 1
            except BaseException:
                # Jobs not handed out (a refused fork, a stopped pool, a job that
                # does not pickle) settle their share of the session's completion
                # count, or close() would wait out its grace period for them.
                session._settle_jobs(len(jobs) - submitted)
                raise
            self._evict_delivered_blobs_locked()

    def prepare(self, job: WorkerJob) -> None:
        with self._lock:
            if self._stopped:
                return
            shared = {
                argument: self._shared_objects[self._shared_entry(obj)]
                for argument, obj in job.shared.items()
            }
        job.factory(**dict(job.kwargs), **shared)

    def _abort_session(self, session: "ProcessesSession") -> None:
        """Tell every pooled worker still running a job of ``session`` to unwind.

        A worker reads the abort frame at its next wait for a message; bodies of the
        driving process are woken with tokens.
        """
        with self._lock:
            for worker in self._workers:
                if worker.current is not None and worker.current[0] == session.session_id:
                    worker.post(("abort",) + worker.current)
        session._wake_mailboxes("session aborted")

    # ----------------------------------------------------------------- dispatcher

    def _dispatch_loop(self) -> None:
        """Route worker records, write worker frames and bury dead workers until shutdown.

        Each round first writes every outbox as far as its pipe takes it, then sleeps
        in a poll over every worker's record pipe and process sentinel, the wake pipe,
        and the job pipes that still have bytes to take: a record is routed the moment
        it lands, a death is handled the moment it happens, and a wake (a frame was
        queued, a worker was forked, or ``shutdown()`` was called) starts a new round.
        """
        wake = self._wake_reader
        while True:
            with self._lock:
                if self._stopped:
                    return
                workers = list(self._workers)
            with selectors.PollSelector() as selector:
                selector.register(wake, selectors.EVENT_READ)
                for worker in workers:
                    selector.register(worker.records, selectors.EVENT_READ, worker)
                    selector.register(worker.process.sentinel, selectors.EVENT_READ, worker)
                    if not worker.flush():
                        selector.register(worker.jobs, selectors.EVENT_WRITE)
                ready = selector.select()
            dead: List[_PoolWorker] = []
            for key, _ in ready:
                worker = key.data
                if key.fileobj is wake:
                    wake.recv_bytes()
                    with self._wake_lock:
                        self._wake_pending = False
                elif worker is None or worker in dead:
                    continue  # a job pipe with room again: the next round writes it
                elif key.fileobj is not worker.records or not self._read_record(worker):
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
                session._note_claim(worker, record[2], record[3])
            return
        if tag == "report":
            if session is not None:
                session._reports[record[2]] = record[3]
            return
        with self._lock:
            worker.current = None
            worker.inflight = None
        if session is None:
            return
        if tag == "done":
            session._settle_jobs(1, record[3], record[4])
        elif tag == "aborted":
            session._settle_jobs(1)
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
        detail = f"worker process exited with code {worker.process.exitcode}"
        worker.process.close()
        if current is not None:
            session_id, name = current
            with self._lock:
                session = self._sessions.get(session_id)
            if session is not None:
                self._recover_job(session, worker, name, detail)

    def _recover_job(
        self, session: "ProcessesSession", worker: _PoolWorker, name: str, detail: str
    ) -> None:
        """Re-execute a dead worker's in-flight job on a freshly forked worker.

        Worker jobs are deterministic functions of their mailbox message
        sequence, so replaying the same payload against the same mailbox history
        (see :meth:`ProcessesSession._rebind_claimed_mailboxes`) produces a
        byte-identical result; the dispatcher's forwarded watermark swallows the
        replay's duplicate outputs.  Runs on the dispatcher thread, so it never
        races :meth:`_handle_record`.
        """
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
            # Behind the spec, on the same pipe: the history of every mailbox the
            # dead job had claimed, and from now on what is delivered to them.
            session._rebind_claimed_mailboxes(name, replacement)
        except BaseException as error:  # noqa: BLE001 — surfaced as a typed job failure
            session._job_failed(name, f"{detail}; respawn failed: {error!r}")
            return
        session._note_replay()


class ProcessesSession(Backend):
    """One compilation run on a :class:`ProcessesSubstrate` pool."""

    name = "processes"

    def __init__(self, substrate: ProcessesSubstrate, session_id: int, receive_timeout: float):
        super().__init__()
        self._substrate = substrate
        self.session_id = session_id
        self.receive_timeout = receive_timeout
        self._worker_jobs: List[Tuple[WorkerJob, str]] = []
        self._coordinators: List[Tuple[Generator, str]] = []
        self._failed = threading.Event()
        self._errors: List[Tuple[str, str]] = []
        self._lock = threading.Lock()
        # Routing state: the mailboxes with their logs and sinks, claims and the
        # per-job forwarded watermark, all under _route_lock.
        self._route_lock = threading.Lock()
        self._mailboxes: Dict[int, PooledMailbox] = {}
        self._claims: Dict[str, Set[int]] = {}     # job name -> claimed mailboxes
        self._forwarded: Dict[str, int] = {}       # job name -> last forwarded seq
        self._wake_reason: Optional[str] = None    # set once receivers were roused
        self._replay_attempts: Dict[str, int] = {}
        self._replays = 0
        self._messages = 0
        self._bytes = 0
        self._jobs_remaining = 0
        self._jobs_event = threading.Event()
        self._start: Optional[float] = None

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> PooledMailbox:
        with self._route_lock:
            mailbox = PooledMailbox(name, len(self._mailboxes))
            self._mailboxes[mailbox.index] = mailbox
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
                "processes workers run from picklable WorkerJob specs; wrap the "
                "body's factory and arguments in a WorkerJob, or run raw generator "
                "bodies on the threads substrate"
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
        assert isinstance(mailbox, PooledMailbox)
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
            # The compilation is being torn down mid-flight (an error escaped
            # between run() and report collection, or run() itself raised):
            # unwind our coordinators and abort our pooled workers' jobs so they
            # return to the pool.
            self._failed.set()
            self._substrate._abort_session(self)
            self._jobs_event.wait(timeout=10.0)
        self._substrate._unregister(self)

    # ---------------------------------------------------------------- internals

    def _deliver_locked(self, mailbox: PooledMailbox, message: Any) -> None:
        """Log one delivery and, if the mailbox has a reader yet, hand it over."""
        mailbox.log.append(message)
        if mailbox.sink is not None:
            mailbox.sink.put(message)

    def _bind_locked(self, mailbox: PooledMailbox, sink: Any) -> None:
        """Give a mailbox its reader's sink, starting with everything logged so far.

        A reader that turns up after the session's receivers were roused gets its
        wake token here, behind the history.
        """
        mailbox.sink = sink
        for message in mailbox.log:
            sink.put(message)
        if self._wake_reason is not None:
            sink.put(WakeToken(self._wake_reason))

    def _wake_mailboxes(self, reason: str) -> None:
        """Rouse every coordinator body blocked on a mailbox of this session.
        Tokens are deliberately NOT logged: a replayed job must see the protocol's
        message history, not the teardown chatter around a past crash."""
        with self._route_lock:
            self._wake_reason = reason
            for mailbox in self._mailboxes.values():
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
            mailbox = self._mailboxes.get(index)
            if mailbox is not None:
                self._deliver_locked(mailbox, message)

    def _note_claim(self, worker: _PoolWorker, job_name: str, index: int) -> None:
        """``worker``'s job is about to read mailbox ``index`` (dispatcher thread)."""
        with self._route_lock:
            self._claims.setdefault(job_name, set()).add(index)
            mailbox = self._mailboxes.get(index)
            if mailbox is not None and mailbox.sink is None:
                self._bind_locked(mailbox, _WorkerInbox(worker, self.session_id, index))

    def _rebind_claimed_mailboxes(self, job_name: str, worker: _PoolWorker) -> None:
        """Turn every mailbox the dead job had claimed towards its replacement.

        Each mailbox's full log goes to ``worker`` first, so the replay reads the same
        history, message for message, as the attempt that died.
        """
        with self._route_lock:
            for index in sorted(self._claims.get(job_name, ())):
                mailbox = self._mailboxes.get(index)
                if mailbox is not None:
                    self._bind_locked(
                        mailbox, _WorkerInbox(worker, self.session_id, index)
                    )

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

    def _settle_jobs(self, count: int, messages: int = 0, size_bytes: int = 0) -> None:
        """Count ``count`` jobs as finished — done, failed or never handed out."""
        with self._lock:
            self._messages += messages
            self._bytes += size_bytes
            self._jobs_remaining -= count
            if self._jobs_remaining <= 0:
                self._jobs_event.set()

    def _job_failed(self, name: str, detail: str) -> None:
        with self._lock:
            self._errors.append((name, detail))
        self._failed.set()
        self._substrate._abort_session(self)
        self._settle_jobs(1)

    def _run_coordinator(self, body: Generator, name: str) -> None:
        try:
            drive(body, lambda mailbox: self._coordinator_receive(mailbox, name))
        except BaseException as error:  # noqa: BLE001 — reported via run()
            with self._lock:
                self._errors.append((name, repr(error)))
            self._failed.set()
            self._substrate._abort_session(self)

    def _coordinator_receive(self, mailbox: PooledMailbox, who: str) -> Any:
        if mailbox.sink is None:
            # First read by a body of this process: from here on the mailbox is a
            # plain in-process queue, and nothing sent to it is pickled.
            with self._route_lock:
                if mailbox.sink is None:
                    self._bind_locked(mailbox, queue_module.SimpleQueue())
        return _opened(blocking_receive(
            mailbox.sink, self.receive_timeout, self._failed, who, mailbox.name
        ))
