"""The multiprocessing backend: a pool of forked worker processes, over pipes.

Whatever leaves a process — linearized subtrees, boundary attribute values, code
fragments, descriptors, results — is pickled by its sender and unpickled by its
reader, exactly like bytes on a wire; a message between two bodies of the driving
process is handed over as the object it is.

:class:`ProcessesSubstrate` is a pool of long-lived forked workers, so fork cost is paid
once, not per compile; grammar + plan bundles ship to each worker once and are cached
there by key.  A worker forked after a bundle was registered inherits it instead, with
the evaluator code the driving process compiled from it when the compiler bound to the
pool (:meth:`ProcessesSubstrate.prepare`).  The pool grows on demand and serves many
concurrent run sessions; a one-shot compile is a private pool, started, used once and
shut down.

Sessions, mailboxes, the attempt book, the bundle registry and the job runner inside a
worker are the coordinator core in :mod:`repro.backends.routing`, the same code the
``sockets`` cluster runs; what is here is the transport and where jobs run:

- **worker → parent**: each worker pickles every record straight into its own one-way
  pipe, from its only thread and without a lock: killing it can only cut its own
  stream.
- **parent → worker**: the worker's job pipe is its only way in, for job specs,
  deliveries and aborts.  Any parent thread may append a frame to the worker's outbox;
  only the dispatcher writes the pipe, non-blocking, so a worker that is busy writing
  records of its own can never hold the dispatcher up.
- **dispatcher**: one parent thread sleeps in a ``selectors`` poll over every record
  pipe and process sentinel, a wake pipe, and each job pipe that still has bytes to
  take, routing records as they land and handling deaths as they happen.  A worker's
  message stays the bytes the worker pickled until its reader opens it.
- **placement**: every job of a batch gets a worker of its own at once, forking what
  the pool lacks.  A worker that dies mid-job is replaced at once, up to
  ``max_respawns`` times per job, and the replacement replays the job from the
  mailbox logs.
- **lifetime**: a child closes every pipe end that belongs to the parent, so its pipes
  reach EOF exactly when the driving process dies or shuts the pool down, and the
  worker exits.  ``shutdown()`` joins every worker and closes every pipe the pool
  made, on every path.

A worker body must be a :class:`~repro.backends.base.WorkerJob` whose factory and
arguments pickle; raw generator bodies run on the threads substrate.

Requires a POSIX ``fork`` start method (Linux/macOS); on platforms without it,
construction raises :class:`BackendError` — use the threads backend there.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import selectors
import struct
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.backends.base import BackendError, FaultError, WorkerJob, freeze_inherited_heap
from repro.backends.routing import (
    AttemptBook,
    BundleRegistry,
    Job,
    JobTransport,
    RoutedSubstrate,
    WorkerGone,
    run_job,
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


# ---------------------------------------------------------------------- child side


class _PipeTransport(JobTransport):
    """A pooled job's frame I/O: records out on the worker's record pipe, frames in
    from its job pipe, which reaches EOF when the driving process is gone.

    Every channel has one writer: this worker on its record pipe, the parent's
    dispatcher on its job pipe — so a worker killed at any instant damages nothing a
    sibling reads or writes.
    """

    def __init__(self, records: Any, jobs: Any, attempt_id: int, job_name: str,
                 receive_timeout: float):
        super().__init__(attempt_id, job_name, receive_timeout)
        self._records = records
        self._jobs = jobs

    def write(self, record: Tuple) -> None:
        # Pickled and written here, in the caller: a record that does not pickle
        # raises inside the job that produced it.
        blob = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        try:
            self._records.send_bytes(blob)
        except OSError as error:  # EPIPE: the only reader was the driving process
            raise WorkerGone() from error

    def next_frame(self, timeout: float) -> Optional[Tuple]:
        if not self._jobs.poll(timeout):
            return None
        try:
            return pickle.loads(self._jobs.recv_bytes())
        except (EOFError, OSError) as error:
            raise WorkerGone() from error


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
    :func:`~repro.backends.routing.run_job` has returned (taking the job's region
    tree, evaluator and transport with it) one ``gc.collect()`` frees whatever cycles
    the job left — so a collection never lands inside an evaluation and an idle pool
    holds no trees.
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
        _, attempt_id, name, payload, shared_blobs, receive_timeout, fault_token = frame
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
            run_job(_PipeTransport(records, jobs, attempt_id, name, receive_timeout),
                    payload, shared_blobs, shared_cache)
        except WorkerGone:
            return
        del frame, payload, shared_blobs
        gc.collect()


# --------------------------------------------------------------------- parent side


class _PoolWorker:
    """Parent-side bookkeeping for one long-lived worker process."""

    __slots__ = (
        "index", "process", "jobs", "records", "outbox", "written", "wake",
        "known_keys", "attempts",
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
        self.known_keys: Set[int] = set()
        #: The attempt it runs, if any (the book keeps it).
        self.attempts: Set[Any] = set()

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


class ProcessesSubstrate(RoutedSubstrate):
    """A persistent pool of forked worker processes shared by many run sessions."""

    name = "processes"

    #: How many times one job may be re-executed after worker deaths before the
    #: session gives up with a typed error.
    MAX_RESPAWNS = 3

    def __init__(
        self,
        workers: int = 0,
        receive_timeout: Optional[float] = None,
        max_respawns: Optional[int] = None,
    ):
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:
            raise BackendError(
                "the processes substrate requires the 'fork' multiprocessing start "
                "method (POSIX only); use the threads substrate on this platform"
            ) from error
        self.max_respawns = self.MAX_RESPAWNS if max_respawns is None else max_respawns
        super().__init__(
            receive_timeout, AttemptBook(self.max_respawns + 1), BundleRegistry()
        )
        self._initial_workers = workers
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
        try:
            self._fail_sessions("processes substrate was shut down mid-run")
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

    def prepare(self, job: WorkerJob) -> None:
        with self._lock:
            if self._stopped:
                return
        shared = {
            argument: self._bundles.objects[self._bundles.entry(obj)]
            for argument, obj in job.shared.items()
        }
        job.factory(**dict(job.kwargs), **shared)

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
        inherited = dict(self._bundles.objects)
        with _FORK_LOCK:
            jobs_reader, jobs_writer = self._context.Pipe(duplex=False)
            records_reader, records_writer = self._context.Pipe(duplex=False)
            _PARENT_ENDS.update((jobs_writer, records_reader))
            process = self._context.Process(
                target=_pool_worker_main,
                args=(index, jobs_reader, records_writer, inherited),
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
        worker.known_keys.update(inherited)
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

    def _place(self, jobs: List[Job]) -> None:
        """Give every job of one session's batch its own worker now, forking as needed.

        Pooled bodies block on each other's messages, so a batch queued behind itself
        would deadlock.  The jobs' bundles are registered already, so a worker forked
        here inherits them.
        """
        active_plan = _faults.ACTIVE
        fault_token = active_plan.encode() if active_plan is not None else None
        with self._lock:
            if self._stopped:
                raise BackendError("processes substrate has been shut down")
            free = [
                worker
                for worker in self._workers
                if not worker.attempts and worker.process.is_alive()
            ]
            while len(free) < len(jobs):
                free.append(self._fork_worker_locked())
            for job, worker in zip(jobs, free):
                self._launch_locked(job, worker, fault_token)
            self._bundles.evict(worker.known_keys for worker in self._workers)

    def _launch_locked(self, job: Job, worker: _PoolWorker,
                       fault_token: Optional[str]) -> None:
        """Start an attempt of ``job`` on ``worker``: its spec and the bundles it lacks."""
        shared_blobs = {
            key: self._bundles.blob(key)
            for key in job.shared_keys.values()
            if key not in worker.known_keys
        }
        attempt = self._book.start(job, worker)
        if attempt is None:
            return  # its session aborted it meanwhile
        worker.post(("job", attempt.attempt_id, job.name, job.payload, shared_blobs,
                     job.session.receive_timeout, fault_token))
        # Blobs count as known only from here — marking earlier would let a submit
        # that failed before the spec was queued poison the cache for every later
        # compilation.
        worker.known_keys.update(shared_blobs)

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
        writing), at bytes that do not unpickle or at a record the book cannot act on
        (one naming a mailbox of another session); each means the same thing — this
        worker will say nothing more that can be trusted.
        """
        try:
            self._book.handle(pickle.loads(worker.records.recv_bytes()))
        except Exception:  # noqa: BLE001 — EOFError, OSError, UnpicklingError, ...
            return False
        return True

    def _bury(self, worker: _PoolWorker) -> None:
        """Take a dead worker out of the pool and replay the job it was running.

        Whatever the worker wrote before it died is still in its pipe and is routed
        first, so the replay starts from exactly what the first attempt got out: its
        sends raise the job's watermark.  The worker leaves the pool before the
        replacement is forked, and the replacement's own claims rebuild the history
        of every mailbox it reads.
        """
        while worker.records.poll() and self._read_record(worker):
            pass
        with self._lock:
            self._workers.remove(worker)
        _close_parent_ends(worker.jobs, worker.records)
        worker.process.kill()  # a no-op unless the stream ended before the process
        worker.process.join()
        detail = f"worker process exited with code {worker.process.exitcode}"
        worker.process.close()
        for attempt in list(worker.attempts):
            job = self._book.lost(attempt, detail)
            if job is None:
                continue
            try:
                with self._lock:
                    if self._stopped:
                        raise BackendError("substrate shut down during recovery")
                    replacement = self._fork_worker_locked()
                    self._respawns += 1
                    # The replay runs with NO fault plan: plan counters are process-
                    # local, so re-shipping the plan would re-arm one-shot rules and
                    # turn every injected crash into a crash loop.  A real SIGKILL
                    # doesn't recur on the replacement either.
                    self._launch_locked(job, replacement, None)
            except BaseException as error:  # noqa: BLE001 — a typed job failure
                self._book.fail(job, f"{detail}; respawn failed: {error!r}")
