"""The coordinator core of the out-of-process substrates, ``processes`` and ``sockets``.

Parser and librarian run on threads of the driving process; the evaluators run in
worker processes — forked pool workers on ``processes``, worker hosts reached over TCP
on ``sockets``.  Everything between the two sides goes through the classes here, which
do not know which substrate calls them:

- :class:`RoutedSession` — one compilation run: its mailboxes, the bodies it spawned,
  the coordinator threads, completion accounting;
- :class:`RoutedMailbox` — a replayable mailbox: every delivery is logged and put to
  every *sink* — the local queue of a coordinator body that reads it, or an attempt of
  a worker job that claimed it — and a claim replays the log to the new sink first;
- :class:`AttemptBook` — every job's attempts, settled exactly once, with one rule that
  drops the sends an attempt repeats;
- :class:`BundleRegistry` — grammar and plan bundles, keyed once and pickled once;
- :class:`JobTransport` and :func:`run_job` — the worker side: the facade a job body
  sees, and the sequence that runs it to its one final record.

Recovery is receiver-side message logging with deterministic replay (Johnson and
Zwaenepoel, *Sender-based message logging*, FTCS 1987).  A job body is a deterministic
function of the messages it reads, so an attempt that replaces a dead one, or races a
straggler, reads the same logged history and makes the same sends in the same order;
the book forwards each send number of a job once, whichever attempt makes it first.

A worker writes these records upstream (``a`` is the attempt): ``("claim", a,
mailbox)`` before its first read of a mailbox, ``("send", a, mailbox, sealed
message)``, ``("report", a, region, report)``, and one final ``("done", a, messages,
bytes)``, ``("aborted", a)`` or ``("error", a, traceback)``.  It reads ``("job", a,
name, payload, shared blobs, receive timeout, ...)``, ``("deliver", a, mailbox,
message)`` and ``("abort", a)``.  A substrate brings the worker handles (``post(frame)``
and the set ``attempts``), the frame I/O on both sides, and where a job runs and when
it runs again: :meth:`RoutedSubstrate._place`.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, Generator, Iterable, List, Optional, Set, Tuple

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
    receive_timed_out,
)
from repro.faults import plan as _faults


class Sealed:
    """A worker's message as the bytes the worker pickled it to.

    The driving process logs and routes it unopened; the mailbox's reader unpickles it
    — a coordinator thread straight from its queue, a worker job after one more copy
    of the same bytes in a ``deliver`` frame.
    """

    __slots__ = ("blob",)

    def __init__(self, blob: bytes):
        self.blob = blob

    def __reduce__(self) -> Tuple:
        return Sealed, (self.blob,)


def opened(message: Any) -> Any:
    """What a mailbox read returns: the message itself, unpickled if it was sealed."""
    return pickle.loads(message.blob) if type(message) is Sealed else message


# ------------------------------------------------------------------- mailboxes


class RoutedMailbox(Mailbox):
    """A mailbox of one :class:`RoutedSession`, numbered within that session.

    It crosses to a worker as its name and number only.  In the driving process it
    holds the ``log`` of every delivery and the ``sinks`` they go to (anything with
    ``put``); ``queue`` is the local queue of the coordinator body reading it, if one
    does.  The session's routing lock guards all three.
    """

    __slots__ = ("index", "log", "sinks", "queue")

    def __init__(self, name: str, index: int):
        super().__init__(name)
        self.index = index
        self.log: List[Any] = []
        self.sinks: List[Any] = []
        self.queue: Optional[queue_module.SimpleQueue] = None

    def __reduce__(self) -> Tuple:
        return RoutedMailbox, (self.name, self.index)

    def deliver(self, message: Any) -> None:
        """Log one message and put it to every sink."""
        self.log.append(message)
        for sink in self.sinks:
            sink.put(message)

    def claim(self, sink: Any) -> None:
        """Add a sink, replaying the log to it first."""
        for message in self.log:
            sink.put(message)
        self.sinks.append(sink)


class _AttemptSink:
    """The sink of a mailbox an attempt claimed: each delivery, a frame to its worker.

    Wake tokens rouse readers in the driving process only; a worker job is stopped by
    an abort frame, or by losing its way back to the driving process.
    """

    __slots__ = ("attempt", "index")

    def __init__(self, attempt: "Attempt", index: int):
        self.attempt = attempt
        self.index = index

    def put(self, message: Any) -> None:
        if type(message) is not WakeToken:
            attempt = self.attempt
            attempt.worker.post(("deliver", attempt.attempt_id, self.index, message))


# ------------------------------------------------------------------ the book


class Job:
    """One worker job of one session, across however many attempts it takes.

    ``payload`` is the pickled ``(factory, kwargs, shared keys)``; ``forwarded`` is the
    highest send number routed on the job's behalf, by any attempt.
    """

    __slots__ = (
        "session", "name", "spec", "payload", "shared_keys", "attempts", "started",
        "forwarded", "done", "aborted",
    )

    def __init__(self, session: "RoutedSession", name: str, spec: WorkerJob,
                 payload: bytes, shared_keys: Dict[str, int]):
        self.session = session
        self.name = name
        self.spec = spec
        self.payload = payload
        self.shared_keys = shared_keys
        self.attempts: List[Attempt] = []   # live ones only
        self.started = 0                    # attempts started, a refunded one excepted
        self.forwarded = 0
        self.done = False
        self.aborted = False                # its session aborted it


class Attempt:
    """One execution of a job on one worker."""

    __slots__ = ("attempt_id", "job", "worker", "sent", "started_at", "claims")

    def __init__(self, attempt_id: int, job: Job, worker: Any):
        self.attempt_id = attempt_id
        self.job = job
        self.worker = worker
        self.sent = 0                       # send records seen from this attempt
        self.started_at = time.monotonic()
        self.claims: List[Tuple[RoutedMailbox, _AttemptSink]] = []


class AttemptBook:
    """Every live attempt of a substrate's jobs, and the one set of rules they follow.

    - A send is routed only if its number, counted per attempt, is above the job's
      ``forwarded`` watermark: a replayed attempt, or a speculative twin, repeats the
      sends of the attempt ahead of it, and only the first of each gets through.
    - A job settles once — done, failed, aborted by its session, or lost with no
      attempt left to make — and its other attempts are aborted then.
    - An attempt that ends, or is lost, gives up its claims: its sinks are dropped
      from their mailboxes.  A replacement's own claims rebuild its history.

    Session callbacks run outside the book's lock; the book's lock is taken before a
    session's routing lock, never after.
    """

    def __init__(self, max_attempts: int):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        self._attempts: Dict[int, Attempt] = {}
        self._next_id = 0
        #: Lifetime counters: jobs done, jobs failed, repeated sends dropped.
        self.completed = 0
        self.failed = 0
        self.suppressed = 0

    def live(self) -> List[Attempt]:
        with self._lock:
            return list(self._attempts.values())

    def attempt(self, attempt_id: int) -> Optional[Attempt]:
        with self._lock:
            return self._attempts.get(attempt_id)

    def start(self, job: Job, worker: Any) -> Optional[Attempt]:
        """A new attempt of ``job`` on ``worker``; None if the job has settled."""
        with self._lock:
            if job.done:
                return None
            self._next_id += 1
            attempt = Attempt(self._next_id, job, worker)
            self._attempts[attempt.attempt_id] = attempt
            job.attempts.append(attempt)
            job.started += 1
            worker.attempts.add(attempt)
            return attempt

    def handle(self, record: Tuple) -> None:
        """Act on one record a worker wrote; one of an attempt no longer live is dropped."""
        tag = record[0]
        with self._lock:
            attempt = self._attempts.get(record[1])
            if attempt is None:
                return
            job = attempt.job
            session = job.session
            if tag == "send":
                attempt.sent += 1
                if attempt.sent <= job.forwarded:
                    self.suppressed += 1
                    return
                job.forwarded = attempt.sent
                session._deliver(record[2], Sealed(record[3]))
                return
            if tag == "claim":
                sink = _AttemptSink(attempt, record[2])
                attempt.claims.append((session._claim(record[2], sink), sink))
                return
            if tag == "report":
                session._reports[record[2]] = record[3]
                return
            self._retire_locked(attempt)
            if job.done or (tag == "aborted" and (not job.aborted or job.attempts)):
                return  # settled already, or an attempt the session did not abort
            job.done = True
            self._abort_attempts_locked(job)
            if tag == "done":
                self.completed += 1
            elif tag == "error":
                self.failed += 1
        if tag == "done":
            session._settle_jobs(1, record[2], record[3])
        elif tag == "error":
            session._job_failed(job.name, record[2])
        else:
            session._settle_jobs(1)

    def lost(self, attempt: Attempt, detail: str, *, refund: bool = False) -> Optional[Job]:
        """``attempt`` died, or was given up: return its job if it is to run again.

        ``refund`` gives the attempt back to the job's budget.  A job that still has a
        live attempt waits for it; one whose session aborted it settles; one out of
        attempts fails with ``detail``.
        """
        with self._lock:
            if self._attempts.get(attempt.attempt_id) is not attempt:
                return None
            self._retire_locked(attempt)
            job = attempt.job
            if refund:
                job.started -= 1
            if job.done or job.attempts:
                return None
            if not job.aborted and job.started < self.max_attempts:
                again = job
            else:
                again = None
                job.done = True
                if not job.aborted:
                    self.failed += 1
        if again is not None:
            if not refund:
                job.session._note_replay()
            return again
        if job.aborted:
            job.session._settle_jobs(1)
        else:
            job.session._job_failed(
                job.name, f"{detail}; {job.started} attempt(s) exhausted"
            )
        return None

    def fail(self, job: Job, detail: str) -> None:
        """Settle ``job`` as failed, unless it has settled already."""
        with self._lock:
            if job.done:
                return
            job.done = True
            self.failed += 1
            self._abort_attempts_locked(job)
        job.session._job_failed(job.name, detail)

    def abort(self, session: "RoutedSession") -> None:
        """Abort every attempt of ``session``'s jobs; a job with none settles now."""
        settled = 0
        with self._lock:
            for job in session._jobs:
                if job.done:
                    continue
                job.aborted = True
                if job.attempts:
                    self._abort_attempts_locked(job)
                else:
                    job.done = True
                    settled += 1
        if settled:
            session._settle_jobs(settled)

    def settle_unstarted(self, jobs: Iterable[Job]) -> int:
        """Settle the jobs no attempt was ever started for; how many there were."""
        count = 0
        with self._lock:
            for job in jobs:
                if not job.done and not job.started:
                    job.done = True
                    count += 1
        return count

    def _retire_locked(self, attempt: Attempt) -> None:
        del self._attempts[attempt.attempt_id]
        attempt.job.attempts.remove(attempt)
        attempt.worker.attempts.discard(attempt)
        attempt.job.session._drop_sinks(attempt.claims)
        attempt.claims.clear()  # each sink refers back to the attempt

    @staticmethod
    def _abort_attempts_locked(job: Job) -> None:
        for attempt in job.attempts:
            attempt.worker.post(("abort", attempt.attempt_id))


# ------------------------------------------------------------------- bundles


class BundleRegistry:
    """The shared objects (grammar + plan bundles) of a substrate's jobs, by key.

    Two dedup regimes.  A :class:`SharedBundle` carries an explicit stable name (the
    language registry's bundle key), so every caller-side compiler for one registered
    language maps to one entry, and the payload crosses to each worker once ever, even
    when callers rebuild grammar/plan objects per call site.  Anything else is keyed by
    component identity: thin-client compilers rebuild ``(grammar, plan)`` tuples, but
    the grammar and plan objects themselves are stable.  Payloads stay pinned for the
    substrate's lifetime (an identity is a key); their pickled bytes are made once and
    kept until :meth:`evict` finds every worker holds them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ids: Dict[Tuple, int] = {}
        self.objects: Dict[int, Any] = {}
        self._blobs: Dict[int, bytes] = {}

    def entry(self, obj: Any) -> int:
        """The key of ``obj``, registering it on first sight."""
        if isinstance(obj, SharedBundle):
            ident: Tuple = ("named", obj.key)
            payload = obj.payload
        else:
            ident = tuple(id(part) for part in obj) if isinstance(obj, tuple) else (id(obj),)
            payload = obj
        with self._lock:
            key = self.ids.get(ident)
            if key is None:
                key = self.ids[ident] = len(self.ids)
                self.objects[key] = payload
            return key

    def blob(self, key: int) -> bytes:
        """The pickled payload of ``key``."""
        with self._lock:
            blob = self._blobs.get(key)
            if blob is None:
                try:
                    blob = self._blobs[key] = pickle.dumps(self.objects[key])
                except Exception as error:
                    raise BackendError(
                        "shared objects (grammar/plan bundles) must be picklable to "
                        "reach a worker process; use module-level semantic functions "
                        "and converters, or the threads substrate instead"
                    ) from error
            return blob

    def evict(self, holdings: Iterable[Set[int]]) -> None:
        """Drop the bytes of every key in all ``holdings`` (each worker's known keys)."""
        holdings = list(holdings)
        with self._lock:
            for key in [key for key in self._blobs if all(key in held for held in holdings)]:
                del self._blobs[key]


# ------------------------------------------------------------------- session


class RoutedSession(Backend):
    """One compilation run on a :class:`RoutedSubstrate`."""

    def __init__(self, substrate: "RoutedSubstrate", session_id: int, receive_timeout: float):
        super().__init__()
        self.name = substrate.name
        self._substrate = substrate
        self.session_id = session_id
        self.receive_timeout = receive_timeout
        self._worker_jobs: List[Tuple[WorkerJob, str]] = []
        self._coordinators: List[Tuple[Generator, str]] = []
        self._jobs: List[Job] = []
        self._failed = threading.Event()
        self._errors: List[Tuple[str, str]] = []
        self._lock = threading.Lock()
        #: Guards every mailbox's log, sinks and queue, and the wake reason.
        self._route_lock = threading.Lock()
        self._mailboxes: List[RoutedMailbox] = []
        self._wake_reason: Optional[str] = None    # set once receivers were roused
        self._replays = 0
        self._messages = 0
        self._bytes = 0
        self._jobs_remaining = 0
        self._jobs_event = threading.Event()
        self._start: Optional[float] = None

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> RoutedMailbox:
        with self._route_lock:
            mailbox = RoutedMailbox(name, len(self._mailboxes))
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
        if coordinator:
            if isinstance(body, WorkerJob):
                body = body.materialize(self)
            self._coordinators.append((body, name))
            return
        if not isinstance(body, WorkerJob):
            raise BackendError(
                f"{self.name} workers run from picklable WorkerJob specs; wrap the "
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
        assert isinstance(mailbox, RoutedMailbox)
        messages = [message]
        if _faults.ACTIVE is not None:
            replacement = apply_send_faults(mailbox.name, message)
            if replacement is not None:
                messages = replacement
        # A coordinator's send is delivered by the coordinator's own thread: straight
        # into another coordinator's queue, or — one pickle hop — towards a worker.
        with self._route_lock:
            for item in messages:
                mailbox.deliver(item)
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

    @property
    def replays(self) -> int:
        """Jobs run again after a worker was lost (feeds ServiceStats retries)."""
        with self._lock:
            return self._replays

    def _close(self) -> None:
        if self._ran and not self._jobs_event.is_set():
            # The compilation is being torn down mid-flight (an error escaped between
            # run() and report collection, or run() itself raised): unwind our
            # coordinators and abort our worker jobs so their workers are free again.
            self._failed.set()
            self._substrate._abort_session(self)
            self._jobs_event.wait(timeout=10.0)
        self._substrate._unregister(self)
        self._jobs = []  # each job refers back to this session

    # ------------------------------------------------------------------ routing

    def _deliver(self, index: int, message: Any) -> None:
        with self._route_lock:
            self._mailboxes[index].deliver(message)

    def _claim(self, index: int, sink: Any) -> RoutedMailbox:
        with self._route_lock:
            mailbox = self._mailboxes[index]
            self._claim_locked(mailbox, sink)
        return mailbox

    def _claim_locked(self, mailbox: RoutedMailbox, sink: Any) -> None:
        """Give ``sink`` the mailbox's history and then its deliveries.  A reader that
        turns up after the session's receivers were roused gets its token here."""
        mailbox.claim(sink)
        if self._wake_reason is not None:
            sink.put(WakeToken(self._wake_reason))

    def _drop_sinks(self, claims: List[Tuple[RoutedMailbox, Any]]) -> None:
        with self._route_lock:
            for mailbox, sink in claims:
                mailbox.sinks.remove(sink)

    def _wake_mailboxes(self, reason: str) -> None:
        """Rouse every coordinator body blocked on a mailbox of this session.

        Tokens are deliberately NOT logged: a replayed job must see the protocol's
        message history, not the teardown chatter around a past crash.
        """
        with self._route_lock:
            self._wake_reason = reason
            for mailbox in self._mailboxes:
                for sink in mailbox.sinks:
                    sink.put(WakeToken(reason))

    # --------------------------------------------------------------- accounting

    def _note_replay(self) -> None:
        with self._lock:
            self._replays += 1

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

    def _fail(self, detail: str) -> None:
        """Fail the whole run at once: its substrate is going down under it, and the
        final records of its jobs will never be routed."""
        with self._lock:
            self._errors.append(("substrate", detail))
        self._failed.set()
        self._jobs_event.set()
        self._wake_mailboxes(detail)

    def _run_coordinator(self, body: Generator, name: str) -> None:
        try:
            drive(body, lambda mailbox: self._coordinator_receive(mailbox, name))
        except BaseException as error:  # noqa: BLE001 — reported via run()
            with self._lock:
                self._errors.append((name, repr(error)))
            self._failed.set()
            self._substrate._abort_session(self)

    def _coordinator_receive(self, mailbox: RoutedMailbox, who: str) -> Any:
        fifo = mailbox.queue
        if fifo is None:
            # First read by a body of this process: from here on the mailbox puts to
            # a plain in-process queue, and nothing sent to it is pickled.
            with self._route_lock:
                if mailbox.queue is None:
                    mailbox.queue = queue_module.SimpleQueue()
                    self._claim_locked(mailbox, mailbox.queue)
                fifo = mailbox.queue
        return opened(blocking_receive(
            fifo, self.receive_timeout, self._failed, who, mailbox.name
        ))


# ----------------------------------------------------------------- substrate


class RoutedSubstrate(Substrate):
    """What a substrate with worker processes shares: sessions, the book, the bundles.

    A subclass places jobs (:meth:`_place`) — on which worker, and again after a loss
    — and moves the frames; everything else about a run is here.
    """

    #: Default bound on blocking receives (seconds) when none is configured.
    DEFAULT_RECEIVE_TIMEOUT = 120.0

    def __init__(self, receive_timeout: Optional[float], book: AttemptBook,
                 bundles: BundleRegistry):
        super().__init__()
        self.receive_timeout = (
            self.DEFAULT_RECEIVE_TIMEOUT if receive_timeout is None else receive_timeout
        )
        self._book = book
        self._bundles = bundles
        self._lock = threading.Lock()
        self._sessions: Dict[int, RoutedSession] = {}
        self._session_seq = 0
        self._started = False
        self._stopped = False

    def session(
        self,
        machines: int = 1,
        *,
        receive_timeout: Optional[float] = None,
    ) -> RoutedSession:
        self.start()
        with self._lock:
            self._sessions_opened += 1
            self._session_seq += 1
            session_id = self._session_seq
        return RoutedSession(
            self,
            session_id,
            self.receive_timeout if receive_timeout is None else receive_timeout,
        )

    def _place(self, jobs: List[Job]) -> None:
        """Start a first attempt of each of one session's ``jobs``."""
        raise NotImplementedError

    def _register(self, session: RoutedSession) -> None:
        with self._lock:
            self._sessions[session.session_id] = session

    def _unregister(self, session: RoutedSession) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def _fail_sessions(self, detail: str) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session._fail(detail)

    def _abort_session(self, session: RoutedSession) -> None:
        """Abort every attempt of ``session``'s jobs and rouse its coordinator bodies."""
        self._book.abort(session)
        session._wake_mailboxes("session aborted")

    def _submit_jobs(self, session: RoutedSession, specs: List[Tuple[WorkerJob, str]]) -> None:
        """Pickle one session's worker jobs, here in the caller, and place them.

        A job that does not pickle fails loudly at submit time, not as a hung run.
        """
        jobs: List[Job] = []
        try:
            for spec, name in specs:
                shared_keys = {
                    argument: self._bundles.entry(obj)
                    for argument, obj in spec.shared.items()
                }
                try:
                    payload = pickle.dumps((spec.factory, dict(spec.kwargs), shared_keys))
                except Exception as error:
                    raise BackendError(
                        f"worker job {name!r} is not picklable for the {self.name} "
                        "substrate; give the WorkerJob a module-level factory and "
                        "picklable arguments, or use the threads substrate"
                    ) from error
                jobs.append(Job(session, name, spec, payload, shared_keys))
            session._jobs = jobs
            self._place(jobs)
        except BaseException:
            # Jobs never handed out (a refused fork, a stopped substrate, a job that
            # does not pickle) settle their share of the session's completion count,
            # or close() would wait out its grace period for them.
            session._settle_jobs(
                len(specs) - len(jobs) + self._book.settle_unstarted(jobs)
            )
            raise


# -------------------------------------------------------------- worker side


class JobAborted(Exception):
    """Raised inside a worker job when the driving process aborts its attempt."""


class WorkerGone(Exception):
    """Raised inside a worker whose way back to the driving process has closed.

    Either the driving process died or it shut the substrate down; there is nobody
    left to report to, so the worker unwinds and exits.
    """


class JobTransport:
    """The Backend facade a job body sees inside a worker process.

    A send does not touch the destination mailbox: it becomes a ``send`` record
    upstream, the message pickled here (a :class:`Sealed`) and opened only by its
    reader.  Before its first read of a mailbox the job claims it, which turns the
    mailbox's log and later deliveries towards this attempt; if the worker dies
    mid-read, a replacement's claim rebuilds the same history.  Deliveries wait here,
    by mailbox, until read.

    A subclass moves the frames: :meth:`write` one record upstream, and
    :meth:`next_frame` to wait for the next frame meant for this worker.
    """

    def __init__(self, attempt_id: int, job_name: str, receive_timeout: float):
        self.attempt_id = attempt_id
        self.job_name = job_name
        self._timeout = receive_timeout
        self._started = time.perf_counter()
        self._inbox: Dict[int, Deque[Any]] = {}
        self._claimed: Set[int] = set()
        self.messages = 0
        self.bytes = 0

    def write(self, record: Tuple) -> None:
        """Send one record upstream."""
        raise NotImplementedError

    def next_frame(self, timeout: float) -> Optional[Tuple]:
        """The next frame for this worker, or None after ``timeout`` seconds."""
        raise NotImplementedError

    def _route(self, mailbox: RoutedMailbox, message: Any) -> None:
        self.write(("send", self.attempt_id, mailbox.index,
                    pickle.dumps(message, pickle.HIGHEST_PROTOCOL)))

    def send(self, source: int, destination: int, message: Any, size_bytes: int,
             mailbox: RoutedMailbox) -> None:
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
        self.write(("report", self.attempt_id, region_id, report))

    @property
    def now(self) -> float:
        return time.perf_counter() - self._started

    def receive(self, mailbox: RoutedMailbox) -> Any:
        if mailbox.index not in self._claimed:
            # Claim before the first blocking read: the claim is what turns the
            # mailbox's deliveries towards this attempt.  It is upstream when this
            # call returns, ahead of anything that could kill the worker afterwards.
            self._claimed.add(mailbox.index)
            self.write(("claim", self.attempt_id, mailbox.index))
        if _faults.ACTIVE is not None:
            apply_receive_faults(self.job_name, mailbox.name)
            hit = _faults.ACTIVE.check("worker.crash", self.job_name)
            if hit is not None:
                if hit.action == "crash":
                    os._exit(3)  # a hard, SIGKILL-like death
                raise FaultError("worker.crash", hit.action, self.job_name)
        # Genuinely blocking: the job sleeps in the OS until a frame arrives, so the
        # per-message latency floor is the transport itself, not a tick.
        pending = self._inbox.get(mailbox.index)
        deadline = time.monotonic() + self._timeout
        while not pending:
            remaining = deadline - time.monotonic()
            frame = self.next_frame(remaining) if remaining > 0 else None
            if frame is None:
                raise receive_timed_out("worker job", self._timeout, mailbox.name)
            if frame[1] != self.attempt_id:
                continue  # meant for an attempt this worker ran earlier
            if frame[0] == "deliver":
                self._inbox.setdefault(frame[2], deque()).append(frame[3])
            elif frame[0] == "abort":
                raise JobAborted()
            pending = self._inbox.get(mailbox.index)
        return opened(pending.popleft())


def run_job(transport: JobTransport, payload: bytes, shared_blobs: Dict[int, bytes],
            shared: Dict[int, Any]) -> None:
    """Run one job to its one final record: ``done``, ``aborted`` or ``error``.

    ``shared_blobs`` are pickled bundles new to this worker; they join ``shared``, the
    worker's bundles by key, for this job and every later one.  A function of its own
    so that every exit releases the job's locals.
    """
    try:
        for key, blob in shared_blobs.items():
            shared[key] = pickle.loads(blob)
        factory, kwargs, shared_keys = pickle.loads(payload)
        for argument, key in shared_keys.items():
            kwargs[argument] = shared[key]
        drive(factory(transport, **kwargs), transport.receive)
        final: Tuple = ("done", transport.attempt_id, transport.messages, transport.bytes)
    except WorkerGone:
        raise
    except JobAborted:
        final = ("aborted", transport.attempt_id)
    except BaseException:  # noqa: BLE001 — shipped upstream; the worker lives on
        final = ("error", transport.attempt_id, traceback.format_exc())
    transport.write(final)
