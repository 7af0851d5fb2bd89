"""The in-process threads backend: a persistent pool of worker threads.

Mailboxes are ``queue.Queue`` instances, sends are queue puts, receives are blocking
queue gets.  Python's GIL serialises pure-Python compute, so this backend demonstrates
real *concurrency* (overlapping blocking waits, true message passing) rather than
parallel speedup — but it exercises the identical protocol code on a real substrate and
is the cheapest way to run the evaluators off the simulator.

:class:`ThreadsSubstrate` is the pool: long-lived worker threads pull process bodies
from a shared job channel and survive across compilations, so per-compilation thread
spawn/join cost disappears and many run sessions can execute concurrently on one pool
(the pool grows on demand so that every body of a session can run at once — bodies
block on each other's messages, so a session's batch must never queue behind itself).

Failure handling: any body that raises flips the owning *session's* failure flag and
injects a :class:`~repro.backends.base.WakeToken` into every mailbox of the session;
the other bodies sleep in genuinely blocking receives (no polling ticks) and the
token rouses them so the session unwinds promptly instead of deadlocking, while
unrelated sessions on the same pool keep running.  :meth:`ThreadsSession.run`
re-raises the first error.
"""

from __future__ import annotations

import queue
import threading
import time
import warnings
import weakref
from typing import Any, Generator, List, Optional, Tuple

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    FaultError,
    Mailbox,
    Substrate,
    WakeToken,
    WorkerJob,
    apply_send_faults,
    blocking_receive,
    drive,
)
from repro.faults import plan as _faults


class QueueMailbox(Mailbox):
    """A mailbox backed by a FIFO queue (``queue.Queue`` or ``multiprocessing.Queue``)."""

    __slots__ = ("queue",)

    def __init__(self, name: str, fifo: Any):
        super().__init__(name)
        self.queue = fifo


class ThreadsSubstrate(Substrate):
    """A persistent pool of OS worker threads shared by many run sessions."""

    name = "threads"

    #: Default bound on blocking receives (seconds) when none is configured.
    DEFAULT_RECEIVE_TIMEOUT = 60.0

    def __init__(self, workers: int = 0, receive_timeout: Optional[float] = None):
        super().__init__()
        self.receive_timeout = (
            self.DEFAULT_RECEIVE_TIMEOUT if receive_timeout is None else receive_timeout
        )
        self._initial_workers = workers
        self._jobs: "queue.SimpleQueue[Optional[Tuple[ThreadsSession, Generator, str]]]" = (
            queue.SimpleQueue()
        )
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._busy = 0
        self._pending = 0
        self._active: "weakref.WeakSet[ThreadsSession]" = weakref.WeakSet()
        self._started = False
        self._stopped = False
        self._leaked_workers = 0

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> "ThreadsSubstrate":
        with self._lock:
            if self._stopped:
                raise BackendError("threads substrate has been shut down")
            if not self._started:
                self._started = True
                for _ in range(self._initial_workers):
                    self._spawn_worker_locked()
        return self

    def shutdown(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            count = len(self._threads)
            threads = list(self._threads)
            sessions = list(self._active)
        # Unwind any compilation still in flight: its blocked receives sleep inside a
        # real queue.get, so flip the failure flag AND wake every mailbox — the pool
        # threads come back promptly instead of sitting out the full receive timeout.
        for session in sessions:
            if not session._done.is_set():
                session._fail("threads substrate shut down mid-run")
        for _ in range(count):
            self._jobs.put(None)
        leaked = []
        for thread in threads:
            thread.join(timeout=5.0)
            if thread.is_alive():
                leaked.append(thread.name)
        if leaked:
            # A worker that outlives its join window is wedged in user compute (a
            # blocked receive would have been woken above).  Surface the leak
            # instead of silently abandoning the thread: the count feeds
            # ServiceStats.leaked_workers and the warning names the threads.
            with self._lock:
                self._leaked_workers += len(leaked)
            warnings.warn(
                f"threads substrate shutdown left {len(leaked)} worker thread(s) "
                f"running past the 5s join window: {', '.join(sorted(leaked))}",
                RuntimeWarning,
                stacklevel=2,
            )
        # Any job the exiting workers never picked up must still be settled, or its
        # session's run() would wait on the completion event forever.
        while True:
            try:
                item = self._jobs.get_nowait()
            except queue.Empty:
                break
            if item is None:
                continue
            session, _body, name = item
            session._body_never_ran(
                name, BackendError("threads substrate shut down before body ran")
            )

    def session(
        self,
        machines: int = 1,
        *,
        receive_timeout: Optional[float] = None,
    ) -> "ThreadsSession":
        self.start()
        with self._lock:
            self._sessions_opened += 1
        return ThreadsSession(
            self, self.receive_timeout if receive_timeout is None else receive_timeout
        )

    @property
    def pool_size(self) -> int:
        """How many worker threads are alive (grows with the largest batch seen)."""
        with self._lock:
            return len(self._threads)

    @property
    def leaked_workers(self) -> int:
        """Worker threads that survived their shutdown join window (should be 0)."""
        with self._lock:
            return self._leaked_workers

    # ---------------------------------------------------------------- internals

    def _spawn_worker_locked(self) -> None:
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"repro-pool-{len(self._threads)}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _dispatch(self, session: "ThreadsSession", prepared: List[Tuple[Generator, str]]) -> None:
        """Enqueue one session's bodies, growing the pool so they all run at once."""
        with self._lock:
            if self._stopped:
                raise BackendError("threads substrate has been shut down")
            if not self._started:
                raise BackendError(
                    "threads substrate not started; call start() or use a with block"
                )
            available = len(self._threads) - self._busy - self._pending
            for _ in range(max(0, len(prepared) - available)):
                self._spawn_worker_locked()
            self._pending += len(prepared)
            self._active.add(session)
            # Enqueue under the lock so shutdown() (which also takes it) observes
            # either no jobs or all of them — never a half-dispatched batch whose
            # missing half could strand the session's completion event.
            for body, name in prepared:
                self._jobs.put((session, body, name))

    def _worker_loop(self) -> None:
        while True:
            item = self._jobs.get()
            if item is None:
                return
            session, body, name = item
            with self._lock:
                self._pending -= 1
                self._busy += 1
            try:
                session._run_body(body, name)
            finally:
                # Release the pool slot BEFORE signalling the session's completion
                # event: a caller woken by run() may immediately dispatch its next
                # batch, and must see this thread as available again — otherwise the
                # pool grows by one idle thread per back-to-back compilation.
                with self._lock:
                    self._busy -= 1
                session._body_finished()
                # An idle pool thread must not pin its last job — the region tree
                # and evaluator state inside ``body``, the session's mailboxes —
                # while it blocks in ``get()``, whether the body finished or failed.
                del item, session, body


class ThreadsSession(Backend):
    """One compilation run on a :class:`ThreadsSubstrate` pool."""

    name = "threads"

    def __init__(self, substrate: ThreadsSubstrate, receive_timeout: float):
        super().__init__()
        self._substrate = substrate
        self.receive_timeout = receive_timeout
        self._bodies: List[Tuple[Any, str]] = []
        self._failed = threading.Event()
        self._errors: List[Tuple[str, BaseException]] = []
        self._lock = threading.Lock()
        self._messages = 0
        self._bytes = 0
        self._start: Optional[float] = None
        self._remaining = 0
        self._done = threading.Event()
        self._mailboxes: List[QueueMailbox] = []

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> QueueMailbox:
        mailbox = QueueMailbox(name, queue.Queue())
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
        if not coordinator:
            self._worker_count += 1
        self._bodies.append((body, name))

    def send(
        self,
        source: int,
        destination: int,
        message: Any,
        size_bytes: int,
        mailbox: Mailbox,
    ) -> None:
        assert isinstance(mailbox, QueueMailbox)
        if _faults.ACTIVE is not None:
            replacement = apply_send_faults(mailbox.name, message)
            if replacement is not None:
                for copy in replacement:
                    mailbox.queue.put(copy)
                with self._lock:
                    self._messages += len(replacement)
                    self._bytes += size_bytes * len(replacement)
                return
        mailbox.queue.put(message)
        with self._lock:
            self._messages += 1
            self._bytes += size_bytes

    def _run(self) -> float:
        self._start = time.perf_counter()
        prepared: List[Tuple[Generator, str]] = []
        for body, name in self._bodies:
            if isinstance(body, WorkerJob):
                body = body.materialize(self)
            prepared.append((body, name))
        self._remaining = len(prepared)
        if not prepared:
            self._done.set()
            return 0.0
        try:
            self._substrate._dispatch(self, prepared)
        except BaseException:
            # Nothing was enqueued: settle the completion event ourselves so
            # close() doesn't wait for bodies that will never run.
            with self._lock:
                self._remaining = 0
                self._done.set()
            raise
        self._done.wait()
        if self._errors:
            name, error = self._errors[0]
            raise BackendError(f"worker {name!r} failed: {error}") from error
        return time.perf_counter() - self._start

    @property
    def now(self) -> float:
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start

    def telemetry(self) -> BackendTelemetry:
        return BackendTelemetry(network_messages=self._messages, network_bytes=self._bytes)

    def _close(self) -> None:
        if self._ran and not self._done.is_set():
            # Unwind any of this session's bodies still blocked in a receive: flip the
            # failure flag and wake every mailbox so sleeping readers return at once.
            self._fail("session closed mid-run")
            self._done.wait(timeout=10.0)

    # ---------------------------------------------------------------- internals

    def _fail(self, reason: str) -> None:
        """Flag the session failed and wake every blocked receiver it owns."""
        self._failed.set()
        for mailbox in self._mailboxes:
            mailbox.queue.put(WakeToken(reason))

    def _run_body(self, body: Generator, name: str) -> None:
        try:
            drive(body, lambda mailbox: self._receive(mailbox, name))
        except BaseException as error:  # noqa: BLE001 — reported via run()
            with self._lock:
                self._errors.append((name, error))
            self._fail(f"worker {name!r} failed")

    def _body_finished(self) -> None:
        """Completion accounting, called by the pool after the slot is released."""
        with self._lock:
            self._remaining -= 1
            if self._remaining == 0:
                self._done.set()

    def _receive(self, mailbox: QueueMailbox, who: str) -> Any:
        if _faults.ACTIVE is not None:
            # A thread cannot be SIGKILLed, so a "crash" here is a typed error:
            # the session unwinds its siblings and run() raises — the invariant's
            # clean-failure arm for the in-process substrates.
            hit = _faults.ACTIVE.check("worker.crash", who)
            if hit is not None:
                raise FaultError("worker.crash", hit.action, who)
        return blocking_receive(
            mailbox.queue, self.receive_timeout, self._failed, who, mailbox.name
        )

    def _body_never_ran(self, name: str, error: BaseException) -> None:
        """Settle accounting for a dispatched body no pool worker will ever run."""
        with self._lock:
            self._errors.append((name, error))
        self._fail("substrate shut down before body ran")
        with self._lock:
            self._remaining -= 1
            if self._remaining == 0:
                self._done.set()
