"""The in-process threads backend: the simulator's kernel run on a wall clock.

A session's bodies are processes of one :class:`~repro.runtime.simulator.Environment`,
run cooperatively on the thread that calls ``run()``; each mailbox is a simulator
``Store``.  A :class:`Compute` resumes at once (the real work already ran inline), a
:class:`Receive` on an empty mailbox parks the body, and the clock is
``time.perf_counter()``.  Different sessions run concurrently on their callers' threads.

A deadlock is found, not timed out: when the kernel's queue drains with bodies still
parked, ``run()`` raises :class:`BackendError` naming them and the mailbox each one
waits on.  ``receive_timeout`` bounds the session's wall clock, checked as a body
resumes at a ``Receive``; an abort from another thread (``close()``, or the
substrate's ``shutdown()``) is seen before the next resume.  Any failure is a typed
:class:`BackendError` that names its body.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Generator, Optional

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    Compute,
    FaultError,
    Mailbox,
    Receive,
    Substrate,
    WorkerJob,
    apply_receive_faults,
    apply_send_faults,
    receive_timed_out,
)
from repro.backends.simulated import SimulatedMailbox, raise_if_deadlocked
from repro.faults import plan as _faults
from repro.runtime.simulator import Environment, Get


class ThreadsSubstrate(Substrate):
    """Hands out wall-clock kernel sessions; it pools nothing, so it starts nothing."""

    name = "threads"

    #: Default wall-clock bound on one session (seconds) when none is configured.
    DEFAULT_RECEIVE_TIMEOUT = 60.0

    def __init__(self, receive_timeout: Optional[float] = None):
        super().__init__()
        self.receive_timeout = (
            self.DEFAULT_RECEIVE_TIMEOUT if receive_timeout is None else receive_timeout
        )
        self._lock = threading.Lock()
        self._stopped = False

    def start(self) -> "ThreadsSubstrate":
        if self._stopped:
            raise BackendError("threads substrate has been shut down")
        return self

    def shutdown(self) -> None:
        # Sessions still running see the flag before their next resume.
        self._stopped = True

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


class ThreadsSession(Backend):
    """One compilation run: a kernel whose bodies all run on the caller's thread."""

    name = "threads"

    def __init__(self, substrate: ThreadsSubstrate, receive_timeout: float):
        super().__init__()
        self._substrate = substrate
        self.receive_timeout = receive_timeout
        self._environment = Environment()
        self._messages = 0
        self._bytes = 0
        self._start: Optional[float] = None
        self._abort: Optional[str] = None

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> SimulatedMailbox:
        return SimulatedMailbox(name, self._environment.store(name))

    def spawn(
        self,
        body: Any,
        *,
        name: str,
        machine: int = 0,
        coordinator: bool = False,
    ) -> None:
        if isinstance(body, WorkerJob):
            body = body.materialize(self)
        if not coordinator:
            self._worker_count += 1
        self._environment.process(self._drive(body, name), name)

    def send(
        self,
        source: int,
        destination: int,
        message: Any,
        size_bytes: int,
        mailbox: Mailbox,
    ) -> None:
        assert isinstance(mailbox, SimulatedMailbox)
        faulted = apply_send_faults(mailbox.name, message) if _faults.ACTIVE is not None else None
        copies = [message] if faulted is None else faulted
        for copy in copies:
            mailbox.store.put(copy)
        self._messages += len(copies)
        self._bytes += size_bytes * len(copies)

    def _run(self) -> float:
        self._start = time.perf_counter()
        try:
            self._environment.run()
            raise_if_deadlocked(self._environment)
        finally:
            # Unwind every body still parked, here on the thread that ran it.
            for process in self._environment.unfinished_processes():
                process.generator.close()
        return time.perf_counter() - self._start

    @property
    def now(self) -> float:
        return 0.0 if self._start is None else time.perf_counter() - self._start

    def telemetry(self) -> BackendTelemetry:
        return BackendTelemetry(network_messages=self._messages, network_bytes=self._bytes)

    def _close(self) -> None:
        self._abort = "session closed mid-run"

    # ---------------------------------------------------------------- internals

    def _drive(self, body: Generator, name: str) -> Generator:
        """Adapt a request generator to the kernel; any failure names the body."""
        value: Any = None
        try:
            while True:
                if self._abort is not None:
                    raise BackendError(self._abort)
                if self._substrate._stopped:
                    raise BackendError("threads substrate shut down mid-run")
                try:
                    request = body.send(value)
                except StopIteration:
                    return
                value = None
                if isinstance(request, Compute):
                    continue
                if not isinstance(request, Receive):
                    raise BackendError(
                        f"process body yielded an unsupported request: {request!r}"
                    )
                mailbox = request.mailbox
                if _faults.ACTIVE is not None:
                    # No thread to kill: a "crash" is a typed error that fails the run.
                    hit = _faults.ACTIVE.check("worker.crash", name)
                    if hit is not None:
                        raise FaultError("worker.crash", hit.action, name)
                    apply_receive_faults(name, mailbox.name)
                value = yield Get(mailbox.store)
                if time.perf_counter() - self._start > self.receive_timeout:
                    raise receive_timed_out(name, self.receive_timeout, mailbox.name)
        except Exception as error:
            raise BackendError(f"worker {name!r} failed: {error}") from error
