"""The in-process substrates: every body a process of one simulator kernel.

``simulated`` and ``threads`` are one substrate class and one session class, and the
clock is the only difference.  A session's bodies are processes of one
:class:`~repro.runtime.simulator.Environment`, run cooperatively on the thread that
calls ``run()``; a mailbox is a simulator :class:`~repro.runtime.simulator.Store`.
Different sessions run concurrently on their callers' threads.

* **With a modelled** :class:`~repro.runtime.cluster.Cluster` (``simulated``, the
  paper's network multiprocessor): a :class:`Compute` occupies the modelled machine's
  single CPU for its scaled cost, a :class:`Receive` is the machine's receive, and a
  send crosses the modelled Ethernet (free and immediate when co-located).  ``now``,
  the timeline and the network figures are simulated seconds, which keeps every
  figure reproduction deterministic to the last bit.
* **Without one** (``threads``): a :class:`Compute` resumes at once (the real work
  already ran inline), a :class:`Receive` on an empty mailbox parks the body, a send
  is a ``Store.put``, and the clock is ``time.perf_counter()``.

The rest is shared.  A deadlock is found, not timed out: when the kernel's queue
drains with bodies still parked, ``run()`` unwinds them and raises
:class:`BackendError` naming each one and the mailbox it waits on.
``receive_timeout`` bounds the session's wall clock, checked as a body resumes at a
``Receive``; an abort from another thread (``close()``, or the substrate's
``shutdown()``) is seen before the next resume.  Any failure is a typed
:class:`BackendError` that names its body.  The ``mailbox.send``,
``mailbox.receive`` and ``worker.crash`` fault points fire on both clocks.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Generator, List, Optional

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    Compute,
    FaultError,
    Receive,
    Substrate,
    WorkerJob,
    apply_receive_faults,
    apply_send_faults,
    receive_timed_out,
)
from repro.faults import plan as _faults
from repro.runtime.cluster import Cluster
from repro.runtime.cost import CostModel
from repro.runtime.machine import Machine
from repro.runtime.network import NetworkParameters
from repro.runtime.simulator import Environment, Get, Store


class KernelSubstrate(Substrate):
    """Hands out kernel sessions; it pools nothing, so it starts nothing.

    ``model`` builds a session's modelled cluster from its machine count, or is
    ``None`` for the wall clock.  Every session gets a fresh kernel (and cluster), so
    no number depends on how many compilations share the substrate or how they
    interleave.
    """

    #: Default wall-clock bound on one session (seconds) when none is configured.
    DEFAULT_RECEIVE_TIMEOUT = 60.0

    def __init__(
        self,
        name: str,
        model: Optional[Callable[[int], Cluster]] = None,
        receive_timeout: Optional[float] = None,
    ):
        super().__init__()
        self.name = name
        self.model = model
        self.receive_timeout = (
            self.DEFAULT_RECEIVE_TIMEOUT if receive_timeout is None else receive_timeout
        )
        self._lock = threading.Lock()
        self._stopped = False

    def start(self) -> "KernelSubstrate":
        if self._stopped:
            raise BackendError(f"{self.name} substrate has been shut down")
        return self

    def shutdown(self) -> None:
        # Sessions still running see the flag before their next resume.
        self._stopped = True

    def session(
        self,
        machines: int = 1,
        *,
        receive_timeout: Optional[float] = None,
    ) -> "KernelSession":
        self.start()
        with self._lock:
            self._sessions_opened += 1
        return KernelSession(
            self, machines, self.receive_timeout if receive_timeout is None else receive_timeout
        )


def SimulatedSubstrate(
    network: Optional[NetworkParameters] = None,
    cost_model: Optional[CostModel] = None,
    machine_speeds: Optional[List[float]] = None,
    receive_timeout: Optional[float] = None,
) -> KernelSubstrate:
    """The paper's network multiprocessor: each session on a fresh modelled cluster."""
    model = functools.partial(
        Cluster, network=network, cost_model=cost_model, machine_speeds=machine_speeds
    )
    return KernelSubstrate("simulated", model, receive_timeout)


def ThreadsSubstrate(receive_timeout: Optional[float] = None) -> KernelSubstrate:
    """The kernel on the wall clock: bodies run on the calling thread, none started."""
    return KernelSubstrate("threads", None, receive_timeout)


class KernelSession(Backend):
    """One compilation run: a fresh kernel whose bodies all run on the caller's thread."""

    def __init__(self, substrate: KernelSubstrate, machines: int, receive_timeout: float):
        super().__init__()
        self.name = substrate.name
        self._substrate = substrate
        self.receive_timeout = receive_timeout
        self.cluster: Optional[Cluster] = (
            None if substrate.model is None else substrate.model(machines)
        )
        self._environment = Environment() if self.cluster is None else self.cluster.environment
        self._messages = 0
        self._bytes = 0
        self._start: Optional[float] = None
        self._abort: Optional[str] = None

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> Store:
        return self._environment.store(name)

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
        modelled = None if self.cluster is None else self.cluster.machine(machine)
        self._environment.process(self._drive(body, name, modelled), name)

    def send(
        self,
        source: int,
        destination: int,
        message: Any,
        size_bytes: int,
        mailbox: Store,
    ) -> None:
        faulted = apply_send_faults(mailbox.name, message) if _faults.ACTIVE is not None else None
        copies = [message] if faulted is None else faulted
        for copy in copies:
            if self.cluster is None:
                mailbox.put(copy)
            else:
                self.cluster.send(
                    self.cluster.machine(source),
                    self.cluster.machine(destination),
                    copy,
                    size_bytes,
                    mailbox=mailbox,
                )
        self._messages += len(copies)
        self._bytes += size_bytes * len(copies)

    def _run(self) -> float:
        self._start = time.perf_counter()
        try:
            self._environment.run()
            unfinished = self._environment.unfinished_processes()
            if unfinished:
                raise BackendError(
                    "parallel compilation deadlocked; unfinished processes: "
                    + ", ".join(
                        f"{process.name} (waiting on {process.waiting_on!r})"
                        for process in unfinished
                    )
                )
        finally:
            # Unwind every body still parked, here on the thread that ran it.
            for process in self._environment.unfinished_processes():
                process.generator.close()
        return time.perf_counter() - self._start

    @property
    def now(self) -> float:
        if self.cluster is not None:
            return self.cluster.now
        return 0.0 if self._start is None else time.perf_counter() - self._start

    def telemetry(self) -> BackendTelemetry:
        if self.cluster is None:
            return BackendTelemetry(network_messages=self._messages, network_bytes=self._bytes)
        stats = self.cluster.network_stats()
        return BackendTelemetry(
            timeline=self.cluster.timeline(),
            utilization=self.cluster.utilization(),
            network_messages=stats.messages,
            network_bytes=stats.bytes_sent,
            network_busy_time=stats.busy_time,
        )

    def _close(self) -> None:
        self._abort = "session closed mid-run"

    # ---------------------------------------------------------------- internals

    def _drive(self, body: Generator, name: str, machine: Optional[Machine]) -> Generator:
        """Adapt a request generator to the kernel; any failure names the body."""
        value: Any = None
        try:
            while True:
                if self._abort is not None:
                    raise BackendError(self._abort)
                if self._substrate._stopped:
                    raise BackendError(f"{self.name} substrate shut down mid-run")
                try:
                    request = body.send(value)
                except StopIteration:
                    return
                value = None
                if isinstance(request, Compute):
                    if machine is not None:
                        yield from machine.compute(request.cost, request.kind, request.label)
                    continue
                if not isinstance(request, Receive):
                    raise BackendError(
                        f"process body yielded an unsupported request: {request!r}"
                    )
                mailbox = request.mailbox
                if _faults.ACTIVE is not None:
                    # No worker to kill: a "crash" is a typed error that fails the run.
                    hit = _faults.ACTIVE.check("worker.crash", name)
                    if hit is not None:
                        raise FaultError("worker.crash", hit.action, name)
                    apply_receive_faults(name, mailbox.name)
                if machine is None:
                    value = yield Get(mailbox)
                else:
                    value = yield from machine.receive(mailbox)
                if time.perf_counter() - self._start > self.receive_timeout:
                    raise receive_timed_out(name, self.receive_timeout, mailbox.name)
        except Exception as error:
            raise BackendError(f"worker {name!r} failed: {error}") from error
        finally:
            body.close()  # a body unwound while parked runs its ``finally`` now
