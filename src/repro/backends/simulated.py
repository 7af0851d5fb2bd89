"""The simulated backend: the paper's network multiprocessor as a substrate.

Translates backend requests into the discrete-event simulator's operations, preserving
the exact event ordering of the original (pre-backend) compiler: a :class:`Compute`
request occupies the modelled machine's single CPU for its scaled cost, a
:class:`Receive` blocks on a simulator ``Store``, and sends go through the shared
Ethernet-like medium (free and immediate when co-located).  All timings it reports are
simulated seconds, which keeps every figure reproduction byte-for-byte deterministic.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Generator, List, Optional

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    Compute,
    Mailbox,
    Receive,
    Substrate,
    WorkerJob,
)
from repro.runtime.cluster import Cluster
from repro.runtime.cost import CostModel
from repro.runtime.machine import Machine
from repro.runtime.network import NetworkParameters
from repro.runtime.simulator import Store


class SimulatedMailbox(Mailbox):
    """A mailbox backed by a simulator :class:`Store`."""

    __slots__ = ("store",)

    def __init__(self, name: str, store: Store):
        super().__init__(name)
        self.store = store


class SimulatedSession(Backend):
    """One compilation run on a fresh simulated cluster."""

    name = "simulated"

    def __init__(
        self,
        machines: int,
        network: Optional[NetworkParameters] = None,
        cost_model: Optional[CostModel] = None,
        machine_speeds: Optional[List[float]] = None,
    ):
        super().__init__()
        self.cluster = Cluster(
            machines, network=network, cost_model=cost_model, machine_speeds=machine_speeds
        )

    # ----------------------------------------------------------------- plumbing

    def mailbox(self, name: str) -> SimulatedMailbox:
        return SimulatedMailbox(name, self.cluster.environment.store(name))

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
        self.cluster.spawn(self._drive(body, self.cluster.machine(machine)), name=name)

    def send(
        self,
        source: int,
        destination: int,
        message: Any,
        size_bytes: int,
        mailbox: Mailbox,
    ) -> None:
        assert isinstance(mailbox, SimulatedMailbox)
        self.cluster.send(
            self.cluster.machine(source),
            self.cluster.machine(destination),
            message,
            size_bytes,
            mailbox=mailbox.store,
        )

    def _run(self) -> float:
        started = time.perf_counter()
        self.cluster.run()
        unfinished = self.cluster.environment.unfinished_processes()
        if unfinished:
            raise BackendError(
                "parallel compilation deadlocked; unfinished processes: "
                + ", ".join(process.name for process in unfinished)
            )
        return time.perf_counter() - started

    @property
    def now(self) -> float:
        return self.cluster.now

    def telemetry(self) -> BackendTelemetry:
        stats = self.cluster.network_stats()
        return BackendTelemetry(
            timeline=self.cluster.timeline(),
            utilization=self.cluster.utilization(),
            network_messages=stats.messages,
            network_bytes=stats.bytes_sent,
            network_busy_time=stats.busy_time,
        )

    # ---------------------------------------------------------------- internals

    def _drive(self, body: Generator, machine: Machine) -> Generator:
        """Adapt a request generator to the simulator's yield protocol."""
        value: Any = None
        while True:
            try:
                request = body.send(value)
            except StopIteration:
                return
            if isinstance(request, Compute):
                yield from machine.compute(request.cost, request.kind, request.label)
                value = None
            elif isinstance(request, Receive):
                assert isinstance(request.mailbox, SimulatedMailbox)
                value = yield from machine.receive(request.mailbox.store)
            else:
                raise BackendError(
                    f"process body yielded an unsupported request: {request!r}"
                )


class SimulatedSubstrate(Substrate):
    """The persistent form of the simulated backend.

    The simulator has no OS resources to pool — the whole point of pooling here is API
    uniformity: a service can hold one :class:`SimulatedSubstrate` and open a session
    per compilation.  Every session gets a *fresh* modelled cluster, which is exactly
    what keeps figure reproductions byte-for-byte deterministic no matter how many
    compilations share the substrate or how they interleave.
    """

    name = "simulated"

    def __init__(
        self,
        network: Optional[NetworkParameters] = None,
        cost_model: Optional[CostModel] = None,
        machine_speeds: Optional[List[float]] = None,
    ):
        super().__init__()
        self.network = network
        self.cost_model = cost_model
        self.machine_speeds = machine_speeds
        self._lock = threading.Lock()
        self._stopped = False

    def start(self) -> "SimulatedSubstrate":
        if self._stopped:
            raise BackendError("simulated substrate has been shut down")
        return self

    def shutdown(self) -> None:
        self._stopped = True

    def session(
        self,
        machines: int = 1,
        *,
        receive_timeout: Optional[float] = None,
    ) -> SimulatedSession:
        if self._stopped:
            raise BackendError("simulated substrate has been shut down")
        with self._lock:
            self._sessions_opened += 1
        return SimulatedSession(
            machines,
            network=self.network,
            cost_model=self.cost_model,
            machine_speeds=self.machine_speeds,
        )
