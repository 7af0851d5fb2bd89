"""Execution backends: interchangeable substrates for the parallel compiler.

Four implementations of the same :class:`~repro.backends.base.Backend` interface:

* ``"simulated"`` — the paper's modelled network multiprocessor (deterministic
  discrete-event simulation, simulated seconds);
* ``"threads"`` — OS threads with ``queue.Queue`` mailboxes;
* ``"processes"`` — forked OS processes with picklable protocol messages over
  pipes (coordinator mailboxes stay in-process queues);
* ``"sockets"`` — separate worker host processes over TCP (loopback by default,
  any reachable machine in general), backed by the :mod:`repro.cluster`
  coordinator: consistent-hash sharding, heartbeats, and region reassignment
  that survives killing a worker mid-compile.

Each comes in two lifecycles:

* **one-shot** (:func:`create_backend`): build → spawn → run → discard, exactly the
  original semantics — ``ParallelCompiler(grammar, backend="processes")`` or per call
  with ``compile_tree(..., backend="threads")``;
* **pooled** (:func:`create_substrate`): a persistent :class:`Substrate` whose worker
  pool and mailbox registry survive across compilations —
  ``compile_tree(..., substrate=pool)`` or the :mod:`repro.service` layer on top.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    Compute,
    Mailbox,
    Receive,
    SharedBundle,
    Substrate,
    WorkerJob,
)
from repro.backends.processes import ProcessesBackend, ProcessesSubstrate
from repro.backends.simulated import SimulatedBackend, SimulatedSubstrate
from repro.backends.sockets import SocketsBackend, SocketsSubstrate
from repro.backends.threads import ThreadsBackend, ThreadsSubstrate
from repro.runtime.cost import CostModel
from repro.runtime.network import NetworkParameters

#: Names accepted by :func:`create_backend` and the compiler's ``backend=`` knob.
BACKEND_NAMES = ("simulated", "threads", "processes", "sockets")


def create_backend(
    name: str,
    machines: int,
    network: Optional[NetworkParameters] = None,
    cost_model: Optional[CostModel] = None,
    machine_speeds: Optional[List[float]] = None,
    receive_timeout: Optional[float] = None,
) -> Backend:
    """Instantiate the one-shot backend called ``name``.

    ``machines``/``network``/``cost_model``/``machine_speeds`` parameterise the
    simulated cluster and are ignored by the real substrates; ``receive_timeout``
    bounds blocking receives on the real substrates and is ignored by the simulator.
    """
    if name == "simulated":
        return SimulatedBackend(
            machines, network=network, cost_model=cost_model, machine_speeds=machine_speeds
        )
    if name == "threads":
        return ThreadsBackend() if receive_timeout is None else ThreadsBackend(receive_timeout)
    if name == "processes":
        return ProcessesBackend() if receive_timeout is None else ProcessesBackend(receive_timeout)
    if name == "sockets":
        return SocketsBackend(receive_timeout=receive_timeout)
    raise ValueError(f"unknown backend {name!r}; choose from {BACKEND_NAMES}")


def create_substrate(
    name: str,
    workers: int = 0,
    network: Optional[NetworkParameters] = None,
    cost_model: Optional[CostModel] = None,
    machine_speeds: Optional[List[float]] = None,
    receive_timeout: Optional[float] = None,
) -> Substrate:
    """Instantiate the persistent (pooled) substrate called ``name``.

    ``workers`` is the initial pool size for the real substrates (both grow on demand
    so a compilation's whole worker batch always runs concurrently); the simulated
    substrate pools nothing and simply hands out fresh deterministic clusters.
    Remember to ``start()`` it (or use a ``with`` block) and ``shutdown()`` when done.
    """
    if name == "simulated":
        return SimulatedSubstrate(
            network=network, cost_model=cost_model, machine_speeds=machine_speeds
        )
    if name == "threads":
        return ThreadsSubstrate(workers=workers, receive_timeout=receive_timeout)
    if name == "processes":
        return ProcessesSubstrate(workers=workers, receive_timeout=receive_timeout)
    if name == "sockets":
        return SocketsSubstrate(workers=workers, receive_timeout=receive_timeout)
    raise ValueError(f"unknown substrate {name!r}; choose from {BACKEND_NAMES}")


__all__ = [
    "Backend",
    "BackendError",
    "BackendTelemetry",
    "BACKEND_NAMES",
    "Compute",
    "Mailbox",
    "ProcessesBackend",
    "ProcessesSubstrate",
    "Receive",
    "SharedBundle",
    "SimulatedBackend",
    "SimulatedSubstrate",
    "SocketsBackend",
    "SocketsSubstrate",
    "Substrate",
    "ThreadsBackend",
    "ThreadsSubstrate",
    "WorkerJob",
    "create_backend",
    "create_substrate",
]
