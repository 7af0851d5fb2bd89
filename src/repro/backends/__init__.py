"""Execution backends: interchangeable substrates for the parallel compiler.

Four implementations of the same :class:`~repro.backends.base.Backend` interface:

* ``"simulated"`` and ``"threads"`` — one in-process kernel substrate
  (:mod:`repro.backends.kernel`): a session's bodies run cooperatively on the calling
  thread, with simulator ``Store`` mailboxes.  ``simulated`` clocks it with the
  paper's modelled network multiprocessor (deterministic simulated seconds),
  ``threads`` with the wall clock;
* ``"processes"`` — forked OS processes with picklable protocol messages over
  pipes (coordinator mailboxes stay in-process queues);
* ``"sockets"`` — separate worker host processes over TCP (loopback by default,
  any reachable machine in general), backed by the :mod:`repro.cluster`
  coordinator: consistent-hash sharding, heartbeats, and region reassignment
  that survives killing a worker mid-compile.

Each is a persistent :class:`Substrate` (:func:`create_substrate`): a worker pool and
its channels, which survive across compilations and hand out one run session per
compile — ``compile_tree(..., substrate=pool)`` or the :mod:`repro.service` layer on
top.  A one-shot compile (:func:`create_backend`, ``ParallelCompiler(grammar,
backend="processes")``) is the same substrate, private to one session: started, used
once and shut down when the run ends (:meth:`Substrate.one_shot`).

:mod:`repro.backends.sockets` (and with it :mod:`repro.cluster`) is imported when the
``sockets`` substrate is first created or ``SocketsSubstrate`` first named.
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
from repro.backends.kernel import SimulatedSubstrate, ThreadsSubstrate
from repro.backends.processes import ProcessesSubstrate
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
    """Open a one-shot run session on a private substrate called ``name``.

    The substrate is started here and shut down when the session's ``run()`` returns
    or raises, or on ``close()``.  ``machines``/``network``/``cost_model``/
    ``machine_speeds`` parameterise the simulated cluster and are ignored by the real
    substrates; ``receive_timeout`` bounds blocking receives on every substrate (on
    ``simulated`` and ``threads``, the session's wall clock).
    """
    substrate = create_substrate(
        name,
        network=network,
        cost_model=cost_model,
        machine_speeds=machine_speeds,
        receive_timeout=receive_timeout,
    )
    return substrate.one_shot(machines, receive_timeout=receive_timeout)


def create_substrate(
    name: str,
    workers: int = 0,
    network: Optional[NetworkParameters] = None,
    cost_model: Optional[CostModel] = None,
    machine_speeds: Optional[List[float]] = None,
    receive_timeout: Optional[float] = None,
) -> Substrate:
    """Instantiate the persistent (pooled) substrate called ``name``.

    ``workers`` is the initial pool size for the ``processes`` and ``sockets``
    substrates (both grow on demand so a compilation's whole worker batch always runs
    concurrently); ``simulated`` and ``threads`` pool nothing and hand out a fresh
    kernel per session.
    Remember to ``start()`` it (or use a ``with`` block) and ``shutdown()`` when done.
    """
    if name == "simulated":
        return SimulatedSubstrate(
            network=network,
            cost_model=cost_model,
            machine_speeds=machine_speeds,
            receive_timeout=receive_timeout,
        )
    if name == "threads":
        return ThreadsSubstrate(receive_timeout=receive_timeout)
    if name == "processes":
        return ProcessesSubstrate(workers=workers, receive_timeout=receive_timeout)
    if name == "sockets":
        from repro.backends.sockets import SocketsSubstrate

        return SocketsSubstrate(workers=workers, receive_timeout=receive_timeout)
    raise ValueError(f"unknown substrate {name!r}; choose from {BACKEND_NAMES}")


def __getattr__(name: str):
    if name == "SocketsSubstrate":
        from repro.backends.sockets import SocketsSubstrate

        return SocketsSubstrate
    raise AttributeError(f"module 'repro.backends' has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | {"SocketsSubstrate"})


__all__ = [
    "Backend",
    "BackendError",
    "BackendTelemetry",
    "BACKEND_NAMES",
    "Compute",
    "Mailbox",
    "ProcessesSubstrate",
    "Receive",
    "SharedBundle",
    "SimulatedSubstrate",
    "SocketsSubstrate",
    "Substrate",
    "ThreadsSubstrate",
    "WorkerJob",
    "create_backend",
    "create_substrate",
]
