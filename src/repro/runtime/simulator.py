"""A small deterministic discrete-event simulation kernel.

Processes are Python generators that ``yield`` requests:

* :class:`Timeout` — resume after a simulated delay (used for CPU work and transfers);
* :class:`Get` — resume when an item is available in a :class:`Store` (mailboxes).

The kernel is intentionally minimal (no priorities, no interrupts): everything the
distributed evaluator needs is expressible with timeouts and blocking receives, and the
strict (time, sequence-number) ordering makes every simulation run exactly
reproducible, which the regression tests rely on.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple


class Timeout:
    """Request: resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError("timeout delay must be non-negative")
        self.delay = delay


class Get:
    """Request: resume the process when ``store`` has an item (FIFO)."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        self.store = store


class Store:
    """An unbounded FIFO channel connecting processes (a mailbox)."""

    def __init__(self, environment: "Environment", name: str = "store"):
        self._environment = environment
        self.name = name
        self._items: Deque[Any] = deque()
        self._waiters: Deque["Process"] = deque()
        self.total_put = 0

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the longest-waiting process, if any."""
        self.total_put += 1
        if self._waiters:
            process = self._waiters.popleft()
            self._environment._schedule_resume(process, item)
        else:
            self._items.append(item)

    def _try_get(self, process: "Process") -> Tuple[bool, Any]:
        if self._items:
            return True, self._items.popleft()
        self._waiters.append(process)
        return False, None

    def __len__(self) -> int:
        return len(self._items)


class Process:
    """A running generator inside an :class:`Environment`.

    Pids are allocated by the owning environment (not a class-level global), so every
    fresh :class:`Environment` numbers its processes from 1 and back-to-back
    simulations are independently reproducible.  A process keeps no reference to
    its environment, and ``waiting_on`` is the *name* of the store it last parked
    on, not the store: the environment already lists its processes, and a link
    back would make every run a reference cycle that only the collector frees.
    """

    def __init__(self, environment: "Environment", generator: Generator, name: str = ""):
        self.pid = environment._allocate_pid()
        self.name = name or f"process-{self.pid}"
        self.generator = generator
        self.finished = False
        self.result: Any = None
        self.waiting_on: Optional[str] = None

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"Process({self.name}, {state})"


class SimulationError(Exception):
    """Raised for malformed process behaviour (unknown yield values, etc.)."""


class Environment:
    """The event loop: schedules callbacks and steps processes deterministically."""

    def __init__(self):
        self._now = 0.0
        self._sequence = 0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._active_processes = 0
        self._pid_counter = 0
        self.processes: List[Process] = []

    def _allocate_pid(self) -> int:
        self._pid_counter += 1
        return self._pid_counter

    # ------------------------------------------------------------------- clock

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, callback))

    # --------------------------------------------------------------- processes

    def store(self, name: str = "store") -> Store:
        return Store(self, name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register and start a process (it begins running at the current time)."""
        process = Process(self, generator, name)
        self.processes.append(process)
        self._active_processes += 1
        self.schedule(0.0, lambda: self._step(process, None))
        return process

    def _schedule_resume(self, process: Process, value: Any) -> None:
        self.schedule(0.0, lambda: self._step(process, value))

    def _step(self, process: Process, value: Any) -> None:
        if process.finished:
            return
        try:
            request = process.generator.send(value)
        except StopIteration as stop:
            process.finished = True
            process.result = stop.value
            self._active_processes -= 1
            return
        if isinstance(request, Timeout):
            self.schedule(request.delay, lambda: self._step(process, None))
        elif isinstance(request, Get):
            available, item = request.store._try_get(process)
            if available:
                self._schedule_resume(process, item)
            else:
                process.waiting_on = request.store.name
        else:
            raise SimulationError(
                f"process {process.name!r} yielded an unsupported request: {request!r}"
            )

    # --------------------------------------------------------------------- run

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Process events until the queue drains (or ``until`` / ``max_events``).

        Returns the simulation time at which the run stopped.  Processes blocked on a
        :class:`Get` with no producer left are treated as idle (the caller can inspect
        them; a deadlocked distributed evaluation shows up as unfinished processes).
        """
        events = 0
        while self._queue:
            time, _, callback = self._queue[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._now = time
            callback()
            events += 1
            if events > max_events:
                raise SimulationError(f"simulation exceeded {max_events} events")
        return self._now

    def unfinished_processes(self) -> List[Process]:
        return [process for process in self.processes if not process.finished]
