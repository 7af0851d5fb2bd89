"""The execution-substrate abstraction shared by all backends.

The distributed compiler's processes (parser, evaluators, string librarian) are written
once as *request generators*: plain Python generators that yield :class:`Compute` and
:class:`Receive` requests and call :meth:`Backend.send` / :meth:`Backend.publish_report`
directly.  A backend decides what those requests mean:

* **simulated** and **threads** are one substrate (:mod:`repro.backends.kernel`):
  every body is a process of the simulator's kernel, run cooperatively on the calling
  thread, and a :class:`Receive` parks it on a simulator ``Store``.  On
  ``simulated`` a modelled cluster is the clock: a :class:`Compute` occupies a
  modelled machine's CPU and sends charge modelled network time — this is the
  paper-faithful substrate every figure is measured on.  On ``threads`` the clock is
  the wall clock and a :class:`Compute` resumes at once;
* the **processes** and **sockets** backends execute the very same generators on
  real wall-clock time: the real CPU work happens inline between yields, so a
  :class:`Compute` request resumes immediately (its modelled cost is ignored), and a
  :class:`Receive` is a genuine blocking read from the mailbox's queue or pipe.

Because the process bodies never import a substrate directly, the coordinator,
evaluator and librarian logic exists exactly once and every backend runs the identical
protocol.

The contract is split in two layers:

* a :class:`Substrate` is the **persistent** half: a worker pool and its channels,
  created once (explicit :meth:`~Substrate.start` / :meth:`~Substrate.shutdown`, or a
  ``with`` block) and reused across many compilations — forked worker processes or
  worker hosts pull work from a job channel instead of dying after one run (the
  in-process ``simulated`` and ``threads`` substrates pool nothing);
* a :class:`Backend` is the **per-compilation run session**: mailboxes, spawned bodies,
  one :meth:`~Backend.run` barrier, reports and telemetry, all scoped to a single job.
  Sessions are created with :meth:`Substrate.session` and torn down with
  :meth:`Backend.close` (idempotent, safe on every error path).

There is one lifecycle.  A one-shot compile is a substrate of its own, started, used
for one session and shut down (:meth:`Substrate.one_shot`); the rule for when it goes
down is :meth:`Backend.run` / :meth:`Backend.close`, the same for every substrate.
"""

from __future__ import annotations

import abc
import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional

from repro.faults import plan as _faults
from repro.faults.plan import FaultError
from repro.runtime.machine import ActivityInterval, ActivityKind


class BackendError(RuntimeError):
    """Raised when a backend cannot complete the distributed protocol."""


@dataclass(frozen=True)
class Compute:
    """Request: account ``cost`` modelled CPU seconds of work just performed.

    The simulated backend occupies the machine's CPU for ``cost`` scaled seconds; real
    backends treat the request as bookkeeping only (the actual computation already ran
    inline inside the process body).
    """

    cost: float
    kind: ActivityKind = ActivityKind.OTHER
    label: str = ""


@dataclass(frozen=True)
class Receive:
    """Request: block until a message is available in ``mailbox`` and resume with it."""

    mailbox: "Mailbox"


class Mailbox:
    """A named FIFO channel owned by one receiving process.

    The in-process kernel uses a simulator ``Store`` (which has a ``name`` too) as its
    mailbox; the substrates with worker processes attach a number within the session
    and the log that replays the mailbox to whoever reads it
    (:mod:`repro.backends.routing`).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


@dataclass(frozen=True)
class SharedBundle:
    """A shared object carrying an explicit, stable cache key.

    By default pooled substrates deduplicate shared objects by *identity*, which only
    helps callers that keep one object alive across jobs.  Wrapping the payload in a
    :class:`SharedBundle` keys the worker-side cache on ``key`` instead — e.g. the
    language registry uses ``language:<name>#<generation>/<evaluator>`` so that every
    compiler created for a registered language maps to one cache entry and the
    grammar+plan payload crosses to each pooled worker once ever, no matter how many
    caller-side compiler instances exist.  Keys must be globally unique per payload:
    the first payload seen under a key is the one every worker receives.
    """

    key: str
    payload: Any


@dataclass(frozen=True)
class WorkerJob:
    """A substrate-neutral description of a worker process body.

    ``factory(transport, **kwargs, **shared)`` must return the request generator to
    drive; it is called with the session (or, inside a worker process, the job's
    transport) as its first argument.  In-process substrates materialise the body
    immediately; the processes and sockets substrates pickle the job and rebuild the
    body inside a long-lived worker, which is why ``factory`` must be a module-level
    callable and ``kwargs`` must pickle (a ``Mailbox`` of the session crosses as its
    name and number, wherever it sits inside the arguments).

    ``shared`` holds large immutable objects (grammars, evaluation plans) that pooled
    workers cache and reuse: each worker receives the pickled payload once and reuses
    it for every later job that shares it.  Values are cached by identity, or by
    explicit name when wrapped in a :class:`SharedBundle`.
    """

    factory: Callable[..., Generator]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    shared: Mapping[str, Any] = field(default_factory=dict)

    def materialize(self, transport: Any) -> Generator:
        """Build the process body in the driving process (in-process substrates)."""
        shared = {
            name: value.payload if isinstance(value, SharedBundle) else value
            for name, value in self.shared.items()
        }
        return self.factory(transport, **dict(self.kwargs), **shared)


@dataclass
class BackendTelemetry:
    """Substrate-level measurements gathered during one run.

    The simulated backend fills every field from the cluster model; real backends
    report message counts/bytes observed at their transport and leave the
    modelled-time fields (timeline, utilization, busy time) empty.
    """

    timeline: Dict[str, List[ActivityInterval]] = field(default_factory=dict)
    utilization: Dict[str, float] = field(default_factory=dict)
    network_messages: int = 0
    network_bytes: int = 0
    network_busy_time: float = 0.0


class Backend(abc.ABC):
    """One compilation run session: mailboxes, process spawning, transport, clock.

    Lifecycle: create mailboxes, ``spawn`` process bodies (coordinator bodies — the
    parser and the librarian — are guaranteed to execute in the driving Python process
    so they can share memory with the caller; worker bodies may execute on real OS
    threads or processes), then ``run()`` drives everything to completion and returns
    the wall-clock seconds spent.  ``close()`` tears the session down and must be
    called on every path — including when ``run()`` or result collection raised — so
    that no worker thread or forked process outlives a failed compilation.

    Substrates implement :meth:`_run` and :meth:`_close`; ``run()`` and ``close()``
    add the run-once and close-once guards and the one-shot ownership rule on top.
    """

    #: Short name used by the ``backend=`` knob of the parallel compiler.
    name: str = "abstract"

    def __init__(self) -> None:
        self._reports: Dict[int, Any] = {}
        self._worker_count = 0
        #: The substrate this session owns (:meth:`Substrate.one_shot`), if any.
        self._owned: Optional["Substrate"] = None
        self._ran = False
        self._closed = False

    # ----------------------------------------------------------------- plumbing

    @abc.abstractmethod
    def mailbox(self, name: str) -> Mailbox:
        """Create a new empty mailbox owned by this session."""

    @abc.abstractmethod
    def spawn(
        self,
        body: Any,
        *,
        name: str,
        machine: int = 0,
        coordinator: bool = False,
    ) -> None:
        """Register a process body to run on (modelled or real) ``machine``.

        ``body`` is either a request generator or a :class:`WorkerJob` describing one.
        ``coordinator`` bodies always execute in the driving process; worker bodies are
        placed on the substrate's parallel execution units.
        """

    @abc.abstractmethod
    def send(
        self,
        source: int,
        destination: int,
        message: Any,
        size_bytes: int,
        mailbox: Mailbox,
    ) -> None:
        """Deliver ``message`` (of modelled size ``size_bytes``) into ``mailbox``.

        ``source``/``destination`` are machine indexes; the simulated backend uses them
        to charge network time, real backends only for diagnostics.
        """

    def run(self) -> float:
        """Execute all spawned bodies to completion; return wall-clock seconds.

        A session that owns its substrate shuts it down when this returns or raises:
        reports, telemetry and the clock stay readable on the session.
        """
        if self._ran:
            raise BackendError("a run session can only be run once")
        self._ran = True
        try:
            return self._run()
        finally:
            if self._owned is not None:
                self.close()

    @abc.abstractmethod
    def _run(self) -> float:
        """The substrate's run: drive every spawned body to completion."""

    # -------------------------------------------------------------------- clock

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """The backend's notion of elapsed time since ``run()`` started.

        Simulated seconds on the simulator, wall-clock seconds on real substrates.
        """

    # ------------------------------------------------------------ result plane

    def publish_report(self, region_id: int, report: Any) -> None:
        """Make a worker's final report visible to the coordinator.

        Runs out-of-band (not through the modelled network) so that publishing results
        never perturbs modelled timings; a pooled process worker's transport ships the
        report across the OS-process boundary instead.
        """
        self._reports[region_id] = report

    @property
    def reports(self) -> Dict[int, Any]:
        """Reports published by workers, keyed by region id (valid after ``run()``)."""
        return dict(self._reports)

    @property
    def worker_count(self) -> int:
        """How many non-coordinator bodies were spawned."""
        return self._worker_count

    def telemetry(self) -> BackendTelemetry:
        """Substrate measurements (valid after ``run()``)."""
        return BackendTelemetry()

    # ---------------------------------------------------------------- teardown

    def close(self) -> None:
        """Tear the session down (idempotent; safe before, during and after ``run``).

        This aborts any of the session's still-running bodies and lets go of its
        mailboxes.  The substrate stays alive, unless the session owns it: then it is
        shut down here too.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._close()
        finally:
            if self._owned is not None:
                self._owned.shutdown()

    def _close(self) -> None:
        """The substrate's teardown of this session; called at most once."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Substrate(abc.ABC):
    """The persistent half of an execution backend: a worker pool and its channels.

    Created once and reused across many compilations::

        with create_substrate("threads") as substrate:
            report_a = compiler.compile_tree(tree_a, 4, substrate=substrate)
            report_b = compiler.compile_tree(tree_b, 4, substrate=substrate)

    ``start()`` brings the pool up (idempotent), ``session()`` hands out a
    per-compilation :class:`Backend` run session, and ``shutdown()`` joins/terminates
    every pooled worker.  Sessions may run concurrently on one substrate — that is what
    the :mod:`repro.service` layer builds on.
    """

    #: Short name matching the ``backend=`` knob (one of ``BACKEND_NAMES``).
    name: str = "abstract"

    def __init__(self) -> None:
        self._sessions_opened = 0

    @abc.abstractmethod
    def start(self) -> "Substrate":
        """Bring the worker pool up.  Idempotent; returns ``self`` for chaining."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Stop every pooled worker.  Idempotent; the substrate cannot be restarted."""

    @abc.abstractmethod
    def session(
        self,
        machines: int,
        *,
        receive_timeout: Optional[float] = None,
    ) -> Backend:
        """Open a new run session for one compilation on ``machines`` workers.

        ``machines`` parameterises the simulated cluster (real substrates size
        themselves from the bodies actually spawned); ``receive_timeout`` overrides the
        substrate's blocking-receive bound for this session only.
        """

    def one_shot(self, machines: int, *, receive_timeout: Optional[float] = None) -> Backend:
        """Start this substrate and open the one session that owns it.

        The substrate is shut down when that session's ``run()`` returns or raises,
        and on its ``close()`` — and here, if it cannot be started or opened.
        """
        try:
            self.start()
            session = self.session(machines, receive_timeout=receive_timeout)
        except BaseException:
            self.shutdown()
            raise
        session._owned = self
        return session

    def prepare(self, job: WorkerJob) -> None:
        """Build, in this process, what jobs sharing ``job.shared`` derive from it.

        Called when a compiler binds to the substrate, before its first job.  A
        substrate that forks its workers from this process (``processes``) registers
        ``job.shared`` and calls ``job.factory(**job.kwargs, **shared)`` here, so every
        worker forked from now on inherits the shared objects together with what the
        factory built from them, and receives neither over its pipe.  The other
        substrates have nothing to inherit; the default does nothing.
        """

    @property
    def sessions_opened(self) -> int:
        """How many run sessions this substrate has handed out so far."""
        return self._sessions_opened

    def close(self) -> None:
        """Alias for :meth:`shutdown` (idempotent), matching the session vocabulary.

        A ``with`` block followed by an explicit ``close()``/``shutdown()`` — or the
        reverse — is safe on every substrate.
        """
        self.shutdown()

    def __enter__(self) -> "Substrate":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class WakeToken:
    """Control message injected into a mailbox to rouse a blocked receiver.

    Real substrates sleep inside a genuinely blocking ``queue.get`` — there is no
    polling loop left to notice a failure flag.  Whoever flips a session's failure
    (or abort) flag therefore also puts a ``WakeToken`` into every mailbox the
    session owns; receivers discard the token, re-check their flag, and either abort
    or go back to sleep for the remainder of their deadline.  Tokens are never part
    of the compilation protocol, so a stale one (failure already handled, or a wake
    raced with a normal message) is simply dropped.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason

    def __repr__(self) -> str:
        return f"WakeToken({self.reason!r})"


def apply_send_faults(mailbox_name: str, message: Any) -> Optional[List[Any]]:
    """Consult the active fault plan for one ``mailbox.send`` opportunity.

    Returns ``None`` for "deliver normally" (the overwhelmingly common case —
    callers guard with ``if _faults.ACTIVE is not None`` so an idle plane costs
    one attribute check), or the list of messages to deliver instead: ``[]``
    for a dropped message, ``[message, message]`` for a duplicated one.  A
    ``delay`` action sleeps here, in the sender; an ``error`` action raises
    :class:`~repro.faults.FaultError` out of the send.
    """
    plan = _faults.ACTIVE
    if plan is None:
        return None
    hit = plan.check("mailbox.send", mailbox_name)
    if hit is None:
        return None
    if hit.action == "drop":
        return []
    if hit.action == "duplicate":
        return [message, message]
    if hit.action in ("delay", "stall"):
        hit.sleep()
        return None
    raise FaultError("mailbox.send", hit.action, mailbox_name)


def apply_receive_faults(who: str, mailbox_name: str) -> None:
    """One ``mailbox.receive`` opportunity: delay the receiver or raise typed.

    Called at the top of every real-substrate receive; callers guard with
    ``if _faults.ACTIVE is not None`` so the disabled plane stays free.
    """
    plan = _faults.ACTIVE
    if plan is None:
        return
    hit = plan.check("mailbox.receive", mailbox_name)
    if hit is None:
        return
    if hit.action in ("delay", "stall"):
        hit.sleep()
        return
    raise FaultError("mailbox.receive", hit.action, f"{who} on {mailbox_name}")


def deadline_get(fifo: Any, deadline: float, timeout: float, who: str, mailbox_name: str) -> Any:
    """One blocking read against an absolute deadline, with the shared diagnostic.

    The single implementation of "sleep until a message or the deadline" used by
    every real-substrate receive loop; callers keep their own reaction to
    :class:`WakeToken`\\ s and abort flags around it.
    """
    import queue as queue_module

    remaining = deadline - time.monotonic()
    if remaining > 0:
        try:
            return fifo.get(timeout=remaining)
        except queue_module.Empty:
            pass
    raise receive_timed_out(who, timeout, mailbox_name)


def receive_timed_out(who: str, timeout: float, mailbox_name: str) -> BackendError:
    """The diagnostic of a blocking receive that waited out its whole bound."""
    return BackendError(
        f"{who} timed out after {timeout:.0f}s waiting on "
        f"mailbox {mailbox_name!r} (protocol deadlock?)"
    )


def blocking_receive(fifo: Any, timeout: float, failed: Any, who: str, mailbox_name: str) -> Any:
    """Blocking queue read with a real deadline and token-based failure wake-up.

    The reader sleeps in the OS until a message lands in ``fifo`` (anything with
    ``queue.Queue``'s ``get(timeout=)``) — no polling slices, so message latency is
    bounded by the transport, not by a tick interval.  A failure flagged by another
    worker (``failed``, a ``threading.Event``) is delivered as a :class:`WakeToken`;
    gives up with a diagnostic after ``timeout`` seconds.
    """
    if _faults.ACTIVE is not None:
        apply_receive_faults(who, mailbox_name)
    deadline = time.monotonic() + timeout
    while True:
        if failed.is_set():
            raise BackendError(f"{who} aborted: another worker failed")
        message = deadline_get(fifo, deadline, timeout, who, mailbox_name)
        if isinstance(message, WakeToken):
            continue
        return message


def drive(body: Generator, receive: Any) -> None:
    """Drive a request generator on a real substrate.

    ``receive`` is a callable ``(mailbox) -> message`` implementing a blocking mailbox
    read.  :class:`Compute` requests resume immediately and their modelled cost is
    discarded — the real CPU work already happened inline inside the generator, and
    wall-clock time is what real substrates measure.
    """
    value: Any = None
    while True:
        try:
            request = body.send(value)
        except StopIteration:
            return
        if isinstance(request, Compute):
            value = None
        elif isinstance(request, Receive):
            value = receive(request.mailbox)
        else:
            raise BackendError(f"process body yielded an unsupported request: {request!r}")


def freeze_inherited_heap() -> None:
    """First call of a freshly forked worker: take the collector off its compile path.

    This module owns the process's whole collector policy, and the policy is one
    rule: *no cyclic collection while a compile is in flight*.  A compile's trees,
    tables and attribute values live exactly as long as the compile, so a young-
    generation scan in the middle of one keeps re-walking live objects, and an
    in-process compile leaves no cycle for it to find.

    * A pooled worker is always compiling or waiting for its next job.  Everything
      alive at the fork belongs to the parent and cannot become garbage here, so
      ``gc.freeze()`` moves it to the permanent generation: no collection in this
      process traverses it, or writes to its GC headers and so copies pages the
      worker would otherwise share with its parent.  Automatic collection is then
      off for good, and the worker calls ``gc.collect()`` itself between jobs, when
      its heap is smallest — or never, if it runs one job and exits.
    * A driving process (``simulated``, ``threads``, the service, the server) pauses
      automatic collection with :data:`compiles_in_flight` while any compile runs in
      it, and gets it back the moment the last one ends.
    """
    gc.disable()
    gc.freeze()


class CompilesInFlight:
    """Reference-counted pause of automatic cyclic collection (the policy is above).

    ``with compiles_in_flight:`` spans one in-process compile, from parse to the
    end of evaluation.  The first compile to enter switches automatic collection
    off, if it is on; the last one to leave switches it back on, only if it was
    switched off here, so a process whose owner disabled the collector keeps it
    disabled.  A nested entry only counts.  Resuming needs no ``gc.collect()``:
    the allocations counted during the pause trigger one young collection on the
    next allocation, and it walks only what survived the compile.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._paused = False
        self._resumes = 0

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0 and gc.isenabled():
                gc.disable()
                self._paused = True
            self._depth += 1

    def __exit__(self, *exc_info: Any) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._paused:
                self._paused = False
                gc.enable()
                self._resumes += 1

    def snapshot(self) -> Dict[str, int]:
        """``compiles_in_flight`` now, and how often collection resumed after a pause.

        Lock-free, so a ``gc.callbacks`` hook may call it: building the dict can
        start a collection, which must not find the lock held by its own thread.
        """
        return {"compiles_in_flight": self._depth, "resumes": self._resumes}


#: The process's one guard, entered by every in-process compile entry point.
compiles_in_flight = CompilesInFlight()
