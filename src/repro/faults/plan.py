"""The deterministic fault-injection plane: seed-driven faults at named points.

Real code paths — mailbox sends and receives, the cluster wire protocol, worker
spawn and job execution, the artifact cache, the HTTP server — each declare a
**named injection point**.  A :class:`FaultPlan` (a seed plus a list of
:class:`FaultRule`\\ s) decides, deterministically, which opportunities at those
points turn into injected faults: a dropped message, a delayed frame, a crashed
worker, a poisoned artifact, a typed :class:`FaultError`.

Design constraints, in order:

1. **Free when off.**  The plan is held in one module global, ``ACTIVE``.  Every
   injection site guards itself with ``if _faults.ACTIVE is not None`` — one
   attribute load and an identity test — so an idle plane adds no measurable
   work to the hot path (bench-verified by ``benchmarks/bench_chaos.py``).
2. **Deterministic.**  Rules fire on *opportunity counters*, not wall clocks:
   the Nth chance at a point either fires or not as a pure function of
   ``(seed, rule, N)``.  Probability rules hash those three into a fraction, so
   the same seed replays the same faults.
3. **Ships like a bundle.**  :func:`install` also writes the pickled plan into
   the process environment (``REPRO_FAULTS``), so pooled workers forked later
   and cluster worker processes inherit it; worker entry points call
   :func:`load_from_env`.  This matches how ``cluster/_testing.py`` has always
   shipped its test knobs — workers inherit the spawning environment.

The counters are **process-local** runtime state and are excluded from
pickling: a plan arriving in a worker starts its opportunity counts at zero,
which is exactly what a deterministic per-process replay wants.

Injection points currently threaded through the codebase:

================== =========================================== ==================
point              site                                        actions understood
================== =========================================== ==================
``mailbox.send``   every substrate's send path                 drop, duplicate, delay, error
``mailbox.receive`` ``backends.base.apply_receive_faults``     delay, error
``worker.spawn``   ``ProcessesSubstrate._fork_worker_locked``  error
``worker.crash``   worker job ``Receive`` / threads ``Receive`` crash (child ``os._exit``), error
``wire.send`` / ``wire.recv`` ``cluster.wire`` frame codec     corrupt, truncate, delay, error
``cache.get``      ``incremental.cache.ArtifactCache.get``     poison (forced miss), error
``server.request`` ``server.app`` request dispatch             stall (delay), error
``store.read``     ``store.objects.ArtifactStore.read``        error (→ miss), corrupt (→ quarantined miss), delay
``store.write``    ``store.objects.ArtifactStore.write``       error (→ dropped write), corrupt (detected on read), delay
``testing.dawdle`` ``cluster._testing`` slow grammar           delay
================== =========================================== ==================

A site only looks at the actions it understands; an unknown action at a point
behaves like ``error`` there (the conservative interpretation).
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

#: Environment variable carrying the installed plan to child processes.
ENV_VAR = "REPRO_FAULTS"

#: Actions every injection site must at least map to "raise a FaultError".
KNOWN_ACTIONS = (
    "error", "drop", "duplicate", "delay", "crash",
    "corrupt", "truncate", "poison", "stall",
)


class FaultError(RuntimeError):
    """A fault injected by the active :class:`FaultPlan` (typed, expected).

    Carrying the point and action lets tests assert *which* fault surfaced and
    lets retry layers treat injected faults exactly like organic ones.
    """

    def __init__(self, point: str, action: str = "error", detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"injected fault at {point!r}: {action}{suffix}")
        self.point = point
        self.action = action
        self.detail = detail


@dataclass(frozen=True)
class FaultRule:
    """One deterministic firing rule for a named injection point.

    :param point: the injection-point name this rule watches.
    :param action: what the site should do when the rule fires (site-interpreted).
    :param probability: chance each opportunity fires, hashed from
        ``(seed, rule, opportunity)`` — 1.0 fires every eligible opportunity.
    :param times: maximum number of firings (``None`` = unlimited).
    :param after: skip this many opportunities before the rule becomes eligible,
        so "crash on the third receive" is expressible without probabilities.
    :param delay: seconds for delay/stall actions (``FaultHit.sleep``).
    :param match: substring the site's detail string must contain (e.g. a
        mailbox name), narrowing the rule to one channel.
    """

    point: str
    action: str = "error"
    probability: float = 1.0
    times: Optional[int] = 1
    after: int = 0
    delay: float = 0.0
    match: str = ""

    def __post_init__(self) -> None:
        if not self.point:
            raise ValueError("a FaultRule needs a non-empty injection point name")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class FaultHit:
    """One fired rule, handed to the injection site to act on."""

    point: str
    action: str
    delay: float
    rule_index: int
    detail: str

    def sleep(self) -> None:
        """Serve a delay/stall action (no-op for zero delay)."""
        if self.delay > 0:
            time.sleep(self.delay)

    def raise_error(self) -> None:
        raise FaultError(self.point, self.action, self.detail)


class FaultPlan:
    """A seed plus rules; picklable, with process-local runtime counters.

    ``check(point, detail)`` is the whole runtime API: it returns a
    :class:`FaultHit` when some rule fires for this opportunity, else ``None``.
    Thread-safe — substrates call it from worker threads, coordinator threads
    and forked children concurrently.
    """

    def __init__(self, seed: int = 0, rules: Sequence[FaultRule] = ()):
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self._reset_runtime()

    def _reset_runtime(self) -> None:
        self._lock = threading.Lock()
        self._opportunities = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        self._injected = 0

    # ------------------------------------------------------------------ pickling

    def __getstate__(self):
        return {"seed": self.seed, "rules": self.rules}

    def __setstate__(self, state) -> None:
        self.seed = state["seed"]
        self.rules = state["rules"]
        self._reset_runtime()

    # ------------------------------------------------------------------- firing

    def _chance(self, rule_index: int, opportunity: int) -> float:
        token = f"{self.seed}:{rule_index}:{opportunity}".encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def check(self, point: str, detail: str = "") -> Optional[FaultHit]:
        """The Nth opportunity at ``point``: a :class:`FaultHit` or ``None``."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.point != point:
                    continue
                if rule.match and rule.match not in detail:
                    continue
                opportunity = self._opportunities[index]
                self._opportunities[index] = opportunity + 1
                if opportunity < rule.after:
                    continue
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if rule.probability < 1.0 and self._chance(index, opportunity) >= rule.probability:
                    continue
                self._fired[index] += 1
                self._injected += 1
                _count_injection()
                return FaultHit(
                    point=point,
                    action=rule.action,
                    delay=rule.delay,
                    rule_index=index,
                    detail=detail,
                )
        return None

    @property
    def injected(self) -> int:
        """How many faults this plan has fired in this process."""
        with self._lock:
            return self._injected

    def describe(self) -> str:
        lines = [f"FaultPlan(seed={self.seed}, {len(self.rules)} rule(s))"]
        for index, rule in enumerate(self.rules):
            lines.append(
                f"  [{index}] {rule.point} -> {rule.action}"
                f" p={rule.probability:g} times={rule.times} after={rule.after}"
                + (f" delay={rule.delay:g}s" if rule.delay else "")
                + (f" match={rule.match!r}" if rule.match else "")
            )
        return "\n".join(lines)

    # ------------------------------------------------------------- env transport

    def encode(self) -> str:
        """The plan as an environment-safe ASCII token (base64 pickle)."""
        return base64.urlsafe_b64encode(pickle.dumps(self)).decode("ascii")

    @classmethod
    def decode(cls, token: str) -> "FaultPlan":
        plan = pickle.loads(base64.urlsafe_b64decode(token.encode("ascii")))
        if not isinstance(plan, cls):
            raise ValueError(f"{ENV_VAR} does not decode to a FaultPlan")
        return plan


# ------------------------------------------------------------------ module state

#: The installed plan, or None.  Injection sites read this attribute directly —
#: ``if _faults.ACTIVE is not None`` is the entire disabled-plane cost.
ACTIVE: Optional[FaultPlan] = None

_injected_lock = threading.Lock()
_injected_total = 0


def _count_injection() -> None:
    global _injected_total
    with _injected_lock:
        _injected_total += 1


def injected_count() -> int:
    """Total faults injected in this process, across every plan ever active."""
    with _injected_lock:
        return _injected_total


def install(plan: FaultPlan, *, env: bool = True) -> FaultPlan:
    """Activate ``plan`` process-wide (and, via the environment, for children).

    ``env=False`` keeps the plan out of the environment for tests that must not
    leak faults into workers they fork.
    """
    global ACTIVE
    ACTIVE = plan
    if env:
        os.environ[ENV_VAR] = plan.encode()
    return plan


def uninstall() -> None:
    """Deactivate any plan and scrub the environment."""
    global ACTIVE
    ACTIVE = None
    os.environ.pop(ENV_VAR, None)


def load_from_env() -> Optional[FaultPlan]:
    """Adopt the plan shipped in the environment (worker entry points call this).

    A corrupt token deactivates injection rather than killing the worker — a
    fault plane must never be the fault.
    """
    global ACTIVE
    token = os.environ.get(ENV_VAR)
    if not token:
        return ACTIVE
    try:
        ACTIVE = FaultPlan.decode(token)
    except Exception:
        ACTIVE = None
    return ACTIVE


@contextlib.contextmanager
def active(plan: FaultPlan, *, env: bool = True) -> Iterator[FaultPlan]:
    """``with faults.active(plan): ...`` — install on entry, uninstall on exit."""
    install(plan, env=env)
    try:
        yield plan
    finally:
        uninstall()


def check(point: str, detail: str = "") -> Optional[FaultHit]:
    """Convenience for cold paths: consult the active plan if there is one."""
    plan = ACTIVE
    if plan is None:
        return None
    return plan.check(point, detail)
