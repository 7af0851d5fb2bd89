"""Deterministic fault injection (see :mod:`repro.faults.plan`).

Build a seeded :class:`FaultPlan`, install it, and every named injection point
threaded through the substrates, the cluster wire, the artifact cache and the
HTTP server becomes a deterministic chaos source::

    from repro.faults import FaultPlan, FaultRule, active

    plan = FaultPlan(seed=7, rules=[
        FaultRule(point="mailbox.send", action="drop", times=1, after=3),
        FaultRule(point="worker.crash", action="crash", times=1),
    ])
    with active(plan):
        result = compiler.compile(source)   # survives or fails *typed*

The plan rides the process environment (``REPRO_FAULTS``) into pooled and
cluster workers, exactly like a language bundle.  With no plan installed the
plane is a guaranteed no-op: one module-attribute check per site.

Mutable state (the installed plan, the injection counter) lives on
:mod:`repro.faults.plan`; injection sites import that module directly so they
always observe the current plan.
"""

from repro.faults.plan import (
    ENV_VAR,
    FaultError,
    FaultHit,
    FaultPlan,
    FaultRule,
    active,
    check,
    injected_count,
    install,
    load_from_env,
    uninstall,
)

__all__ = [
    "ENV_VAR",
    "FaultError",
    "FaultHit",
    "FaultPlan",
    "FaultRule",
    "active",
    "check",
    "injected_count",
    "install",
    "load_from_env",
    "uninstall",
]
