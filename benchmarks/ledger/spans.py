"""Spans recorded by the benchmark around its calls into each layer.

A span is ``{id, name, op, start, end, parent}``: ``op`` is the identifier all
spans of one primary operation share, ``parent`` the id of the span that caused
it.  Spans live in memory and are written out once, when the traced run ends.
A layer's *self time* is its span's duration minus its children's.

Two kinds of span exist.  A *timed* span wraps a call the benchmark itself
makes (``language.parse``, ``Document.recompile``, one HTTP request …).  A
*reported* span carries a duration the program published in a public result
field (``wall_ship_seconds``, a response's ``wall_compile_ms`` …): it has a
real duration but no start of its own, so it is laid out at its parent's start
and flagged ``reported``.  In-program spans are a later issue (ROADMAP item 1).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """An in-memory span recorder, safe to use from several client threads."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: List[Tuple[Any, str]] = []

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, op: Optional[str], parent: Optional[int]) -> Dict[str, Any]:
        with self._lock:
            span = {
                "id": len(self.spans),
                "name": name,
                "op": op,
                "start": 0.0,
                "end": 0.0,
                "parent": parent,
            }
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Time the enclosed block; nests under this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = self._new(
            name,
            op if op is not None else (parent["op"] if parent else None),
            parent["id"] if parent else None,
        )
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def reported(self, name: str, seconds: float, parent: Dict[str, Any]) -> Dict[str, Any]:
        """Attach a duration the program reported itself as a child of ``parent``."""
        span = self._new(name, parent["op"], parent["id"])
        span["start"] = parent["start"]
        span["end"] = parent["start"] + max(0.0, seconds)
        span["reported"] = True
        return span

    def wrap(
        self,
        target: Any,
        method: str,
        name: str,
        note: Optional[Callable[[Dict[str, Any], tuple, Any], None]] = None,
    ) -> None:
        """Time every call of ``target.method`` until :meth:`unwrap`.

        Used where a layer is called *by the program* rather than by the
        benchmark (the artifact cache and the store under a ``Document``): the
        public method of that one object is shadowed by an instance attribute
        from outside; no module of the program is edited or patched.
        ``note(span, args, result)`` may attach what the call carried.
        """
        inner = getattr(target, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = inner(*args, **kwargs)
            if note is not None:
                note(span, args, result)
            return result

        setattr(target, method, traced)
        self._wrapped.append((target, method))

    def unwrap(self) -> None:
        """Remove every wrapper, so untraced blocks run the program as shipped."""
        for target, method in self._wrapped:
            delattr(target, method)
        self._wrapped.clear()

    # ------------------------------------------------------------------ analysis

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus its direct children's, floored at zero.

        The floor only bites when a *reported* child claims more time than the
        timed call that produced it took — which is what the coverage check
        below exists to catch.
        """
        child_total: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_total[span["parent"]] = (
                    child_total.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        return {
            span["id"]: max(
                0.0, span["end"] - span["start"] - child_total.get(span["id"], 0.0)
            )
            for span in self.spans
        }

    def self_time_coverage(self) -> float:
        """Worst per-op ratio of (sum of self times) to the op span's duration.

        1.0 means the spans account for the op exactly; the acceptance test is
        that this stays within 10 % of 1 on every traced op.
        """
        self_times = self.self_times()
        by_op: Dict[str, float] = {}
        root: Dict[str, float] = {}
        for span in self.spans:
            if span["op"] is None:
                continue
            by_op[span["op"]] = by_op.get(span["op"], 0.0) + self_times[span["id"]]
            if span["name"] == "op":
                root[span["op"]] = span["end"] - span["start"]
        ratios = [by_op[op] / root[op] for op in root if root[op] > 0]
        if not ratios:
            return 0.0
        return max(ratios, key=lambda ratio: abs(ratio - 1.0))

    def self_time_by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: sample count and total self seconds (the trace digest)."""
        self_times = self.self_times()
        digest: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = digest.setdefault(span["name"], {"samples": 0, "self_seconds": 0.0})
            entry["samples"] += 1
            entry["self_seconds"] += self_times[span["id"]]
        return digest

    def write(self, path: str, **header: Any) -> None:
        with open(path, "w") as handle:
            json.dump({**header, "spans": self.spans}, handle)
