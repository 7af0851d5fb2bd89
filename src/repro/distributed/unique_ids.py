"""Unique-identifier generation without global synchronisation.

Compilers routinely need program-wide unique identifiers (labels, temporaries).  A
sequential attribute grammar threads a counter attribute through the whole tree; done
naively in a parallel evaluator this forces every evaluator to wait for the counter to
arrive.  The paper's solution: "a unique value is communicated by the parser to each
evaluator and unique identifiers within that evaluator are then generated relative to
this base value."

Each evaluator therefore activates a :class:`UniqueIdGenerator` seeded with the base it
received in its :class:`~repro.distributed.protocol.SubtreeMessage`; semantic functions
call :func:`next_unique_id` (or :func:`next_label`).  Generation is deterministic per
evaluator, and distinct evaluators draw from disjoint ranges, so the result is globally
unique without any messages.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, List, Optional

#: How far apart the per-evaluator base values are spaced by default.  The paper's
#: compiler uses one base value per evaluator; 10 million labels per region is far more
#: than any compilation unit needs.
REGION_ID_SPACING = 10_000_000


class UniqueIdGenerator:
    """A monotonically increasing counter starting at ``base``."""

    __slots__ = ("base", "_next")

    def __init__(self, base: int = 0):
        self.base = base
        self._next = base

    def next_id(self) -> int:
        value = self._next
        self._next += 1
        return value

    def next_label(self, prefix: str = "L") -> str:
        return f"{prefix}{self.next_id()}"

    @property
    def issued(self) -> int:
        return self._next - self.base


class _GeneratorStack(threading.local):
    """Per-thread generator stack.

    Each evaluator activates its own region-base generator around every scheduler task,
    and no task spans a yield, so evaluators that share a thread (every in-process
    substrate runs a session's bodies on one) never see each other's entries.  The
    stack is thread-local because the service and the server run different sessions
    concurrently on their own dispatch threads: a process-global stack would let those
    sessions pop each other's generators and draw ids from the wrong range.
    """

    def __init__(self):
        self.items: List[UniqueIdGenerator] = [UniqueIdGenerator(0)]


_stacks = _GeneratorStack()


def current_generator() -> UniqueIdGenerator:
    """The generator currently in effect (the innermost active context)."""
    return _stacks.items[-1]


@contextlib.contextmanager
def unique_id_context(generator_or_base) -> Iterator[UniqueIdGenerator]:
    """Activate a generator for the duration of a ``with`` block.

    Accepts either a :class:`UniqueIdGenerator` (so an evaluator can keep issuing from
    the same range across many scheduler tasks) or an integer base.
    """
    if isinstance(generator_or_base, UniqueIdGenerator):
        generator = generator_or_base
    else:
        generator = UniqueIdGenerator(int(generator_or_base))
    stack = _stacks.items
    stack.append(generator)
    try:
        yield generator
    finally:
        stack.pop()


def next_unique_id() -> int:
    """Draw the next unique integer from the active generator."""
    return current_generator().next_id()


def next_label(prefix: str = "L") -> str:
    """Draw the next unique label from the active generator."""
    return current_generator().next_label(prefix)


def base_for_region(region_id: int, spacing: int = REGION_ID_SPACING) -> int:
    """The base value the parser hands to the evaluator of ``region_id``."""
    return (region_id + 1) * spacing
