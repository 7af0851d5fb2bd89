"""A packed region parked in POSIX shared memory — a benchmark fixture only.

No code under ``repro`` imports this module: every substrate ships a region as the
:class:`~repro.tree.linearize.PackedTree` itself.  The ledger's traced
``paper_sweep`` still times one round trip of the largest region through a
segment (``tree.shm.share.p50_ms``, ``tree.shm.rebuild.p50_ms``), so what it calls
is kept here and nothing more:

* :func:`share_packed` copies ``codes | hole_meta | pickled token values`` into a
  fresh segment and returns a handle (segment name plus slice lengths) together with
  the :class:`ShippedSegment` that owns it;
* :func:`rebuild_shared` maps the segment by name and unpacks straight out of
  ``memoryview`` casts over the mapping;
* :meth:`ShippedSegment.release` closes and unlinks the segment (idempotent).  The
  caller releases in ``finally``.

Creating, mapping and unlinking all bypass ``multiprocessing.resource_tracker``:
registering a segment would start the tracker, a second interpreter that outlives
the process that started it.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, Iterator, Optional, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.tree.linearize import PackedTree, unpack
from repro.tree.node import ParseTreeNode

#: ``(segment name, codes bytes, hole-meta bytes, value-pickle bytes, root symbol,
#: abstract size in bytes)`` — everything a receiver needs besides the mapping.
_Handle = Tuple[str, int, int, int, str, int]

_segment_counter = itertools.count()


@contextlib.contextmanager
def _untracked() -> Iterator[None]:
    """Keep ``SharedMemory`` from registering with (and so starting) the tracker."""
    register, unregister = resource_tracker.register, resource_tracker.unregister
    resource_tracker.register = resource_tracker.unregister = lambda *args: None
    try:
        yield
    finally:
        resource_tracker.register, resource_tracker.unregister = register, unregister


class ShippedSegment:
    """Owner of one segment; releasing closes and unlinks it (idempotent)."""

    __slots__ = ("name", "_memory")

    def __init__(self, name: str, memory: SharedMemory):
        self.name = name
        self._memory: Optional[SharedMemory] = memory

    def release(self) -> None:
        memory, self._memory = self._memory, None
        if memory is None:
            return
        memory.close()
        with _untracked():
            memory.unlink()


def share_packed(packed: PackedTree) -> Tuple[_Handle, ShippedSegment]:
    """Park ``packed`` in a fresh shared-memory segment; return its handle and owner."""
    blobs = (
        packed.codes.tobytes(),
        packed.hole_meta.tobytes(),
        pickle.dumps(packed.values, protocol=pickle.HIGHEST_PROTOCOL),
    )
    total = sum(len(blob) for blob in blobs)
    while True:
        name = f"repro_ship_{os.getpid()}_{next(_segment_counter)}"
        try:
            with _untracked():
                memory = SharedMemory(name=name, create=True, size=max(total, 1))
            break
        except FileExistsError:  # stale name from a crashed predecessor: skip it
            continue
    segment = ShippedSegment(name, memory)
    try:
        offset = 0
        for blob in blobs:
            memory.buf[offset : offset + len(blob)] = blob
            offset += len(blob)
    except BaseException:
        segment.release()
        raise
    lengths = tuple(len(blob) for blob in blobs)
    return (name, *lengths, packed.root_symbol, packed.size_bytes()), segment


def rebuild_shared(
    grammar: AttributeGrammar, handle: _Handle
) -> Tuple[ParseTreeNode, Dict[int, ParseTreeNode]]:
    """Rebuild a subtree from its handle, reading the int arrays in place."""
    name, codes_bytes, holes_bytes, values_bytes, root_symbol, size_bytes = handle
    with _untracked():
        memory = SharedMemory(name=name)
    try:
        view = memoryview(memory.buf)
        holes_end = codes_bytes + holes_bytes
        codes = view[:codes_bytes].cast("i")
        holes = view[codes_bytes:holes_end].cast("q")
        try:
            values = pickle.loads(bytes(view[holes_end : holes_end + values_bytes]))
            return unpack(grammar, PackedTree(codes, values, holes, root_symbol, size_bytes))
        finally:
            codes.release()
            holes.release()
            view.release()
    finally:
        memory.close()
