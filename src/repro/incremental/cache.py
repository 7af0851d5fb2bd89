"""The content-addressed cache of per-region evaluation artifacts.

One :class:`RegionArtifact` is everything needed to *stand in* for a region on a
later compilation: the recorded boundary traffic (replayed verbatim to dirty
neighbours and to the string librarian) and the region's evaluator report
(statistics and memory figures, which are content properties).  Artifacts are
keyed by the stable region fingerprints of :mod:`repro.incremental.fingerprint`,
so the cache is shared freely across documents, services and successive builds —
hits are decided by content, not by session identity.

The cache is a thread-safe LRU: the service layer compiles jobs concurrently, and
an editing session only ever needs the last few builds' artifacts.  What it retains
is what every full garbage collection of the process must walk, so an artifact is
kept small in *objects*, not just bytes: recorded code fragments are single-leaf
ropes (:mod:`repro.distributed.recording`), the form the store round-trips to.

With a ``store`` (:class:`repro.store.ArtifactStore`, or a path), the in-memory
LRU gains a persistent second tier:

* **read-through** — a memory miss consults the on-disk store; a verified blob
  is promoted into memory and served as a hit, which is what makes a freshly
  restarted process (or a brand-new worker, or another host sharing the store)
  recompile an edited document at warm speed;
* **write-behind** — ``put`` enqueues the artifact to a background writer
  thread, so the compile hot path never waits on disk; :meth:`flush` drains the
  queue for tests and benchmarks that need the store settled.

Damaged store blobs are quarantined misses (the store's integrity trailer), and
a blob that verifies but no longer unpickles — a format drift, not disk damage —
is deleted and treated as a miss too: the store can change time, never results.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from repro.distributed.evaluator_node import EvaluatorReport
from repro.distributed.recording import RegionRecording
from repro.faults import plan as _faults

#: Store namespace holding region artifacts (cluster bundles use ``bundle``).
REGION_NAMESPACE = "region"


@dataclass
class RegionArtifact:
    """One region's cached evaluation: boundary recording + evaluator report."""

    key: str
    recording: RegionRecording
    report: EvaluatorReport


def _poisoned_copy(artifact: RegionArtifact) -> RegionArtifact:
    """A *copy* of ``artifact`` with every output signature flipped.

    Models an artifact from a different build landing under this fingerprint:
    the boundary traffic is intact but its signatures no longer agree with any
    neighbour, so the incremental engine's validation (up-front edge consistency
    or the per-round hole-signature check) must dirty the region and re-run it.
    The cached entry itself is never mutated — the poison evaporates with the
    fault plan.
    """
    recording = artifact.recording
    poisoned = RegionRecording(
        region_id=recording.region_id,
        input_sigs=dict(recording.input_sigs),
        sends=list(recording.sends),
        output_sigs={
            key: bytes(byte ^ 0xFF for byte in signature) or b"\x00"
            for key, signature in recording.output_sigs.items()
        },
    )
    return RegionArtifact(artifact.key, poisoned, artifact.report)


def encode_artifact(artifact: RegionArtifact) -> bytes:
    """The store payload for one artifact (integrity framing is the store's job)."""
    return pickle.dumps(
        (artifact.key, artifact.recording, artifact.report), protocol=4
    )


def decode_artifact(key: str, payload: bytes) -> Optional[RegionArtifact]:
    """Rebuild an artifact from store bytes; ``None`` if it no longer decodes.

    The store already verified the payload byte-for-byte, so a decode failure
    here means the pickled shape drifted (an old store mounted by newer code) —
    served as a miss, exactly like damage.
    """
    try:
        stored_key, recording, report = pickle.loads(payload)
    except Exception:
        return None
    if stored_key != key or not isinstance(recording, RegionRecording):
        return None
    return RegionArtifact(key, recording, report)


class ArtifactCache:
    """Thread-safe LRU of :class:`RegionArtifact` keyed by region fingerprint.

    :param max_entries: in-memory LRU capacity (the store tier is bounded by the
        store's own byte budget, not by this).
    :param store: optional persistent second tier — an
        :class:`repro.store.ArtifactStore` to share, or a path to mount one at.
    """

    def __init__(self, max_entries: int = 512, *, store: Any = None):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, RegionArtifact]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0       #: memory misses served by the persistent tier
        self.store_misses = 0     #: misses the persistent tier could not serve
        self.store_drops = 0      #: write-behind entries dropped (queue full)
        if store is not None:
            from repro.store import open_store

            self.store = open_store(store)
        else:
            self.store = None
        self._writer: Optional[threading.Thread] = None
        self._write_queue: Optional["queue_module.Queue"] = None
        if self.store is not None:
            self._write_queue = queue_module.Queue(maxsize=1024)
            self._writer = threading.Thread(
                target=self._write_behind_loop,
                name="repro-artifact-store-writer",
                daemon=True,
            )
            self._writer.start()

    def get(self, key: str) -> Optional[RegionArtifact]:
        promoted = False
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if artifact is None and self.store is not None:
            artifact = self._read_through(key)
            promoted = artifact is not None
        if artifact is None:
            with self._lock:
                self.misses += 1
                if self.store is not None:
                    self.store_misses += 1
            return None
        if promoted:
            with self._lock:
                self.hits += 1
                self.store_hits += 1
                self._entries[key] = artifact
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        if _faults.ACTIVE is not None:
            hit = _faults.ACTIVE.check("cache.get", key)
            if hit is not None:
                if hit.action == "drop":
                    return None  # forced miss: the region recompiles from source
                if hit.action in ("delay", "stall"):
                    hit.sleep()
                else:
                    return _poisoned_copy(artifact)
        return artifact

    def _read_through(self, key: str) -> Optional[RegionArtifact]:
        payload = self.store.read(REGION_NAMESPACE, key)
        if payload is None:
            return None
        artifact = decode_artifact(key, payload)
        if artifact is None:
            # Verified bytes that no longer decode: format drift, not damage.
            # Delete so the slot is rewritten by this build's fresh recording.
            self.store.delete(REGION_NAMESPACE, key)
            return None
        return artifact

    def put(self, artifact: RegionArtifact) -> None:
        with self._lock:
            self._entries[artifact.key] = artifact
            self._entries.move_to_end(artifact.key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        if self._write_queue is not None:
            try:
                self._write_queue.put_nowait(artifact)
            except queue_module.Full:
                with self._lock:
                    self.store_drops += 1

    # ------------------------------------------------------------- write-behind

    def _write_behind_loop(self) -> None:
        assert self._write_queue is not None and self.store is not None
        while True:
            artifact = self._write_queue.get()
            try:
                if artifact is None:
                    return
                self.store.write(
                    REGION_NAMESPACE, artifact.key, encode_artifact(artifact)
                )
            finally:
                self._write_queue.task_done()

    def flush(self, timeout: float = 30.0) -> bool:
        """Wait until every queued write-behind artifact reached the store.

        Returns ``False`` on timeout (the writer keeps going regardless).  A
        cache without a store flushes trivially.
        """
        if self._write_queue is None:
            return True
        deadline = time.monotonic() + timeout
        while self._write_queue.unfinished_tasks:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return True

    def close(self) -> None:
        """Flush and retire the write-behind thread (idempotent)."""
        if self._write_queue is None or self._writer is None:
            return
        self.flush()
        self._write_queue.put(None)
        self._writer.join(timeout=5.0)
        self._writer = None

    # ----------------------------------------------------------------- contents

    def clear(self) -> None:
        """Empty the in-memory tier (the persistent store is left untouched)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        tiered = f", store={self.store!r}" if self.store is not None else ""
        return (
            f"ArtifactCache({len(self)} entries, {self.hits} hits / "
            f"{self.misses} misses{tiered})"
        )
