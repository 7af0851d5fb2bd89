"""The multi-host wire protocol: length-prefixed pickled frames + handshake.

Every byte that crosses a cluster connection is a *frame*: a 4-byte big-endian
length followed by exactly that many payload bytes (a pickled Python object).
Framing is the only layer that touches raw sockets; everything above it —
handshake, job shipping, mailbox bridging, heartbeats — exchanges plain tuples.

Hardening rules (mirroring the PackedTree decode hardening):

* a truncated length header or payload raises :class:`ProtocolError` naming how
  many bytes were expected vs received;
* a length that exceeds :data:`MAX_FRAME_BYTES` (a garbage header, or a peer
  speaking a different protocol) is rejected before any allocation;
* an unpicklable payload raises :class:`ProtocolError` instead of a bare
  ``UnpicklingError``.

The handshake runs once per connection, worker side first::

    worker  -> {"magic": MAGIC, "version": PROTOCOL_VERSION,
                "role": "worker", "name": ..., "capabilities": {...}}
    coord   -> {"magic": MAGIC, "version": PROTOCOL_VERSION, "status": "ok",
                "worker_id": ..., "heartbeat_interval": ...}
              (or {"status": "reject", "reason": ...} followed by close)

Both sides validate magic and version with :func:`check_handshake`; a version
mismatch is an explicit, readable error — never a silent hang or a pickle
explosion halfway into the first job.

Post-handshake frame vocabulary (tag-first tuples; ``a`` is an attempt id, ``i`` a
mailbox's number within its session).  Apart from ``ping``, ``bundle_miss`` and
``shutdown`` these are the records and frames of the coordinator core in
:mod:`repro.backends.routing`, the same ones a pooled ``processes`` worker writes to
its pipe:

==========================  ===========================================================
worker -> coordinator
--------------------------  -----------------------------------------------------------
``("claim", a, i)``         attempt ``a`` will receive on mailbox ``i``; the
                            coordinator replays the mailbox's full message log and
                            forwards every later message
``("send", a, i, blob)``    attempt ``a`` sends a message, pickled to ``blob``, to
                            mailbox ``i``
``("report", a, r, rep)``   publish evaluator report ``rep`` for region ``r``
``("done", a, m, b)``       attempt ``a`` finished (``m`` messages / ``b`` bytes sent)
``("aborted", a)``          attempt ``a`` unwound after an abort frame
``("error", a, tb)``        attempt ``a``'s body raised; ``tb`` is the traceback text
``("bundle_miss", a, k, d)``  attempt ``a`` could not resolve shared blob ``k``
                            (store ref digest ``d``) from its local store; re-ship bytes
``("ping", seq)``           heartbeat
--------------------------  -----------------------------------------------------------
coordinator -> worker
--------------------------  -----------------------------------------------------------
``("job", a, name, blob, shared, timeout)``  run job ``name`` as attempt ``a``
                            (``shared`` maps key → blob bytes, or → :class:`StoreRef`
                            when the worker advertised the digest at handshake)
``("deliver", a, i, m)``    a message for attempt ``a``'s claimed mailbox ``i``
``("abort", a)``            stop attempt ``a`` (its job completed elsewhere or failed)
``("shutdown",)``           the cluster is going away; exit after unwinding
==========================  ===========================================================
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.faults import plan as _faults

#: First bytes of every handshake: identifies "a repro cluster peer" before any
#: version logic runs, so a stray HTTP client gets a clear rejection.
MAGIC = "repro-cluster"

#: Bumped on every incompatible frame-vocabulary change; peers must match exactly.
PROTOCOL_VERSION = 2

#: Upper bound on a single frame (defensive: a corrupt length header must not
#: trigger a multi-gigabyte allocation).  Large compiles ship regions well under
#: this; raise it here if a workload ever legitimately needs more.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


@dataclass(frozen=True)
class StoreRef:
    """Stands in for shared-blob *bytes* the receiving worker already holds.

    A worker that mounts a persistent store (``--store``) advertises the
    content digests of its verified bundle blobs at handshake; the coordinator
    then ships this tiny reference instead of the (often multi-megabyte)
    pickled grammar bundle.  A worker that cannot resolve the digest after all
    — the blob was evicted or damaged since the handshake — answers with a
    ``bundle_miss`` frame and the coordinator re-ships real bytes.  A stale
    store can cost one extra round trip; it can never change results.
    """

    digest: str


class ProtocolError(ValueError):
    """A malformed, truncated or incompatible frame / handshake.

    Subclasses :class:`ValueError` so generic decode-hardening handlers (the
    PackedTree style) treat wire corruption uniformly.
    """


def _read_exact(stream: Any, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ProtocolError` naming the gap."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            received = count - remaining
            raise ProtocolError(
                f"connection closed mid-{what}: expected {count} bytes, "
                f"received {received}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _apply_wire_faults(point: str, payload: bytes) -> bytes:
    """Mutate, truncate, delay or fail one frame under the active fault plan.

    Corruption and truncation are applied to the *payload bytes* (never the
    length header), so a corrupted frame exercises the unpickle-hardening path
    and a truncated one the ``_read_exact`` gap detection — exactly the two
    failure shapes a flaky real network produces.
    """
    plan = _faults.ACTIVE
    if plan is None:
        return payload
    hit = plan.check(point)
    if hit is None:
        return payload
    if hit.action in ("delay", "stall"):
        hit.sleep()
        return payload
    if hit.action == "corrupt":
        if not payload:
            return payload
        mutated = bytearray(payload)
        mutated[len(mutated) // 2] ^= 0xFF
        return bytes(mutated)
    if hit.action == "truncate":
        return payload[: max(0, len(payload) - 1 - len(payload) // 2)]
    hit.raise_error()
    raise AssertionError("unreachable")  # pragma: no cover


def write_frame(stream: Any, payload: bytes) -> int:
    """Write one length-prefixed frame; returns the bytes put on the wire."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    if _faults.ACTIVE is not None:
        mutated = _apply_wire_faults("wire.send", payload)
        stream.write(_HEADER.pack(len(payload)))
        stream.write(mutated)
        stream.flush()
        if len(mutated) != len(payload):
            # A truncated frame went out under the ORIGINAL length header: close
            # the stream so the peer sees a connection cut mid-frame (a clean
            # ProtocolError from _read_exact) instead of a desynced byte stream.
            try:
                stream.close()
            except OSError:
                pass
            raise ProtocolError(
                f"connection lost mid-frame: wrote {len(mutated)} of "
                f"{len(payload)} payload bytes"
            )
        return _HEADER.size + len(mutated)
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()
    return _HEADER.size + len(payload)


def read_frame(stream: Any) -> bytes:
    """Read one frame's payload, raising :class:`ProtocolError` on truncation."""
    header = _read_exact(stream, _HEADER.size, "frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt stream or foreign protocol?)"
        )
    payload = _read_exact(stream, length, "frame payload")
    if _faults.ACTIVE is not None:
        payload = _apply_wire_faults("wire.recv", payload)
        if len(payload) != length:
            raise ProtocolError(
                f"connection closed mid-frame payload: expected {length} bytes, "
                f"received {len(payload)}"
            )
    return payload


def send_message(stream: Any, message: Any) -> int:
    """Pickle ``message`` into one frame; returns the bytes put on the wire."""
    try:
        payload = pickle.dumps(message)
    except Exception as error:
        raise ProtocolError(f"message is not picklable for the wire: {error}") from error
    return write_frame(stream, payload)


def recv_message(stream: Any) -> Any:
    """Read and unpickle one frame, wrapping decode failures in ProtocolError."""
    payload = read_frame(stream)
    try:
        return pickle.loads(payload)
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(f"undecodable frame payload: {error}") from error


def hello(role: str, name: str, capabilities: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The opening handshake message a connecting peer sends."""
    return {
        "magic": MAGIC,
        "version": PROTOCOL_VERSION,
        "role": role,
        "name": name,
        "capabilities": dict(capabilities or {}),
    }


def welcome(worker_id: int, heartbeat_interval: float) -> Dict[str, Any]:
    """The coordinator's accepting reply to a worker's hello."""
    return {
        "magic": MAGIC,
        "version": PROTOCOL_VERSION,
        "status": "ok",
        "worker_id": worker_id,
        "heartbeat_interval": heartbeat_interval,
    }


def reject(reason: str) -> Dict[str, Any]:
    """The coordinator's refusing reply (sent just before closing the connection)."""
    return {"magic": MAGIC, "version": PROTOCOL_VERSION, "status": "reject", "reason": reason}


def check_handshake(message: Any, *, expect_status: bool = False) -> Dict[str, Any]:
    """Validate a handshake message; raises :class:`ProtocolError` with a clear cause.

    ``expect_status`` is set by the worker side, which additionally requires the
    coordinator's ``status`` field (and surfaces an explicit rejection reason).
    """
    if not isinstance(message, dict):
        raise ProtocolError(f"handshake expected a dict, got {type(message).__name__}")
    if message.get("magic") != MAGIC:
        raise ProtocolError(
            f"peer is not a repro cluster endpoint (magic {message.get('magic')!r})"
        )
    version = message.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this end speaks {PROTOCOL_VERSION}"
        )
    if expect_status:
        status = message.get("status")
        if status == "reject":
            raise ProtocolError(
                f"coordinator rejected the connection: {message.get('reason')}"
            )
        if status != "ok":
            raise ProtocolError(f"unexpected handshake status {status!r}")
    return message
