"""The cluster worker: a separate host process that evaluates shipped regions.

Spawned on any machine that can reach the coordinator::

    python -m repro.cluster.worker --connect HOST:PORT

One TCP connection carries everything: the handshake, job frames, the records of the
jobs it runs, deliveries, and heartbeats.  The worker runs any number of jobs at once,
each on a thread of its own.  A job runs exactly as it does in a pooled ``processes``
worker — the same :class:`~repro.backends.routing.JobTransport` and
:func:`~repro.backends.routing.run_job`: it claims a mailbox before its first read,
and the coordinator then replays that mailbox's log before any later delivery, which
is what makes running it again after a worker death transparent.  What is this
module's own is the frame I/O around them — a reader that hands each attempt its
frames, a lock-guarded writer shared with the heartbeat thread — and the bundles.

Language bundles arrive once per worker ever (the coordinator tracks which shared
blobs this connection already holds) and are cached by key across jobs.

With ``--store PATH`` the worker also mounts a persistent artifact store:
bundle blobs it receives are written under their content digest (namespace
``bundle``), and at handshake it advertises the digests it can already verify.
The coordinator then ships a :class:`~repro.cluster.wire.StoreRef` instead of
the bytes — a *restarted* worker (new process, same store) skips the multi-
megabyte bundle transfer entirely.  A digest the worker cannot resolve after
all comes back as a ``bundle_miss`` frame and the bytes are re-shipped.
"""

from __future__ import annotations

import argparse
import os
import pickle
import platform
import queue as queue_module
import socket
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.backends.routing import JobTransport, run_job
from repro.cluster import wire
from repro.faults import plan as faults_plan


class _SocketTransport(JobTransport):
    """A cluster job's frame I/O: records out on the worker's connection, frames in
    from the worker's reader thread."""

    def __init__(self, worker: "ClusterWorker", attempt_id: int, job_name: str,
                 receive_timeout: float):
        super().__init__(attempt_id, job_name, receive_timeout)
        self._worker = worker
        self.frames: "queue_module.SimpleQueue[Tuple]" = queue_module.SimpleQueue()

    def write(self, record: Tuple) -> None:
        self._worker.send_frame(record)

    def next_frame(self, timeout: float) -> Optional[Tuple]:
        try:
            return self.frames.get(timeout=timeout)
        except queue_module.Empty:
            return None


class ClusterWorker:
    """One worker process's connection to the coordinator, driving many attempts."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        connect_timeout: float = 10.0,
        store: Any = None,
    ):
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout = connect_timeout
        if store is not None:
            from repro.store import open_store

            self.store = open_store(store)
        else:
            self.store = None
        self.worker_id: Optional[int] = None
        self.heartbeat_interval = 1.0
        self._sock: Optional[socket.socket] = None
        self._rfile: Any = None
        self._wfile: Any = None
        self._send_lock = threading.Lock()
        self._attempts: Dict[int, _SocketTransport] = {}
        self._attempts_lock = threading.Lock()
        self._shared_cache: Dict[int, Any] = {}
        self._stopped = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None

    # ----------------------------------------------------------------- lifecycle

    def connect(self) -> None:
        """Dial the coordinator (retrying briefly) and run the handshake."""
        deadline = time.monotonic() + self.connect_timeout
        last_error: Optional[Exception] = None
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=10.0
                )
                break
            except OSError as error:
                last_error = error
                if time.monotonic() >= deadline:
                    raise wire.ProtocolError(
                        f"could not reach coordinator at {self.host}:{self.port} "
                        f"within {self.connect_timeout:.0f}s: {last_error}"
                    ) from error
                time.sleep(0.1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        capabilities: Dict[str, Any] = {
            "python": platform.python_version(),
            "platform": sys.platform,
            "pid": os.getpid(),
        }
        if self.store is not None:
            # Advertise every bundle blob that verifies *right now*; the
            # coordinator ships StoreRefs for these instead of bytes.
            capabilities["bundle_digests"] = sorted(
                self.store.verified_keys("bundle")
            )
        wire.send_message(
            self._wfile, wire.hello("worker", self.name, capabilities)
        )
        welcome = wire.check_handshake(
            wire.recv_message(self._rfile), expect_status=True
        )
        self.worker_id = welcome["worker_id"]
        self.heartbeat_interval = float(welcome.get("heartbeat_interval", 1.0))
        self._sock.settimeout(None)
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-worker-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def run(self) -> int:
        """Serve jobs until the coordinator shuts down (0) or the link drops (1)."""
        if self._sock is None:
            self.connect()
        try:
            while not self._stopped.is_set():
                frame = wire.recv_message(self._rfile)
                if not self._handle_frame(frame):
                    return 0
        except (wire.ProtocolError, OSError) as error:
            if self._stopped.is_set():
                return 0
            print(f"repro worker: connection lost: {error}", file=sys.stderr)
            return 1
        finally:
            self._stopped.set()
            self._abort_all()
            try:
                self._sock.close()
            except OSError:
                pass
        return 0

    def send_frame(self, frame: Any) -> None:
        """Thread-safe framed send (job threads + heartbeat share the connection)."""
        with self._send_lock:
            if self._stopped.is_set():
                return
            try:
                wire.send_message(self._wfile, frame)
            except (wire.ProtocolError, OSError):
                # The reader loop observes the same dead socket and unwinds; jobs
                # in flight are aborted there.
                self._stopped.set()

    # ----------------------------------------------------------------- internals

    def _heartbeat_loop(self) -> None:
        seq = 0
        while not self._stopped.wait(self.heartbeat_interval):
            seq += 1
            self.send_frame(("ping", seq))

    def _handle_frame(self, frame: Any) -> bool:
        tag = frame[0]
        if tag == "job":
            self._start_job(*frame[1:])
        elif tag in ("deliver", "abort"):
            with self._attempts_lock:
                transport = self._attempts.get(frame[1])
            if transport is not None:
                transport.frames.put(frame)
        elif tag == "shutdown":
            self._stopped.set()
            self._abort_all()
            return False
        return True  # an unknown frame is skipped (forward-compatible)

    def _start_job(self, attempt_id: int, name: str, payload: bytes,
                   shared_blobs: Dict[int, Any], receive_timeout: float) -> None:
        """Load the job's new bundles, then run it on a thread of its own.

        Bundles load here, on the reader, in frame order: a later job frame that
        relies on a bundle an earlier one brought finds it loaded.
        """
        try:
            for key, blob in shared_blobs.items():
                if key in self._shared_cache:
                    continue
                if isinstance(blob, wire.StoreRef):
                    resolved = self._bundle_from_store(blob)
                    if resolved is None:
                        # The advertised blob is gone (evicted or damaged since the
                        # handshake).  Not a body error — ask the coordinator to
                        # re-ship real bytes and run nothing.
                        self.send_frame(("bundle_miss", attempt_id, key, blob.digest))
                        return
                    blob = resolved
                else:
                    self._bundle_to_store(blob)
                self._shared_cache[key] = pickle.loads(blob)
        except Exception:  # noqa: BLE001 — shipped upstream; worker survives
            self.send_frame(("error", attempt_id, traceback.format_exc()))
            return
        transport = _SocketTransport(self, attempt_id, name, receive_timeout)
        with self._attempts_lock:
            self._attempts[attempt_id] = transport
        threading.Thread(
            target=self._run_job, args=(transport, payload),
            name=f"repro-worker-job-{name}", daemon=True,
        ).start()

    def _run_job(self, transport: _SocketTransport, payload: bytes) -> None:
        try:
            run_job(transport, payload, {}, self._shared_cache)
        finally:
            with self._attempts_lock:
                self._attempts.pop(transport.attempt_id, None)

    def _bundle_from_store(self, ref: "wire.StoreRef") -> Optional[bytes]:
        """Resolve a store reference to verified blob bytes, or ``None`` (a miss).

        The store already checks its integrity trailer; the digest re-check on
        top catches a *different* blob landing under this key (another writer's
        bug), so a resolved ref is always byte-identical to what the coordinator
        would have shipped.
        """
        if self.store is None:
            return None
        payload = self.store.read("bundle", ref.digest)
        if payload is None:
            return None
        from repro.store import content_digest

        if content_digest(payload) != ref.digest:
            self.store.delete("bundle", ref.digest)
            return None
        return payload

    def _bundle_to_store(self, blob: bytes) -> None:
        """Persist received bundle bytes so the *next* worker life skips the ship."""
        if self.store is None:
            return
        from repro.store import content_digest

        digest = content_digest(blob)
        if not self.store.contains("bundle", digest):
            self.store.write("bundle", digest, blob)

    def _abort_all(self) -> None:
        with self._attempts_lock:
            transports = list(self._attempts.values())
        for transport in transports:
            transport.frames.put(("abort", transport.attempt_id))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Join a repro compile cluster as an evaluator worker.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the cluster coordinator",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="worker name shown in cluster diagnostics (default: host-pid)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial connection (default: 10)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="mount a persistent artifact store: language bundles received "
             "from the coordinator are kept across worker restarts, so a "
             "rejoining worker skips the bundle transfer entirely",
    )
    options = parser.parse_args(argv)
    host, _, port_text = options.connect.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {options.connect!r}")
    # Adopt a fault plan shipped via the environment (chaos tests): a corrupt or
    # absent token is a guaranteed no-op.
    faults_plan.load_from_env()
    worker = ClusterWorker(
        host, int(port_text), name=options.name,
        connect_timeout=options.connect_timeout,
        store=options.store,
    )
    try:
        worker.connect()
    except (wire.ProtocolError, OSError) as error:
        print(f"repro worker: {error}", file=sys.stderr)
        return 2
    return worker.run()


if __name__ == "__main__":
    sys.exit(main())
