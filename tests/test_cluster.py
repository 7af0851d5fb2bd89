"""Tests for the multi-host compile cluster: wire hardening, consistent hashing,
membership, and fault injection on the sockets substrate.

The fault-injection tests are the acceptance criteria of the subsystem: a
compile on a loopback cluster must produce a byte-identical result after a
worker is SIGKILLed mid-evaluation, after a coordinator-side job timeout, and
after a heartbeat expiry — because evaluator bodies are deterministic functions
of their mailbox logs and the coordinator suppresses duplicate outputs.
"""

from __future__ import annotations

import io
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import Compiler, GrammarLanguage, Session, register_language
from repro.api.language import unregister_language
from repro.backends import BackendError, create_substrate
from repro.backends.sockets import SocketsSubstrate, _worker_environment
from repro.cluster import wire
from repro.cluster.hashing import HashRing, stable_hash
from repro.cluster.membership import WorkerDirectory
from repro.cluster._testing import SLEEP_ENV, STALL_FILE_ENV, sleepy_grammar
from repro.exprlang import random_expression_source, tokenize_expression

# Fast receive bound so a wedged cluster fails in seconds, not minutes.
TIMEOUT = 60.0

SOURCE = random_expression_source(60, seed=11, nesting=4)
MACHINES = 4


# ----------------------------------------------------------------- wire protocol


class TestWireFraming:
    def test_round_trip(self):
        stream = io.BytesIO()
        message = ("send", 7, "m3", {"value": [1, 2, 3]}, 48)
        on_wire = wire.send_message(stream, message)
        assert on_wire == len(stream.getvalue())
        stream.seek(0)
        assert wire.recv_message(stream) == message

    def test_truncated_header(self):
        with pytest.raises(wire.ProtocolError, match="expected 4 bytes, received 2"):
            wire.read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_payload(self):
        stream = io.BytesIO(struct.pack(">I", 100) + b"only-sixteen-byt")
        with pytest.raises(wire.ProtocolError, match="expected 100 bytes, received 16"):
            wire.read_frame(stream)

    def test_empty_stream(self):
        with pytest.raises(wire.ProtocolError, match="frame header"):
            wire.read_frame(io.BytesIO(b""))

    def test_oversize_header_rejected_before_allocation(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        stream = io.BytesIO(struct.pack(">I", 65) + b"\x00" * 65)
        with pytest.raises(wire.ProtocolError, match="announces 65 bytes"):
            wire.read_frame(stream)

    def test_oversize_write_rejected(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            wire.write_frame(io.BytesIO(), b"\x00" * 65)

    def test_protocol_error_is_a_value_error(self):
        # Generic decode-hardening handlers catch ValueError; wire corruption
        # must flow through the same channel as PackedTree corruption.
        assert issubclass(wire.ProtocolError, ValueError)

    def test_unpicklable_message(self):
        with pytest.raises(wire.ProtocolError, match="not picklable"):
            wire.send_message(io.BytesIO(), lambda: None)

    def test_undecodable_payload(self):
        stream = io.BytesIO()
        wire.write_frame(stream, b"these bytes are not a pickle")
        stream.seek(0)
        with pytest.raises(wire.ProtocolError, match="undecodable"):
            wire.recv_message(stream)


class TestHandshake:
    def test_hello_welcome_round_trip(self):
        message = wire.check_handshake(wire.hello("worker", "w1", {"pid": 42}))
        assert message["capabilities"] == {"pid": 42}
        accepted = wire.check_handshake(wire.welcome(3, 0.5), expect_status=True)
        assert accepted["worker_id"] == 3

    def test_non_dict_rejected(self):
        with pytest.raises(wire.ProtocolError, match="expected a dict"):
            wire.check_handshake(("hello",))

    def test_bad_magic_rejected(self):
        greeting = wire.hello("worker", "w1")
        greeting["magic"] = "http/1.1"
        with pytest.raises(wire.ProtocolError, match="not a repro cluster endpoint"):
            wire.check_handshake(greeting)

    def test_version_mismatch_is_explicit(self):
        greeting = wire.hello("worker", "w1")
        greeting["version"] = wire.PROTOCOL_VERSION + 1
        with pytest.raises(wire.ProtocolError, match="version mismatch"):
            wire.check_handshake(greeting)

    def test_rejection_reason_surfaces(self):
        with pytest.raises(wire.ProtocolError, match="fleet is full"):
            wire.check_handshake(wire.reject("fleet is full"), expect_status=True)

    def test_live_coordinator_rejects_foreign_role(self):
        from repro.cluster import ClusterCoordinator

        coordinator = ClusterCoordinator("127.0.0.1", 0).start()
        try:
            with socket.create_connection(coordinator.address, timeout=5.0) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                wire.send_message(wfile, wire.hello("spectator", "nosy"))
                reply = wire.recv_message(rfile)
            assert reply["status"] == "reject"
            assert "spectator" in reply["reason"]
        finally:
            coordinator.shutdown()

    def test_live_coordinator_rejects_version_skew(self):
        from repro.cluster import ClusterCoordinator

        coordinator = ClusterCoordinator("127.0.0.1", 0).start()
        try:
            greeting = wire.hello("worker", "time-traveller")
            greeting["version"] = wire.PROTOCOL_VERSION + 9
            with socket.create_connection(coordinator.address, timeout=5.0) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                wire.send_message(wfile, greeting)
                reply = wire.recv_message(rfile)
            assert reply["status"] == "reject"
            assert "version mismatch" in reply["reason"]
        finally:
            coordinator.shutdown()


# --------------------------------------------------------------------- hash ring


class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # blake2b of the key, not the salted builtin hash().
        assert stable_hash("region-1") == int.from_bytes(
            __import__("hashlib").blake2b(b"region-1", digest_size=8).digest(), "big"
        )

    def test_lookup_deterministic_across_instances(self):
        first, second = HashRing(), HashRing()
        for ring in (first, second):
            for node in ("1", "2", "3"):
                ring.add(node)
        keys = [f"key-{index}" for index in range(100)]
        assert [first.lookup(key) for key in keys] == [second.lookup(key) for key in keys]

    def test_remove_only_remaps_victims_keys(self):
        ring = HashRing()
        for node in ("1", "2", "3"):
            ring.add(node)
        keys = [f"region/{index}" for index in range(200)]
        before = {key: ring.lookup(key) for key in keys}
        assert set(before.values()) == {"1", "2", "3"}  # all shards used
        ring.remove("3")
        after = {key: ring.lookup(key) for key in keys}
        for key in keys:
            if before[key] != "3":
                assert after[key] == before[key]  # survivors keep their keys
            else:
                assert after[key] in {"1", "2"}

    def test_preference_lists_every_node_once_owner_first(self):
        ring = HashRing()
        for node in ("1", "2", "3", "4"):
            ring.add(node)
        for index in range(50):
            order = ring.preference(f"job-{index}")
            assert sorted(order) == ["1", "2", "3", "4"]
            assert order[0] == ring.lookup(f"job-{index}")

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.lookup("anything") is None
        assert ring.preference("anything") == []
        ring.remove("ghost")  # idempotent

    def test_add_is_idempotent(self):
        ring = HashRing(replicas=8)
        ring.add("1")
        points = list(ring._points)
        ring.add("1")
        assert ring._points == points


class TestWorkerDirectory:
    def test_register_touch_expire(self):
        directory = WorkerDirectory()
        info = directory.register("w1", "127.0.0.1:9", {"pid": 1})
        assert directory.alive_count() == 1
        time.sleep(0.05)
        assert [stale.worker_id for stale in directory.expired(0.01)] == [info.worker_id]
        directory.touch(info.worker_id)
        assert directory.expired(10.0) == []

    def test_mark_dead_is_first_writer_wins(self):
        directory = WorkerDirectory()
        info = directory.register("w1", "127.0.0.1:9", {})
        assert directory.mark_dead(info.worker_id, "connection lost")
        assert not directory.mark_dead(info.worker_id, "heartbeat expiry")
        assert directory.get(info.worker_id).death_reason == "connection lost"
        assert directory.alive_count() == 0
        assert directory.total_count() == 1


# ------------------------------------------------------------- fault injection


@pytest.fixture(scope="module")
def sleepy_language():
    """The throttle-able expression grammar, registered for the module."""
    language = GrammarLanguage(
        "cluster-sleepy",
        sleepy_grammar,
        tokenize=tokenize_expression,
        result_attribute="value",
        error_attribute=None,
    )
    register_language(language, replace=True)
    yield language
    unregister_language("cluster-sleepy")


@pytest.fixture(scope="module")
def reference_value(sleepy_language):
    """What every faulty run must still compute: the simulated-substrate value."""
    assert SLEEP_ENV not in os.environ and STALL_FILE_ENV not in os.environ
    result = Compiler("cluster-sleepy", machines=MACHINES).compile(SOURCE)
    return result.value


def _kill_first_busy_worker(pool: SocketsSubstrate, killed: list, deadline: float = 15.0):
    """Poll until some worker is evaluating a region, then SIGKILL its process."""
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        busy = pool.worker_ids(with_work=True)
        if busy and pool.kill_worker(busy[0]):
            killed.append(busy[0])
            return
        time.sleep(0.01)


class TestClusterFaultTolerance:
    def test_kill_worker_mid_compile_is_byte_identical(
        self, sleepy_language, reference_value, monkeypatch
    ):
        monkeypatch.setenv(SLEEP_ENV, "0.05")
        pool = SocketsSubstrate(workers=3, receive_timeout=TIMEOUT)
        killed: list = []
        try:
            pool.start()
            killer = threading.Thread(
                target=_kill_first_busy_worker, args=(pool, killed), daemon=True
            )
            killer.start()
            with Session(substrate=pool) as session:
                result = session.compile("cluster-sleepy", SOURCE, machines=MACHINES)
            killer.join(timeout=20.0)
            stats = pool.cluster_stats()
        finally:
            pool.shutdown()
        assert killed, "no worker was ever observed evaluating a region"
        assert result.value == reference_value
        assert stats.reassignments >= 1
        assert stats.jobs_failed == 0

    def test_job_timeout_retries_with_backoff(
        self, sleepy_language, reference_value, monkeypatch, tmp_path
    ):
        stall_file = tmp_path / "stall"
        stall_file.write_text("busy")
        monkeypatch.setenv(STALL_FILE_ENV, str(stall_file))
        pool = SocketsSubstrate(
            workers=2, receive_timeout=TIMEOUT, job_timeout=0.75, max_attempts=5
        )

        def release_after_first_timeout():
            limit = time.monotonic() + 20.0
            while time.monotonic() < limit:
                if pool.cluster_stats().timeout_retries >= 1:
                    break
                time.sleep(0.02)
            stall_file.unlink(missing_ok=True)

        try:
            pool.start()
            releaser = threading.Thread(target=release_after_first_timeout, daemon=True)
            releaser.start()
            with Session(substrate=pool) as session:
                result = session.compile("cluster-sleepy", SOURCE, machines=MACHINES)
            releaser.join(timeout=25.0)
            stats = pool.cluster_stats()
        finally:
            stall_file.unlink(missing_ok=True)
            pool.shutdown()
        assert result.value == reference_value
        assert stats.timeout_retries >= 1
        assert stats.jobs_failed == 0

    def test_heartbeat_expiry_detects_silent_worker(
        self, sleepy_language, reference_value, monkeypatch
    ):
        monkeypatch.setenv(SLEEP_ENV, "0.05")
        pool = SocketsSubstrate(
            workers=3,
            receive_timeout=TIMEOUT,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.5,
        )
        paused: list = []

        def pause_first_busy_worker():
            limit = time.monotonic() + 15.0
            while time.monotonic() < limit:
                busy = pool.worker_ids(with_work=True)
                if busy and pool.pause_worker(busy[0]):
                    paused.append(busy[0])
                    return
                time.sleep(0.01)

        try:
            pool.start()
            pauser = threading.Thread(target=pause_first_busy_worker, daemon=True)
            pauser.start()
            with Session(substrate=pool) as session:
                result = session.compile("cluster-sleepy", SOURCE, machines=MACHINES)
            pauser.join(timeout=20.0)
            stats = pool.cluster_stats()
        finally:
            # SIGKILL the stopped process so shutdown() does not wait out its
            # 5-second grace period (a SIGSTOPped worker cannot unwind).
            for worker_id in paused:
                pool.kill_worker(worker_id)
            pool.shutdown()
        assert paused, "no worker was ever observed evaluating a region"
        assert result.value == reference_value
        assert stats.heartbeat_timeouts >= 1
        assert stats.reassignments >= 1

    def test_speculative_reexecution_of_stragglers(
        self, sleepy_language, reference_value, monkeypatch
    ):
        monkeypatch.setenv(SLEEP_ENV, "0.1")
        pool = SocketsSubstrate(
            workers=3, receive_timeout=TIMEOUT, speculate_after=0.3
        )
        try:
            pool.start()
            with Session(substrate=pool) as session:
                result = session.compile("cluster-sleepy", SOURCE, machines=MACHINES)
            stats = pool.cluster_stats()
        finally:
            pool.shutdown()
        assert result.value == reference_value
        assert stats.speculative_attempts >= 1
        # Both twins ran to completion somewhere; the loser's outputs were dropped.
        assert stats.jobs_failed == 0


# -------------------------------------------------------------- cluster plumbing


class TestClusterPlumbing:
    def test_external_worker_joins_via_cli(self):
        """The documented multi-host path: an unmanaged coordinator plus a worker
        started by hand with ``python -m repro.cluster.worker --connect``."""
        pool = SocketsSubstrate(workers=0, manage_workers=False, receive_timeout=TIMEOUT)
        process = None
        try:
            pool.start()
            host, port = pool.address
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cluster.worker",
                 "--connect", f"{host}:{port}", "--name", "external-1"],
                env=_worker_environment(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            assert pool.wait_for_workers(1, timeout=30.0) >= 1
            reference = Compiler("exprlang").compile(SOURCE).value
            with Session(substrate=pool) as session:
                assert session.compile("exprlang", SOURCE).value == reference
        finally:
            pool.shutdown()
            if process is not None:
                # The shutdown frame asks the worker to exit; give it a moment.
                try:
                    assert process.wait(timeout=10.0) == 0
                finally:
                    if process.poll() is None:
                        process.kill()

    def test_bundles_ship_once_per_worker(self):
        pool = create_substrate("sockets", workers=2, receive_timeout=TIMEOUT)
        try:
            pool.start()
            with Session(substrate=pool) as session:
                values = [session.compile("exprlang", SOURCE).value for _ in range(4)]
                shipped = pool.cluster_stats().bundles_shipped
        finally:
            pool.shutdown()
        assert len(set(values)) == 1
        # Four compiles, one exprlang bundle, two shards: the name-keyed cache
        # ships the bundle to each worker at most once, ever — never per compile.
        assert 1 <= shipped <= 2

    def test_service_stats_surface_cluster_counters(self):
        from repro.service import CompilationJob

        pool = create_substrate("sockets", workers=2, receive_timeout=TIMEOUT)
        try:
            pool.start()
            with Session(substrate=pool) as session:
                with session.service(max_in_flight=2) as service:
                    service.compile_many(
                        [CompilationJob(language="exprlang", source=SOURCE, machines=2)]
                    )
                    stats = service.stats()
        finally:
            pool.shutdown()
        assert stats.cluster_workers >= 2
        assert stats.cluster_reassignments == 0
        summary = stats.summary()
        assert "cluster" in summary

    def test_substrate_requires_picklable_jobs(self):
        pool = create_substrate("sockets", workers=2, receive_timeout=TIMEOUT)
        try:
            pool.start()
            session = pool.session()

            def raw_body():
                yield  # pragma: no cover — rejected before first resume

            with pytest.raises(BackendError, match="picklable WorkerJob"):
                session.spawn(raw_body(), name="raw")
            session.close()
        finally:
            pool.shutdown()

    def test_shutdown_racing_worker_registration(self):
        """A substrate shut down while workers are still registering stops cleanly.

        ``wait_for_workers`` returns as soon as a worker is in the directory, which
        is before its connection is published; shutdown() used to find connections
        whose writer thread existed but had not been started and died joining them.
        """

        def register(address):
            try:
                with socket.create_connection(address, timeout=5.0) as sock:
                    wfile, rfile = sock.makefile("wb"), sock.makefile("rb")
                    wire.send_message(wfile, wire.hello("worker", "racer"))
                    while wire.recv_message(rfile) is not None:
                        pass  # welcome, shutdown ... until the coordinator hangs up
            except (OSError, wire.ProtocolError):
                pass

        for _ in range(25):
            before = set(threading.enumerate())
            pool = SocketsSubstrate(workers=0, manage_workers=False, receive_timeout=TIMEOUT)
            pool.start()
            racers = [
                threading.Thread(target=register, args=(pool.address,), daemon=True)
                for _ in range(3)
            ]
            for racer in racers:
                racer.start()
            assert pool.wait_for_workers(1, timeout=10.0) >= 1
            pool.shutdown()  # used to raise "cannot join thread before it is started"
            for racer in racers:
                racer.join(timeout=10.0)
                assert not racer.is_alive()
            # Every thread shutdown() joins — accept, monitor, one writer a
            # published connection — is really gone, not abandoned at a timeout.
            assert not [
                thread.name
                for thread in threading.enumerate()
                if thread not in before
                and thread.name.startswith(
                    ("repro-cluster-accept", "repro-cluster-monitor", "repro-cluster-writer")
                )
            ]

    def test_managed_substrate_starts_and_stops_back_to_back(self):
        """The managed fleet, real worker processes: up, straight down, all reaped."""
        for _ in range(20):
            pool = create_substrate("sockets", workers=2, receive_timeout=TIMEOUT)
            with pool:
                pass
            assert pool._local_workers
            assert all(worker.poll() is not None for worker in pool._local_workers)

    def test_too_few_workers_is_a_clear_error(self):
        pool = SocketsSubstrate(
            workers=2, receive_timeout=TIMEOUT, worker_startup_timeout=0.0
        )
        with pytest.raises(BackendError, match="local cluster workers"):
            pool.start()
        pool.shutdown()
