"""The persistent artifact store: codec, atomicity, corruption, gc, tiering.

The store's contract is "pure speed": damage of any kind is a quarantined miss
(never a wrong answer), concurrent writers race benignly through atomic
renames, and a fresh process mounting a populated store recompiles known
sources at warm speed — in the service layer, on documents/sessions, over the
HTTP front door, and for cluster bundle shipping.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import Compiler, Session
from repro.backends import create_substrate
from repro.backends.sockets import SocketsSubstrate
from repro.cluster.worker import ClusterWorker
from repro.exprlang.evaluator import random_expression_source
from repro.faults import FaultPlan, FaultRule, active
from repro.incremental.cache import (
    ArtifactCache,
    RegionArtifact,
    decode_artifact,
    encode_artifact,
)
from repro.incremental.document import Document
from repro.distributed.recording import RegionRecording
from repro.server import ServerConfig, serve_in_thread
from repro.service import CompilationJob, CompilationService
from repro.store import (
    ArtifactStore,
    BLOB_MAGIC,
    StoreError,
    content_digest,
    decode_blob,
    encode_blob,
    open_store,
)

EXPR_SOURCE = "let x = 3 in 1 + 2 * x ni"
KEY = "a" * 64  # fingerprint-shaped


def _recording(region_id: int = 1) -> RegionRecording:
    return RegionRecording(
        region_id=region_id,
        input_sigs={},
        sends=[],
        output_sigs={"left": b"\x01\x02"},
    )


# ------------------------------------------------------------------- blob codec


class TestBlobCodec:
    def test_round_trip(self):
        payload = b"some recorded boundary traffic"
        blob = encode_blob(payload)
        assert blob.startswith(BLOB_MAGIC)
        assert decode_blob(blob) == payload

    def test_empty_payload_round_trips(self):
        assert decode_blob(encode_blob(b"")) == b""

    def test_truncated_blob_names_the_gap(self):
        blob = encode_blob(b"x" * 100)
        with pytest.raises(ValueError, match="holds"):
            decode_blob(blob[:-3])

    def test_below_frame_minimum(self):
        with pytest.raises(ValueError, match="frame minimum"):
            decode_blob(b"RS")

    def test_foreign_magic(self):
        blob = b"NOTSTORE" + encode_blob(b"x")[len(BLOB_MAGIC):]
        with pytest.raises(ValueError, match="magic"):
            decode_blob(blob)

    def test_flipped_payload_bit_fails_the_trailer(self):
        blob = bytearray(encode_blob(b"y" * 64))
        blob[len(BLOB_MAGIC) + 8 + 10] ^= 0x01
        with pytest.raises(ValueError, match="integrity trailer"):
            decode_blob(bytes(blob))

    def test_content_digest_is_stable_hex(self):
        digest = content_digest(b"bundle bytes")
        assert digest == content_digest(b"bundle bytes")
        assert digest != content_digest(b"bundle bytes!")
        assert len(digest) == 40 and set(digest) <= set("0123456789abcdef")


# ------------------------------------------------------------------ store basics


class TestArtifactStore:
    def test_write_read_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.write("region", KEY, b"payload")
        assert store.read("region", KEY) == b"payload"
        assert store.contains("region", KEY)
        stats = store.stats()
        assert stats.hits == 1 and stats.writes == 1 and stats.corrupt == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.read("region", "b" * 64) is None
        assert store.stats().misses == 1

    def test_git_style_fanout_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", KEY, b"x")
        expected = os.path.join(
            str(tmp_path), "objects", "region", KEY[:2], KEY[2:]
        )
        assert store.path_of("region", KEY) == expected
        assert os.path.isfile(expected)

    def test_unsafe_names_are_caller_errors(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("", "../escape", "a/b", "nul\x00"):
            with pytest.raises(StoreError):
                store.path_of("region", bad)
        with pytest.raises(StoreError):
            store.write("no/slash", KEY, b"x")

    def test_delete_and_keys(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", "aa" + "0" * 62, b"1")
        store.write("region", "ab" + "0" * 62, b"2")
        assert sorted(store.keys("region")) == ["aa" + "0" * 62, "ab" + "0" * 62]
        assert store.delete("region", "aa" + "0" * 62)
        assert not store.delete("region", "aa" + "0" * 62)  # already gone
        assert list(store.keys("region")) == ["ab" + "0" * 62]

    def test_open_store_coercion(self, tmp_path):
        assert open_store(None) is None
        store = ArtifactStore(tmp_path)
        assert open_store(store) is store
        mounted = open_store(str(tmp_path / "sub"))
        assert isinstance(mounted, ArtifactStore)

    def test_last_write_wins_same_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", KEY, b"first")
        store.write("region", KEY, b"second")
        assert store.read("region", KEY) == b"second"


# ----------------------------------------------------------- damage = miss, only


class TestCorruption:
    def _write_one(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", KEY, b"precious recording" * 20)
        return store, store.path_of("region", KEY)

    def _quarantined(self, tmp_path):
        return os.listdir(os.path.join(str(tmp_path), "quarantine"))

    def test_bit_flip_reads_as_quarantined_miss(self, tmp_path):
        store, path = self._write_one(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(30)
            byte = handle.read(1)
            handle.seek(30)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert store.read("region", KEY) is None
        assert not os.path.exists(path)  # moved out of the object tree
        assert len(self._quarantined(tmp_path)) == 1
        stats = store.stats()
        assert stats.corrupt == 1 and stats.misses == 1 and stats.hits == 0

    def test_truncated_blob_reads_as_quarantined_miss(self, tmp_path):
        store, path = self._write_one(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        assert store.read("region", KEY) is None
        assert len(self._quarantined(tmp_path)) == 1
        assert store.stats().corrupt == 1

    def test_zero_length_blob_reads_as_quarantined_miss(self, tmp_path):
        store, path = self._write_one(tmp_path)
        with open(path, "wb"):
            pass
        assert store.read("region", KEY) is None
        assert len(self._quarantined(tmp_path)) == 1
        assert store.stats().corrupt == 1

    def test_verified_keys_skips_and_quarantines_damage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("bundle", "aa" + "0" * 38, b"good")
        store.write("bundle", "ab" + "0" * 38, b"doomed")
        with open(store.path_of("bundle", "ab" + "0" * 38), "wb") as handle:
            handle.write(b"garbage that is long enough to open but not verify!!")
        assert store.verified_keys("bundle") == ["aa" + "0" * 38]
        assert len(self._quarantined(tmp_path)) == 1


# --------------------------------------------------------------------------- gc


class TestGC:
    def test_gc_respects_budget_evicting_lru_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [f"{index:02d}" + "0" * 62 for index in range(6)]
        payload = b"z" * 512
        for index, key in enumerate(keys):
            store.write("region", key, payload)
            mtime = time.time() - 1000 + index  # deterministic LRU order
            os.utime(store.path_of("region", key), (mtime, mtime))
        blob_size = os.path.getsize(store.path_of("region", keys[0]))
        report = store.gc(max_bytes=3 * blob_size)
        assert report.evicted == 3
        assert report.bytes_after <= 3 * blob_size
        # Oldest three gone, newest three kept.
        assert all(store.read("region", key) is None for key in keys[:3])
        assert all(store.read("region", key) is not None for key in keys[3:])
        assert store.stats().evictions == 3

    def test_read_refreshes_the_lru_clock(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [f"{index:02d}" + "0" * 62 for index in range(3)]
        for index, key in enumerate(keys):
            store.write("region", key, b"z" * 256)
            mtime = time.time() - 1000 + index
            os.utime(store.path_of("region", key), (mtime, mtime))
        assert store.read("region", keys[0]) is not None  # bumps mtime to now
        blob = os.path.getsize(store.path_of("region", keys[0]))
        store.gc(max_bytes=1 * blob)
        assert store.read("region", keys[0]) is not None  # survived: recently read
        assert store.read("region", keys[1]) is None

    def test_gc_never_evicts_pinned_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        old = "aa" + "0" * 62
        store.write("region", old, b"z" * 256)
        os.utime(store.path_of("region", old), (time.time() - 1000,) * 2)
        store.write("region", "bb" + "0" * 62, b"z" * 256)
        with store.pin("region", old):
            report = store.gc(max_bytes=0)
            assert report.pinned_kept == 1
            assert store.read("region", old) is not None
        # Unpinned now: the same budget evicts it.
        store.gc(max_bytes=0)
        assert store.read("region", old) is None

    def test_write_triggers_gc_over_budget(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1024)
        for index in range(8):
            store.write("region", f"{index:02d}" + "0" * 62, b"z" * 400)
        assert store.size_bytes() <= 1024
        assert store.stats().gc_runs >= 1

    def test_unbudgeted_gc_is_a_noop_scan(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", KEY, b"payload")
        report = store.gc()
        assert report.evicted == 0 and report.examined == 1
        assert store.read("region", KEY) == b"payload"


# ------------------------------------------------------- concurrent writer safety


_WRITER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.store import ArtifactStore
store = ArtifactStore({root!r})
payload = ({tag!r} * 64).encode()
for _ in range(150):
    store.write("region", {key!r}, payload)
"""


class TestConcurrentWriters:
    def test_same_key_multiprocess_race_has_no_torn_blobs(self, tmp_path):
        """N processes hammer one key while a reader verifies continuously.

        Every read must verify cleanly and decode to one writer's complete
        payload — atomic rename means last-write-wins, never interleaved bytes.
        """
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        tags = ["A", "B", "C"]
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT.format(
                    src=src, root=str(tmp_path), tag=tag, key=KEY
                )],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            for tag in tags
        ]
        reader = ArtifactStore(tmp_path)
        complete = {(tag * 64).encode() for tag in tags}
        observed = set()
        deadline = time.monotonic() + 60.0
        while any(child.poll() is None for child in children):
            assert time.monotonic() < deadline, "writer children wedged"
            payload = reader.read("region", KEY)
            if payload is not None:
                assert payload in complete, "torn or foreign payload surfaced"
                observed.add(payload)
        for child in children:
            stderr = child.communicate()[1]
            assert child.returncode == 0, stderr.decode()
        assert reader.read("region", KEY) in complete
        assert reader.stats().corrupt == 0
        assert observed  # the reader actually raced the writers

    def test_threaded_writers_same_store_object(self, tmp_path):
        store = ArtifactStore(tmp_path)
        errors = []

        def hammer(tag):
            try:
                for _ in range(100):
                    store.write("region", KEY, tag.encode() * 32)
            except Exception as exc:  # pragma: no cover — the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in "XYZ"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.read("region", KEY) in {t.encode() * 32 for t in "XYZ"}


# ------------------------------------------------------------------ fault points


class TestStoreFaults:
    def test_read_error_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", KEY, b"payload")
        plan = FaultPlan(seed=1, rules=[FaultRule(point="store.read", action="error")])
        with active(plan):
            assert store.read("region", KEY) is None
        assert store.read("region", KEY) == b"payload"  # intact afterwards

    def test_read_corruption_is_a_quarantined_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", KEY, b"payload")
        plan = FaultPlan(
            seed=1, rules=[FaultRule(point="store.read", action="corrupt")]
        )
        with active(plan):
            assert store.read("region", KEY) is None
        assert store.stats().corrupt == 1

    def test_write_error_drops_the_write(self, tmp_path):
        store = ArtifactStore(tmp_path)
        plan = FaultPlan(
            seed=1, rules=[FaultRule(point="store.write", action="error")]
        )
        with active(plan):
            assert not store.write("region", KEY, b"payload")
        assert not store.contains("region", KEY)
        assert store.stats().write_errors == 1

    def test_write_corruption_is_detected_by_the_next_read(self, tmp_path):
        """The injected damage lands *after* the trailer is computed, so a
        corrupted write can never verify cleanly and return wrong bytes."""
        store = ArtifactStore(tmp_path)
        plan = FaultPlan(
            seed=1, rules=[FaultRule(point="store.write", action="corrupt")]
        )
        with active(plan):
            assert store.write("region", KEY, b"payload")
        assert store.read("region", KEY) is None
        assert store.stats().corrupt == 1


# ------------------------------------------------------------------ cache tiering


class TestCacheTiering:
    def test_artifact_codec_round_trip(self):
        artifact = RegionArtifact(KEY, _recording(), None)
        decoded = decode_artifact(KEY, encode_artifact(artifact))
        assert decoded is not None
        assert decoded.key == KEY
        assert decoded.recording.output_sigs == {"left": b"\x01\x02"}

    def test_decode_rejects_key_mismatch_and_garbage(self):
        artifact = RegionArtifact(KEY, _recording(), None)
        assert decode_artifact("b" * 64, encode_artifact(artifact)) is None
        assert decode_artifact(KEY, b"not a pickle") is None

    def test_write_behind_then_read_through_in_a_fresh_cache(self, tmp_path):
        first = ArtifactCache(store=str(tmp_path))
        first.put(RegionArtifact(KEY, _recording(), None))
        assert first.flush()
        first.close()

        second = ArtifactCache(store=str(tmp_path))
        assert KEY not in second  # memory tier is genuinely cold
        artifact = second.get(KEY)
        assert artifact is not None and artifact.key == KEY
        assert second.store_hits == 1 and second.hits == 1
        assert KEY in second  # promoted into the memory LRU
        second.get(KEY)
        assert second.hits == 2 and second.store_hits == 1  # served from memory

    def test_store_miss_counts_both_tiers(self, tmp_path):
        cache = ArtifactCache(store=str(tmp_path))
        assert cache.get("c" * 64) is None
        assert cache.misses == 1 and cache.store_misses == 1

    def test_clear_keeps_the_persistent_tier(self, tmp_path):
        cache = ArtifactCache(store=str(tmp_path))
        cache.put(RegionArtifact(KEY, _recording(), None))
        cache.flush()
        cache.clear()
        assert cache.get(KEY) is not None  # read through, again
        assert cache.store_hits == 1

    def test_undecodable_store_payload_is_deleted_and_missed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write("region", KEY, b"verifies fine, but is not an artifact")
        cache = ArtifactCache(store=store)
        assert cache.get(KEY) is None
        assert not store.contains("region", KEY)  # format drift: slot freed

    def test_cache_without_store_flushes_trivially(self):
        cache = ArtifactCache()
        assert cache.flush()
        assert cache.store is None


# ----------------------------------------------------- warm starts, all the doors


class TestWarmStartPlumbing:
    def _compile_documents(self, tmp_path, source=EXPR_SOURCE):
        with Session(backend="threads", store=str(tmp_path)) as session:
            result = session.open("exprlang", source).recompile()
            session.artifact_cache.flush()
        return result

    def test_session_warm_starts_across_lives(self, tmp_path):
        first = self._compile_documents(tmp_path)
        with Session(backend="threads", store=str(tmp_path)) as session:
            doc = session.open("exprlang", EXPR_SOURCE)
            second = doc.recompile()
            cache = session.artifact_cache
            assert cache.store_hits > 0
        assert second.value == first.value

    def test_closed_sessions_leave_no_store_writer(self, tmp_path):
        def writers():
            return {
                thread for thread in threading.enumerate()
                if thread.name == "repro-artifact-store-writer"
            }

        source = random_expression_source(120, seed=5, nesting=5)
        before = writers()
        for _ in range(5):
            with Session(backend="threads", store=str(tmp_path)) as session:
                doc = session.open("exprlang", source, machines=4)
                doc.recompile()
        # No gc.collect(): closing the session must retire its writer itself.
        assert writers() - before == set()
        with Session(backend="threads", store=str(tmp_path)) as session:
            report = session.open("exprlang", source, machines=4).recompile().incremental
            # Every region but the root (which always re-evaluates) replays from
            # what the closed sessions flushed to the store.
            assert report.regions_total > 1
            assert report.regions_reused == report.regions_total - 1
            assert session.artifact_cache.store_hits == report.regions_reused

    def test_service_closes_only_the_cache_it_created(self, tmp_path):
        job = CompilationJob(language="exprlang", source=EXPR_SOURCE)
        borrowed = ArtifactCache(store=str(tmp_path))
        with create_substrate("threads") as substrate:
            owned = CompilationService(substrate, store=str(tmp_path))
            with owned:
                owned.submit(job).result(60)
            assert owned._artifact_cache._writer is None
            with CompilationService(substrate, artifact_cache=borrowed) as service:
                service.submit(job).result(60)
            assert borrowed._writer is not None and borrowed._writer.is_alive()
        borrowed.close()
        assert borrowed._writer is None

    def test_session_open_store_overrides_session_cache(self, tmp_path):
        self._compile_documents(tmp_path)
        with Session(backend="threads") as session:  # session itself storeless
            doc = session.open("exprlang", EXPR_SOURCE, store=str(tmp_path))
            doc.recompile()
            assert doc.cache.store_hits > 0
            assert session._artifact_cache is None or (
                session._artifact_cache is not doc.cache
            )

    def test_document_closes_only_the_cache_it_created(self, tmp_path):
        source = random_expression_source(120, seed=5, nesting=5)
        with Document("exprlang", source, machines=4, store=str(tmp_path)) as doc:
            writer = doc.cache._writer
            assert writer is not None and writer.is_alive()
            built = doc.recompile()
        # No flush by hand, no gc.collect(): close() wrote every artifact and
        # retired the writer thread itself.
        assert not writer.is_alive() and doc.cache._writer is None
        fresh = Document("exprlang", source, machines=4, store=str(tmp_path))
        try:
            again = fresh.recompile()
            assert again.value == built.value
            assert again.incremental.regions_reused == again.incremental.regions_total - 1
            assert fresh.cache.store_hits == again.incremental.regions_reused > 0
        finally:
            fresh.close()
        borrowed = ArtifactCache(store=str(tmp_path))
        try:
            Document("exprlang", source, cache=borrowed).close()
            assert borrowed._writer is not None and borrowed._writer.is_alive()
        finally:
            borrowed.close()

    def test_document_rejects_cache_and_store_together(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Document(
                "exprlang",
                EXPR_SOURCE,
                cache=ArtifactCache(),
                store=str(tmp_path),
            )

    def test_service_stats_expose_the_store_tier(self, tmp_path):
        job = CompilationJob(language="exprlang", source=EXPR_SOURCE)

        substrate = create_substrate("threads")
        substrate.start()
        try:
            service = CompilationService(substrate, store=str(tmp_path))
            service.start()
            service.submit(job).result(60)
            service._artifact_cache.flush()
            first = service.stats()
            assert first.store_writes > 0 and first.store_hits == 0
            payload = first.to_dict()
            for field in (
                "store_hits", "store_misses", "store_writes", "store_corrupt",
                "store_evictions", "store_bytes_read", "store_bytes_written",
            ):
                assert field in payload
            service.close()
        finally:
            substrate.shutdown()

        substrate = create_substrate("threads")
        substrate.start()
        try:
            service = CompilationService(substrate, store=str(tmp_path))
            service.start()
            service.submit(job).result(60)
            stats = service.stats()
            # The warm-start proof: a brand-new process-shaped service replayed
            # regions recorded by its predecessor.
            assert stats.store_hits > 0
            assert "store" in stats.summary()
            service.close()
        finally:
            substrate.shutdown()

    def test_service_rejects_store_with_borrowed_cache(self, tmp_path):
        substrate = create_substrate("threads")
        substrate.start()
        try:
            with pytest.raises(ValueError, match="sharing"):
                CompilationService(
                    substrate, artifact_cache=ArtifactCache(), store=str(tmp_path)
                )
        finally:
            substrate.shutdown()

    def test_server_restart_reports_store_hits(self, tmp_path):
        request = {"language": "exprlang", "source": EXPR_SOURCE}
        values = []
        for life in range(2):
            handle = serve_in_thread(
                ServerConfig(port=0, backend="threads", store=str(tmp_path))
            )
            try:
                conn = http.client.HTTPConnection(
                    handle.host, handle.port, timeout=30.0
                )
                conn.request(
                    "POST", "/compile", body=json.dumps(request),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                values.append(body["value"])
                conn.request("GET", "/stats")
                stats = json.loads(conn.getresponse().read())
                if life == 1:
                    assert stats["service"]["store_hits"] > 0
                conn.close()
            finally:
                handle.stop()
        assert values[0] == values[1]


# ------------------------------------------------------------- cluster bundles


def _start_cluster(tmp_path, workers=1):
    substrate = SocketsSubstrate(
        workers=0, receive_timeout=60.0, manage_workers=False
    )
    substrate.start()
    host, port = substrate.address
    lives = []
    for index in range(workers):
        worker = ClusterWorker(
            host, port, name=f"stored-{index}", store=str(tmp_path)
        )
        worker.connect()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        lives.append((worker, thread))
    substrate.wait_for_workers(workers, timeout=30.0)
    return substrate, lives


class TestClusterBundleStore:
    def test_bundles_resolve_from_worker_store_after_restart(self, tmp_path):
        substrate, _ = _start_cluster(tmp_path)
        try:
            first = Compiler("exprlang", machines=4, substrate=substrate).compile(
                EXPR_SOURCE
            )
            stats = substrate.cluster_stats()
            assert stats.bundles_shipped > 0 and stats.bundles_from_store == 0
        finally:
            substrate.shutdown()

        # A new fleet life on the same store: the worker advertises the bundle
        # digest at handshake and the coordinator ships a reference, not bytes.
        substrate, _ = _start_cluster(tmp_path)
        try:
            second = Compiler("exprlang", machines=4, substrate=substrate).compile(
                EXPR_SOURCE
            )
            stats = substrate.cluster_stats()
            assert stats.bundles_from_store > 0
            assert stats.bundles_shipped == 0
            assert stats.bundle_misses == 0
        finally:
            substrate.shutdown()
        assert second.value == first.value

    def test_bundle_miss_recovers_by_reshipping_bytes(self, tmp_path):
        substrate, _ = _start_cluster(tmp_path)
        try:
            first = Compiler("exprlang", machines=4, substrate=substrate).compile(
                EXPR_SOURCE
            )
        finally:
            substrate.shutdown()

        substrate, _ = _start_cluster(tmp_path)
        try:
            # Sabotage: the worker advertised its stored digests at handshake,
            # but the blobs vanish before the first job arrives (eviction race).
            saboteur = ArtifactStore(tmp_path)
            digests = list(saboteur.keys("bundle"))
            assert digests
            for digest in digests:
                saboteur.delete("bundle", digest)
            second = Compiler("exprlang", machines=4, substrate=substrate).compile(
                EXPR_SOURCE
            )
            stats = substrate.cluster_stats()
            assert stats.bundle_misses > 0      # the reference came back unmet
            assert stats.bundles_shipped > 0    # ...and real bytes re-shipped
        finally:
            substrate.shutdown()
        assert second.value == first.value
