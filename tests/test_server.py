"""The HTTP front door: wire contract, admission, coalescing, sessions, drain.

Unit tests drive the policy pieces (token buckets, the pending bound, the
coalescer, the document store, the router) directly; integration tests stand up
a real loopback server on a background event-loop thread and speak HTTP/1.1 to
it with stdlib ``http.client``, exactly as an external client would.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import re
import threading
import time

import pytest

from repro.api.language import Language, get_language, register_language, \
    unregister_language
from repro.server import (
    AdmissionController,
    AdmissionError,
    Coalescer,
    CompileServer,
    DocumentLimitError,
    DocumentStore,
    RouteError,
    Router,
    SchemaError,
    ServerConfig,
    TokenBucket,
    UnknownDocumentError,
    content_key,
    serve_in_thread,
)
from repro.server.schemas import CompileRequest, EditRequest, OpenRequest
from repro.service import CompilationJob, CompilationService

EXPR_SOURCE = "let x = 3 in 1 + 2 * x ni"

PASCAL_OK = """\
program p;
var i : integer;
begin
  i := 1;
  i := i + 2
end.
"""

#: Undeclared identifier: compiles (HTTP 200) but with a non-empty error list.
PASCAL_BAD = "program p; begin x := 1 end."


# -------------------------------------------------------------------- unit: quota


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, now=clock[0])
        assert all(bucket.acquire(clock[0]) for _ in range(3))
        assert not bucket.acquire(clock[0])
        assert bucket.retry_after(clock[0]) == pytest.approx(0.5)
        clock[0] = 0.5  # one token refilled
        assert bucket.acquire(clock[0])
        assert not bucket.acquire(clock[0])

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        assert bucket.retry_after(1000.0) == 0.0
        assert bucket.acquire(1000.0) and bucket.acquire(1000.0)
        assert not bucket.acquire(1000.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0, now=0.0)


class TestAdmissionController:
    def _controller(self, **kwargs):
        clock = [0.0]
        controller = AdmissionController(clock=lambda: clock[0], **kwargs)
        return controller, clock

    def test_quota_exhaustion_rejects_with_retry_after(self):
        controller, clock = self._controller(
            quota_rate=1.0, quota_burst=2.0, max_pending=10
        )
        assert controller.admit("alice") is True
        controller.release()
        assert controller.admit("alice") is True
        controller.release()
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit("alice")
        assert excinfo.value.reason == "quota"
        assert excinfo.value.retry_after > 0
        # Other tenants have their own buckets.
        assert controller.admit("bob") is True
        controller.release()
        # Time refills alice.
        clock[0] = 2.0
        assert controller.admit("alice") is True
        controller.release()
        assert controller.rejected_quota == 1

    def test_pending_bound_rejects_queue_full(self):
        controller, _ = self._controller(
            quota_rate=1000.0, quota_burst=1000.0, max_pending=2,
            queued_threshold=1,
        )
        assert controller.admit("t") is True      # pending 1, straight in
        assert controller.admit("t") is False     # pending 2, queued
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit("t")
        assert excinfo.value.reason == "queue"
        assert excinfo.value.retry_after > 0
        assert controller.rejected_queue == 1
        assert controller.queued == 1
        controller.release(0.1)
        assert controller.admit("t") is False     # a slot freed up
        controller.release(0.1)
        controller.release(0.1)
        assert controller.pending == 0
        assert controller.peak_pending == 2

    def test_snapshot_is_json_safe(self):
        controller, _ = self._controller()
        controller.admit("t")
        json.dumps(controller.snapshot())


# --------------------------------------------------------------- unit: coalescer


class TestCoalescer:
    def _run(self, coro):
        return asyncio.new_event_loop().run_until_complete(coro)

    def test_concurrent_identical_requests_share_one_compute(self):
        async def scenario():
            coalescer = Coalescer(capacity=4)
            computed = []
            gate = asyncio.Event()

            async def compute():
                computed.append(1)
                await gate.wait()
                return "result"

            tasks = [
                asyncio.ensure_future(coalescer.get_or_compute("k", compute))
                for _ in range(5)
            ]
            await asyncio.sleep(0)  # all five reach the coalescer
            gate.set()
            outcomes = await asyncio.gather(*tasks)
            late = await coalescer.get_or_compute("k", compute)
            return coalescer, computed, outcomes, late

        coalescer, computed, outcomes, late = self._run(scenario())
        assert computed == [1]
        assert [value for value, _ in outcomes] == ["result"] * 5
        assert sorted(how for _, how in outcomes) == ["joined"] * 4 + ["leader"]
        assert late == ("result", "cached")
        assert coalescer.leaders == 1
        assert coalescer.coalesced == 5

    def test_failures_propagate_but_are_not_cached(self):
        async def scenario():
            coalescer = Coalescer(capacity=4)
            attempts = []

            async def failing():
                attempts.append(1)
                await asyncio.sleep(0.01)
                raise RuntimeError("boom")

            tasks = [
                asyncio.ensure_future(coalescer.get_or_compute("k", failing))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            failures = await asyncio.gather(*tasks, return_exceptions=True)

            async def succeeding():
                attempts.append(2)
                return "fine"

            value, how = await coalescer.get_or_compute("k", succeeding)
            return attempts, failures, value, how

        attempts, failures, value, how = self._run(scenario())
        assert attempts == [1, 2]  # the failure was shared, then retried fresh
        assert all(isinstance(f, RuntimeError) for f in failures)
        assert (value, how) == ("fine", "leader")

    def test_cache_result_predicate_and_capacity(self):
        async def scenario():
            coalescer = Coalescer(capacity=2)
            for key in ("a", "b", "c"):
                await coalescer.get_or_compute(key, self._value(key))
            # "a" was evicted by capacity; "c" is still cached.
            assert not coalescer.peek("a")
            assert coalescer.peek("c")
            await coalescer.get_or_compute(
                "reject", self._value("r"), cache_result=lambda _: False
            )
            assert not coalescer.peek("reject")
            return coalescer

        coalescer = self._run(scenario())
        json.dumps(coalescer.snapshot())

    @staticmethod
    def _value(value):
        async def compute():
            return value

        return compute

    def test_content_key_sensitivity(self):
        base = content_key("pascal", "program p;", 2, "combined")
        assert base == content_key("pascal", "program p;", 2, "combined")
        assert base != content_key("pascal", "program p;", 4, "combined")
        assert base != content_key("exprlang", "program p;", 2, "combined")
        # Length framing: ("ab", "c") must not collide with ("a", "bc").
        assert content_key("ab", "c") != content_key("a", "bc")


# ----------------------------------------------------------- unit: document store


class TestDocumentStore:
    def test_bound_refuses_then_frees_on_close(self):
        store = DocumentStore(max_documents=2, idle_ttl=100.0, clock=lambda: 0.0)
        first = store.open(lambda: object(), "t")
        store.open(lambda: object(), "t")
        with pytest.raises(DocumentLimitError):
            store.open(lambda: object(), "t")
        assert store.refused == 1
        store.close(first.sid)
        store.open(lambda: object(), "t")
        assert len(store) == 2

    def test_idle_eviction_with_fake_clock(self):
        clock = [0.0]
        store = DocumentStore(max_documents=8, idle_ttl=10.0, clock=lambda: clock[0])
        session = store.open(lambda: object(), "t")
        clock[0] = 5.0
        assert store.get(session.sid) is session  # touch resets the idle clock
        clock[0] = 14.0
        assert store.evict_idle() == 0            # only 9s idle since the touch
        clock[0] = 16.0
        assert store.evict_idle() == 1
        with pytest.raises(UnknownDocumentError):
            store.get(session.sid)
        assert store.evicted == 1

    def test_full_store_of_idle_sessions_admits_new_ones(self):
        clock = [0.0]
        store = DocumentStore(max_documents=2, idle_ttl=10.0, clock=lambda: clock[0])
        store.open(lambda: object(), "t")
        store.open(lambda: object(), "t")
        clock[0] = 60.0
        # open() sweeps the expired sessions instead of refusing.
        store.open(lambda: object(), "t")
        assert store.evicted == 2 and store.refused == 0

    def test_locked_session_is_never_evicted(self):
        clock = [0.0]
        store = DocumentStore(max_documents=2, idle_ttl=1.0, clock=lambda: clock[0])

        async def scenario():
            # Opened inside the loop, as the server does (asyncio primitives
            # bind to the running loop on older Pythons).
            session = store.open(lambda: object(), "t")
            async with session.lock:
                clock[0] = 100.0
                assert store.evict_idle() == 0
            assert store.evict_idle() == 1

        asyncio.new_event_loop().run_until_complete(scenario())


# ------------------------------------------------------------------ unit: router


class TestRouter:
    def test_match_and_params(self):
        router = Router()
        router.add("POST", "/documents/{sid}/edit", "edit")
        router.add("GET", "/stats", "stats")
        handler, params = router.resolve("POST", "/documents/d1-x/edit")
        assert handler == "edit" and params == {"sid": "d1-x"}
        assert router.resolve("GET", "/stats") == ("stats", {})

    def test_404_vs_405(self):
        router = Router()
        router.add("POST", "/compile", "c")
        with pytest.raises(RouteError) as excinfo:
            router.resolve("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(RouteError) as excinfo:
            router.resolve("GET", "/compile")
        assert excinfo.value.status == 405
        assert excinfo.value.allowed == ("POST",)

    def test_duplicate_route_rejected(self):
        router = Router()
        router.add("POST", "/compile", "a")
        router.add("GET", "/compile", "b")
        with pytest.raises(ValueError):
            router.add("POST", "/compile", "c")


# ------------------------------------------------------------------ unit: schemas


class TestSchemas:
    def test_compile_request_validation(self):
        request = CompileRequest.from_payload(
            {"language": "exprlang", "source": "1", "machines": 4, "tenant": "t"}
        )
        assert request.machines == 4 and request.tenant == "t"
        for bad in (
            None,
            [],
            {"language": "exprlang"},
            {"source": "1"},
            {"language": 3, "source": "1"},
            {"language": "e", "source": "1", "machines": "two"},
            {"language": "e", "source": "1", "machines": True},
            {"language": "e", "source": "1", "machines": 0},
            {"language": "e", "source": "1", "evaluator": "quantum"},
        ):
            with pytest.raises(SchemaError):
                CompileRequest.from_payload(bad)

    def test_edit_request_validation(self):
        request = EditRequest.from_payload({"edits": [[0, 2, "ab"], [5, 5, ""]]})
        assert request.edits == ((0, 2, "ab"), (5, 5, ""))
        for bad in (
            {"edits": []},
            {"edits": [[0, 2]]},
            {"edits": [[2, 0, "x"]]},
            {"edits": [[-1, 0, "x"]]},
            {"edits": [[0, 1, 7]]},
            {"edits": "0,1,x"},
        ):
            with pytest.raises(SchemaError):
                EditRequest.from_payload(bad)

    def test_open_request_defaults(self):
        request = OpenRequest.from_payload({"language": "pascal", "source": "x"})
        assert request.machines == 2 and request.tenant == "anonymous"


# --------------------------------------------------------------- integration kit


class _Client:
    """A keep-alive HTTP/1.1 client over one stdlib connection."""

    def __init__(self, handle, timeout=30.0):
        self.conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=timeout
        )

    def request(self, method, path, payload=None, headers=None):
        body = json.dumps(payload) if payload is not None else None
        send_headers = dict(headers or {})
        if body:
            send_headers.setdefault("Content-Type", "application/json")
        self.conn.request(method, path, body=body, headers=send_headers)
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, raw, dict(response.getheaders())

    def json(self, method, path, payload=None, headers=None):
        status, raw, headers = self.request(method, path, payload, headers)
        return status, json.loads(raw), headers

    def close(self):
        self.conn.close()


@pytest.fixture
def server_factory():
    handles = []

    def factory(**overrides):
        defaults = dict(port=0, backend="threads", idle_ttl=60.0)
        defaults.update(overrides)
        handle = serve_in_thread(ServerConfig(**defaults))
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        handle.stop()


class _SlowPascal(Language):
    """Pascal with a front-end sleep, so concurrent submissions overlap in flight."""

    def __init__(self, name, delay):
        self.name = name
        self.delay = delay
        self._inner = get_language("pascal")

    def grammar(self):
        return self._inner.grammar()

    def parse(self, source):
        time.sleep(self.delay)
        return self._inner.parse(source)

    def result(self, report):
        return self._inner.result(report)

    def errors(self, report):
        return self._inner.errors(report)


@pytest.fixture
def slow_pascal():
    language = _SlowPascal("slowpascal-test", delay=0.25)
    register_language(language, replace=True)
    yield language
    unregister_language(language.name)


# ------------------------------------------------------------------- integration


class TestHttpEndpoints:
    def test_one_shot_compile_and_health(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        status, body, _ = client.json("GET", "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, body, headers = client.json(
            "POST", "/compile", {"language": "exprlang", "source": EXPR_SOURCE}
        )
        assert status == 200 and body["ok"] and body["value"] == 7
        assert headers["X-Repro-Coalesced"] == "leader"
        status, body, _ = client.json(
            "POST", "/compile", {"language": "pascal", "source": PASCAL_OK,
                                 "machines": 4}
        )
        assert status == 200 and body["ok"] and "_main" in body["value"]
        client.close()

    def test_wire_errors(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        status, body, _ = client.json(
            "POST", "/compile", {"language": "klingon", "source": "x"}
        )
        assert status == 400 and "klingon" in body["error"]
        status, body, _ = client.json("POST", "/compile", {"language": "exprlang"})
        assert status == 400 and "source" in body["error"]
        # Parse errors are a 400 too, with the exception class named.
        status, body, _ = client.json(
            "POST", "/compile", {"language": "exprlang", "source": "let let let"}
        )
        assert status == 400 and "Error" in body["error"]
        status, body, _ = client.json("GET", "/no/such/route")
        assert status == 404
        status, _, headers = client.json("GET", "/compile")
        assert status == 405 and headers["Allow"] == "POST"
        # Non-JSON body.
        client.conn.request("POST", "/compile", body=b"not json",
                            headers={"Content-Type": "application/json"})
        response = client.conn.getresponse()
        assert response.status == 400
        response.read()
        client.close()

    def test_document_editing_session_reuses_regions(self, server_factory):
        from repro.pascal.programs import generate_program

        handle = server_factory()
        client = _Client(handle)
        # Multiple procedures, so the decomposition has regions the edit misses.
        source = generate_program(procedures=6, statements_per_procedure=3, seed=7)
        status, body, _ = client.json(
            "POST", "/documents",
            {"language": "pascal", "source": source, "machines": 4},
        )
        assert status == 201
        sid = body["document"]
        status, cold, _ = client.json("POST", f"/documents/{sid}/recompile")
        assert status == 200 and cold["ok"]
        assert cold["incremental"]["frontend"] == "cold"
        # A one-digit constant tweak in the last assignment statement.
        match = list(re.finditer(r":= (\d)[;\n]", source))[-1]
        replacement = "9" if match.group(1) != "9" else "8"
        status, body, _ = client.json(
            "POST", f"/documents/{sid}/edit",
            {"edits": [[match.start(1), match.end(1), replacement]]},
        )
        assert status == 200 and body["edits_applied"] == 1
        status, warm, _ = client.json("POST", f"/documents/{sid}/recompile")
        assert status == 200 and warm["ok"]
        assert warm["incremental"]["frontend"] in ("splice", "full")
        assert warm["incremental"]["regions_reused"] >= 1
        assert warm["value"] != cold["value"]
        status, body, _ = client.json("DELETE", f"/documents/{sid}")
        assert status == 200 and body["closed"]
        status, body, _ = client.json("POST", f"/documents/{sid}/recompile")
        assert status == 404
        client.close()

    def test_edit_out_of_bounds_is_schema_error(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        _, body, _ = client.json(
            "POST", "/documents", {"language": "exprlang", "source": EXPR_SOURCE}
        )
        sid = body["document"]
        status, body, _ = client.json(
            "POST", f"/documents/{sid}/edit", {"edits": [[0, 10_000, "x"]]}
        )
        assert status == 400 and "out of bounds" in body["error"]
        client.close()


class TestAdmissionOverHttp:
    def test_quota_exhaustion_yields_429_with_retry_after(self, server_factory):
        handle = server_factory(quota_rate=0.5, quota_burst=2.0)
        client = _Client(handle)
        payload = {"language": "exprlang", "source": EXPR_SOURCE, "tenant": "greedy"}
        for index in range(2):
            # Distinct sources defeat coalescing, so each submission is admitted.
            body = dict(payload, source=f"{index} + {index}")
            status, _, _ = client.json("POST", "/compile", body)
            assert status == 200
        status, body, headers = client.json(
            "POST", "/compile", dict(payload, source="9 + 9")
        )
        assert status == 429
        assert body["reason"] == "quota"
        assert int(headers["Retry-After"]) >= 1
        # Another tenant is unaffected.
        status, _, _ = client.json(
            "POST", "/compile",
            {"language": "exprlang", "source": "8 + 8", "tenant": "patient"},
        )
        assert status == 200
        stats = client.json("GET", "/stats")[1]
        assert stats["service"]["jobs_rejected"] == 1
        assert stats["admission"]["rejected_quota"] == 1
        client.close()

    def test_queue_full_yields_429_with_retry_after(self, server_factory, slow_pascal):
        handle = server_factory(max_in_flight=1, max_pending=1,
                                quota_rate=1000.0, quota_burst=1000.0)
        outcomes = []

        def submit(index):
            client = _Client(handle)
            status, body, headers = client.json(
                "POST", "/compile",
                {"language": slow_pascal.name,
                 "source": PASCAL_OK.replace("i + 2", f"i + {10 + index}")},
            )
            outcomes.append((status, body, headers))
            client.close()

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
            time.sleep(0.03)  # order arrivals: 1 in flight, then the bound trips
        for thread in threads:
            thread.join()
        statuses = sorted(status for status, _, _ in outcomes)
        assert statuses.count(429) >= 1 and statuses.count(200) >= 1
        rejected = [o for o in outcomes if o[0] == 429]
        for status, body, headers in rejected:
            assert body["reason"] == "queue"
            assert int(headers["Retry-After"]) >= 1
        stats = _Client(handle).json("GET", "/stats")[1]
        assert stats["service"]["jobs_rejected"] == len(rejected)
        assert stats["admission"]["rejected_queue"] == len(rejected)

    def test_document_limit_yields_429(self, server_factory):
        handle = server_factory(max_documents=2)
        client = _Client(handle)
        payload = {"language": "exprlang", "source": EXPR_SOURCE}
        sids = [
            client.json("POST", "/documents", payload)[1]["document"]
            for _ in range(2)
        ]
        status, body, headers = client.json("POST", "/documents", payload)
        assert status == 429 and body["reason"] == "documents"
        assert int(headers["Retry-After"]) >= 1
        client.json("DELETE", f"/documents/{sids[0]}")
        status, _, _ = client.json("POST", "/documents", payload)
        assert status == 201
        client.close()

    def test_idle_document_is_evicted(self, server_factory):
        handle = server_factory(idle_ttl=0.2)
        client = _Client(handle)
        _, body, _ = client.json(
            "POST", "/documents", {"language": "exprlang", "source": EXPR_SOURCE}
        )
        sid = body["document"]
        deadline = time.time() + 10.0
        while time.time() < deadline:
            status, body, _ = client.json("POST", f"/documents/{sid}/recompile")
            if status == 404:
                break
            time.sleep(0.3)
        assert status == 404 and "evicted" in body["error"]
        stats = client.json("GET", "/stats")[1]
        assert stats["documents"]["evicted"] >= 1
        client.close()


class TestCoalescingOverHttp:
    BURST = 8

    def _burst(self, handle, payload):
        outcomes = [None] * self.BURST
        barrier = threading.Barrier(self.BURST)

        def submit(index):
            client = _Client(handle)
            barrier.wait()
            outcomes[index] = client.request("POST", "/compile", payload)
            client.close()

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(self.BURST)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def test_identical_submissions_share_one_compile(
        self, server_factory, slow_pascal
    ):
        handle = server_factory(max_in_flight=4, max_pending=64)
        payload = {"language": slow_pascal.name, "source": PASCAL_OK}
        outcomes = self._burst(handle, payload)
        assert all(status == 200 for status, _, _ in outcomes)
        bodies = {raw for _, raw, _ in outcomes}
        assert len(bodies) == 1  # byte-identical fan-out
        assert json.loads(next(iter(bodies)))["ok"] is True
        stats = _Client(handle).json("GET", "/stats")[1]
        assert stats["service"]["jobs_completed"] == 1
        assert stats["service"]["jobs_coalesced"] == self.BURST - 1
        assert stats["coalescing"]["leaders"] == 1
        roles = [headers["X-Repro-Coalesced"] for _, _, headers in outcomes]
        assert roles.count("leader") == 1

    def test_erroring_compile_is_shared_byte_identically(
        self, server_factory, slow_pascal
    ):
        handle = server_factory(max_in_flight=4)
        payload = {"language": slow_pascal.name, "source": PASCAL_BAD}
        outcomes = self._burst(handle, payload)
        assert all(status == 200 for status, _, _ in outcomes)
        bodies = {raw for _, raw, _ in outcomes}
        assert len(bodies) == 1
        body = json.loads(next(iter(bodies)))
        assert body["ok"] is False
        assert any("undeclared" in error for error in body["errors"])
        stats = _Client(handle).json("GET", "/stats")[1]
        assert stats["service"]["jobs_completed"] == 1
        assert stats["service"]["jobs_coalesced"] == self.BURST - 1

    def test_stragglers_hit_the_result_cache(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        payload = {"language": "exprlang", "source": EXPR_SOURCE}
        first = client.json("POST", "/compile", payload)
        second = client.json("POST", "/compile", payload)
        assert first[2]["X-Repro-Coalesced"] == "leader"
        assert second[2]["X-Repro-Coalesced"] == "cached"
        assert first[1] == second[1]
        client.close()


class TestDrain:
    def test_sigterm_style_drain_completes_in_flight_work(
        self, server_factory, slow_pascal
    ):
        handle = server_factory(drain_grace=15.0)
        results = {}

        def slow_submit():
            client = _Client(handle)
            results["slow"] = client.json(
                "POST", "/compile", {"language": slow_pascal.name,
                                     "source": PASCAL_OK},
            )
            client.close()

        # A keep-alive connection opened before the listener closes still gets
        # a response during the drain window.
        observer = _Client(handle)
        observer.json("GET", "/healthz")
        worker = threading.Thread(target=slow_submit)
        worker.start()
        time.sleep(0.1)  # the slow parse is now in flight
        handle.request_drain()
        time.sleep(0.05)
        status, body, _ = observer.json(
            "POST", "/compile", {"language": "exprlang", "source": "1 + 1"}
        )
        assert status == 503 and "draining" in body["error"]
        worker.join(timeout=20.0)
        assert not worker.is_alive()
        status, body, _ = results["slow"]
        assert status == 200 and body["ok"]  # in-flight work finished cleanly
        handle.stop()
        with pytest.raises((ConnectionError, http.client.HTTPException, OSError)):
            _Client(handle, timeout=2.0).json("GET", "/healthz")

    def test_drained_service_refuses_submit_with_clear_error(self, slow_pascal):
        # The regression fixed alongside the server: submitting to a closed
        # service is a clear RuntimeError, not a deep substrate failure.
        service = CompilationService("threads")
        service.start()
        service.close()
        with pytest.raises(RuntimeError, match="service is closed"):
            service.submit(CompilationJob(language="exprlang", source="1 + 1"))

    def test_drain_under_load_finishes_inflight_refuses_queued_deadline(
        self, server_factory, slow_pascal
    ):
        # The satellite contract: SIGTERM with a slow compile in flight AND a
        # deadline-bearing request arriving behind it — the in-flight compile
        # finishes 200, the late request gets a *clean* 503 (not a hang, not a
        # 500, not a burned deadline), and shutdown completes.
        handle = server_factory(drain_grace=15.0)
        results = {}

        def slow_submit():
            client = _Client(handle)
            results["slow"] = client.json(
                "POST", "/compile",
                {"language": slow_pascal.name, "source": PASCAL_OK},
            )
            client.close()

        observer = _Client(handle)
        observer.json("GET", "/healthz")
        worker = threading.Thread(target=slow_submit)
        worker.start()
        time.sleep(0.1)  # the slow parse is now in flight
        handle.request_drain()
        time.sleep(0.05)
        started = time.monotonic()
        status, body, _ = observer.json(
            "POST", "/compile",
            {"language": "exprlang", "source": "2 + 2"},
            headers={"X-Repro-Deadline-Ms": "5000"},
        )
        elapsed = time.monotonic() - started
        assert status == 503 and "draining" in body["error"]
        assert elapsed < 5.0  # refused immediately, not queued into the budget
        worker.join(timeout=20.0)
        assert not worker.is_alive()
        status, body, _ = results["slow"]
        assert status == 200 and body["ok"]
        handle.stop()  # raises if the server fails to drain — the clean exit


class TestDeadlines:
    def test_zero_budget_compile_is_a_clean_504(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        source = "let q = 2 in q + 1 ni"
        status, body, _ = client.json(
            "POST", "/compile",
            {"language": "exprlang", "source": source},
            headers={"X-Repro-Deadline-Ms": "0"},
        )
        assert status == 504
        assert "deadline" in body["error"].lower()
        # A 504 is never cached by the coalescer: a retry with budget succeeds.
        status, body, _ = client.json(
            "POST", "/compile",
            {"language": "exprlang", "source": source},
            headers={"X-Repro-Deadline-Ms": "30000"},
        )
        assert status == 200 and body["value"] == 3
        client.close()

    def test_generous_budget_does_not_change_the_answer(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        plain_status, plain, _ = client.json(
            "POST", "/compile", {"language": "exprlang", "source": EXPR_SOURCE}
        )
        status, body, _ = client.json(
            "POST", "/compile",
            {"language": "exprlang", "source": EXPR_SOURCE + " "},
            headers={"X-Repro-Deadline-Ms": "60000"},
        )
        assert plain_status == status == 200
        assert body["value"] == plain["value"] == 7
        client.close()

    def test_malformed_deadline_header_is_400(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        for bad in ("soon", "-5"):
            status, body, _ = client.json(
                "POST", "/compile",
                {"language": "exprlang", "source": "1 + 1"},
                headers={"X-Repro-Deadline-Ms": bad},
            )
            assert status == 400, (bad, body)
            assert "x-repro-deadline-ms" in body["error"]
        client.close()

    def test_expired_deadline_shows_up_in_stats(self, server_factory, slow_pascal):
        # A budget shorter than the slow front end: 504 on the wire, and the
        # service's deadline_misses counter ticks once _execute notices.
        handle = server_factory()
        client = _Client(handle)
        status, body, _ = client.json(
            "POST", "/compile",
            {"language": slow_pascal.name, "source": PASCAL_OK},
            headers={"X-Repro-Deadline-Ms": "100"},
        )
        assert status == 504, body
        patience = time.monotonic() + 5.0
        misses = 0
        while time.monotonic() < patience:
            _, stats, _ = client.json("GET", "/stats")
            misses = stats["service"]["deadline_misses"]
            if misses:
                break
            time.sleep(0.05)
        assert misses >= 1
        for field in ("retries", "worker_respawns", "faults_injected"):
            assert field in stats["service"]
        client.close()


class TestServerFaultPoint:
    def test_injected_request_fault_is_a_500_and_evaporates(self, server_factory):
        from repro.faults import FaultPlan, FaultRule, active

        handle = server_factory()
        client = _Client(handle)
        plan = FaultPlan(seed=2, rules=[
            FaultRule("server.request", action="error", times=1)
        ])
        with active(plan, env=False):
            status, body, _ = client.json("GET", "/healthz")
            assert status == 500 and "injected fault" in body["error"]
            assert plan.injected == 1
        status, body, _ = client.json("GET", "/healthz")  # plan gone: healthy
        assert status == 200 and body["status"] == "ok"
        client.close()


class TestStatsEndpoint:
    def test_stats_is_service_to_dict_plus_server_counters(self, server_factory):
        handle = server_factory()
        client = _Client(handle)
        client.json("POST", "/compile", {"language": "exprlang", "source": "2 + 2"})
        status, stats, _ = client.json("GET", "/stats")
        assert status == 200
        service = stats["service"]
        # The wire form is ServiceStats.to_dict(): every counter present,
        # cluster fields included even off-cluster.
        for field in (
            "jobs_submitted", "jobs_completed", "jobs_failed", "latency_p50",
            "region_cache_hits", "region_cache_hit_rate", "cluster_workers",
            "cluster_reassignments", "cluster_speculations", "jobs_coalesced",
            "jobs_queued", "jobs_rejected", "backend", "throughput",
        ):
            assert field in service
        assert service["jobs_completed"] == 1
        assert stats["server"]["requests_served"] >= 2
        assert stats["admission"]["admitted"] == 1
        # What the process retains and what the collector has done about it.
        cache = stats["server"]["artifact_cache"]
        assert cache["max_entries"] == handle.server.cache.max_entries
        assert cache["entries"] == len(handle.server.cache)
        assert (cache["hits"], cache["misses"]) == (
            handle.server.cache.hits, handle.server.cache.misses
        )
        collector = stats["server"]["gc"]
        assert len(collector["collections"]) == len(gc.get_stats())
        assert all(isinstance(count, int) for count in collector["collections"])
        assert collector["frozen"] == gc.get_freeze_count()
        # The one-shot compile paused the collector and, ending with no other
        # compile in flight, brought it back.
        assert collector["compiles_in_flight"] == 0
        assert collector["resumes"] >= 1
        assert gc.isenabled()
        client.close()


class TestRetention:
    """A server that has served N scripts must not make the collector walk N trees."""

    WARMUP, SCRIPTS = 2, 20

    def _script(self, client, source, edited, span):
        """open → recompile → edit → recompile → close → one-shot; the three values."""
        status, body, _ = client.json(
            "POST", "/documents",
            {"language": "pascal", "source": source, "machines": 4},
        )
        assert status == 201
        sid = body["document"]
        status, cold, _ = client.json("POST", f"/documents/{sid}/recompile")
        assert status == 200 and cold["ok"]
        status, _, _ = client.json(
            "POST", f"/documents/{sid}/edit", {"edits": [[span[0], span[1], "7"]]}
        )
        assert status == 200
        status, warm, _ = client.json("POST", f"/documents/{sid}/recompile")
        assert status == 200 and warm["ok"]
        assert warm["incremental"]["regions_reused"] >= 1
        status, _, _ = client.json("DELETE", f"/documents/{sid}")
        assert status == 200
        status, oneshot, _ = client.json(
            "POST", "/compile",
            {"language": "pascal", "source": edited, "machines": 4},
        )
        assert status == 200 and oneshot["ok"]
        return cold["value"], warm["value"], oneshot["value"]

    def test_tracked_objects_per_cache_entry_stay_small(self, server_factory):
        from repro import Compiler
        from repro.pascal.programs import generate_program

        compiler = Compiler("pascal", machines=4, backend="threads")
        scripts = []
        for seed in range(self.WARMUP + self.SCRIPTS):
            source = generate_program(
                procedures=12, nested_procedures=2, statements_per_procedure=4,
                main_statements=8, seed=100 + seed,
            )
            match = list(re.finditer(r":= (\d)[;\n]", source))[-1]
            edited = source[: match.start(1)] + "7" + source[match.end(1) :]
            expected = (compiler.compile(source).value, compiler.compile(edited).value)
            scripts.append((source, edited, match.span(1), expected))
        handle = server_factory(quota_rate=10_000.0, quota_burst=10_000.0)
        client = _Client(handle)

        def drive(batch):
            for source, edited, span, (cold_value, edited_value) in batch:
                values = self._script(client, source, edited, span)
                assert values == (cold_value, edited_value, edited_value)

        def census():
            # Every response is in, so every job has finished; the /stats round trip
            # gives the pool threads the interpreter once more, and an idle pool
            # thread keeps nothing of its last job — which thread ran last no
            # longer matters.  Collect after it, immediately before counting.
            entries = client.json("GET", "/stats")[1]["server"]["artifact_cache"]["entries"]
            gc.collect()
            return len(gc.get_objects()), entries

        drive(scripts[: self.WARMUP])  # lazy imports, pools, first-use tables
        objects_before, entries_before = census()
        drive(scripts[self.WARMUP :])
        objects_after, entries_after = census()
        client.close()

        retained = entries_after - entries_before
        assert retained >= self.SCRIPTS  # every script left artifacts behind
        assert (objects_after - objects_before) / retained < 200
