"""The asyncio HTTP/JSON front door over :class:`repro.service.CompilationService`.

This is the piece that turns the in-process compile stack into something
"millions of users" can hit: a stdlib-only HTTP/1.1 server (``asyncio.start_server``,
keep-alive, JSON bodies) that is pure protocol and policy — every compilation
still runs through the existing service layer on one persistent substrate.

Endpoints::

    POST   /compile                  one-shot compile (admitted + coalesced)
    POST   /documents                open a server-held editing session
    POST   /documents/{sid}/edit     splice edits into the session source
    POST   /documents/{sid}/recompile  incremental recompile (admitted)
    DELETE /documents/{sid}          close the session
    GET    /stats                    ServiceStats.to_dict() + server counters
    GET    /healthz                  readiness (503 while draining)

Policy, in order, for every costly request:

1. **Coalescing** — an identical one-shot ``(language, source, machines,
   evaluator)`` already in flight (or freshly completed) is joined, not
   recompiled; every sharer receives byte-identical response bytes.
2. **Admission** — per-tenant token-bucket quotas plus a server-wide bounded
   pending count; a refusal is an immediate ``429`` with ``Retry-After``, never
   an unbounded queue.
3. **Execution** — one-shots go to the ``CompilationService``; document
   recompiles run the PR-5 incremental path on a per-document lock.

On SIGTERM the server *drains*: the listener closes, new work is refused with
``503``, in-flight requests finish (bounded by ``drain_grace``), then the
service and substrate shut down and the process exits 0.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil
from typing import Any, Dict, Optional, Set, Tuple

from repro.api.language import UnknownLanguageError, get_language
from repro.backends import create_substrate
from repro.backends.base import compiles_in_flight
from repro.faults import plan as _faults
from repro.incremental.cache import ArtifactCache
from repro.parsing.lexer import LexerError
from repro.parsing.parser import ParseError
from repro.resilience import Deadline, DeadlineExceeded
from repro.server.admission import AdmissionController, AdmissionError
from repro.server.coalescing import Coalescer, content_key
from repro.server.routing import RouteError, Router
from repro.server.schemas import (
    CompileRequest,
    EditRequest,
    OpenRequest,
    SchemaError,
    compile_result_payload,
    error_payload,
)
from repro.server.sessions import (
    DocumentLimitError,
    DocumentStore,
    UnknownDocumentError,
)
from repro.service import CompilationJob, CompilationService, ServiceError

#: Largest accepted request body, bytes.  Requests above it get a 413.
MAX_BODY_BYTES = 8 * 1024 * 1024

_Response = Tuple[int, Dict[str, Any], Dict[str, str]]

_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Request header carrying the client's compile budget in milliseconds.  The
#: server turns it into a :class:`repro.resilience.Deadline` and hands the
#: *object* down (service → substrate receive bound → cluster job timeout); an
#: exhausted budget surfaces as ``504 Gateway Timeout``.
DEADLINE_HEADER = "x-repro-deadline-ms"


@dataclass
class ServerConfig:
    """Everything one :class:`CompileServer` needs, with serve-small defaults."""

    host: str = "127.0.0.1"
    port: int = 8080                #: 0 picks a free port (see ``CompileServer.port``)
    backend: str = "threads"        #: substrate name; see ``repro.backends``
    workers: int = 0                #: initial pool size (pools grow on demand)
    machines: int = 2               #: default machine count per compilation
    max_in_flight: int = 8          #: concurrent compilations on the substrate
    max_pending: int = 64           #: admitted-but-unfinished bound (then 429)
    quota_rate: float = 50.0        #: per-tenant sustained requests/second
    quota_burst: float = 100.0      #: per-tenant burst capacity
    max_documents: int = 512        #: live editing sessions (then 429)
    idle_ttl: float = 300.0         #: seconds before an idle session is evicted
    coalesce_capacity: int = 256    #: completed one-shot results kept for sharing
    drain_grace: float = 10.0       #: seconds to wait for in-flight work on drain
    store: Optional[Any] = None     #: persistent artifact store — path or ArtifactStore
    store_max_bytes: Optional[int] = None  #: store size budget (gc target), bytes


class CompileServer:
    """One HTTP front door bound to one substrate, service and artifact cache.

    Lifecycle: ``await start()`` then ``await serve_forever()`` (or use
    :func:`serve_in_thread` from synchronous code).  All request handling runs
    on the event loop; compilations hop to the service's dispatch threads and
    document operations to a small executor, so the loop itself never blocks.
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.router = Router()
        self.router.add("POST", "/compile", self._handle_compile)
        self.router.add("POST", "/documents", self._handle_open)
        self.router.add("POST", "/documents/{sid}/edit", self._handle_edit)
        self.router.add("POST", "/documents/{sid}/recompile", self._handle_recompile)
        self.router.add("DELETE", "/documents/{sid}", self._handle_close_document)
        self.router.add("GET", "/stats", self._handle_stats)
        self.router.add("GET", "/healthz", self._handle_health)

        self._http: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._substrate = None
        self._service: Optional[CompilationService] = None
        self._doc_pool: Optional[ThreadPoolExecutor] = None
        self._sweeper: Optional["asyncio.Task[None]"] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._connection_tasks: Set["asyncio.Task[None]"] = set()
        self._drain_requested: Optional[asyncio.Event] = None
        self._draining = False
        self._stopped = False
        self._active_requests = 0
        self.requests_served = 0
        self._started_at = 0.0

        cfg = self.config
        if cfg.store is not None:
            # The persistent tier under the server's shared cache: a restarted
            # server mounting the same path replays regions recorded by its
            # previous life (GET /stats shows store_hits > 0 on the first build).
            from repro.store import open_store

            self.cache = ArtifactCache(
                store=open_store(cfg.store, max_bytes=cfg.store_max_bytes)
            )
        else:
            self.cache = ArtifactCache()
        self.admission = AdmissionController(
            quota_rate=cfg.quota_rate,
            quota_burst=cfg.quota_burst,
            max_pending=cfg.max_pending,
            queued_threshold=cfg.max_in_flight,
        )
        self.coalescer = Coalescer(capacity=cfg.coalesce_capacity)
        self.documents = DocumentStore(
            max_documents=cfg.max_documents, idle_ttl=cfg.idle_ttl
        )

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> "CompileServer":
        cfg = self.config
        self._drain_requested = asyncio.Event()
        self._substrate = create_substrate(cfg.backend, workers=cfg.workers)
        self._substrate.start()
        self._service = CompilationService(
            self._substrate,
            max_in_flight=cfg.max_in_flight,
            artifact_cache=self.cache,
        )
        self._service.start()
        self._doc_pool = ThreadPoolExecutor(
            max_workers=cfg.max_in_flight, thread_name_prefix="repro-server-doc"
        )
        self._http = await asyncio.start_server(
            self._client_connected, cfg.host, cfg.port
        )
        self._port = self._http.sockets[0].getsockname()[1]
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_idle())
        self._started_at = time.monotonic()
        return self

    @property
    def port(self) -> int:
        """The bound port (survives shutdown, so late clients can still ask)."""
        assert self._port is not None, "server has not started"
        return self._port

    @property
    def service(self) -> CompilationService:
        assert self._service is not None
        return self._service

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; also wired to SIGTERM/SIGINT)."""
        assert self._drain_requested is not None
        self._drain_requested.set()

    async def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Serve until a drain is requested, then drain and stop."""
        assert self._drain_requested is not None
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._drain_requested.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-unix loop: drain via request_drain() only
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """Refuse new work, finish in-flight requests, then tear everything down."""
        if self._draining:
            return
        self._draining = True
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
        deadline = time.monotonic() + self.config.drain_grace
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        await self.stop()

    async def stop(self) -> None:
        """Immediate teardown (drain calls this; tests may call it directly)."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
        for writer in list(self._connections):
            writer.close()
        # Closed transports feed EOF to their readers; give the connection
        # coroutines a moment to observe it and exit, so nothing is destroyed
        # mid-await when the loop closes.
        current = asyncio.current_task()
        pending = {
            task
            for task in self._connection_tasks
            if not task.done() and task is not current
        }
        if pending:
            await asyncio.wait(pending, timeout=1.0)
        if self._doc_pool is not None:
            self._doc_pool.shutdown(wait=True)
        if self._service is not None:
            self._service.close()
        if self._substrate is not None:
            self._substrate.shutdown()
        # Settle the write-behind queue so a successor process mounting the same
        # store finds every artifact this life recorded.
        self.cache.close()

    async def _sweep_idle(self) -> None:
        interval = max(0.05, min(self.config.idle_ttl / 4, 30.0))
        while True:
            await asyncio.sleep(interval)
            self.documents.evict_idle()

    # ----------------------------------------------------------------- HTTP layer

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while not self._stopped:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, headers, body = request
                close = (
                    headers.get("connection", "").lower() == "close" or self._draining
                )
                self._active_requests += 1
                try:
                    status, payload, extra = await self._dispatch(
                        method, path, headers, body
                    )
                finally:
                    self._active_requests -= 1
                self._write_response(writer, status, payload, extra, close=close)
                await writer.drain()
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._connection_tasks.discard(task)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise
            return None  # clean EOF between keep-alive requests
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            self._write_response(
                writer, 400, error_payload("malformed request line"), {}, close=True
            )
            return None
        method, path = parts[0], parts[1].split("?", 1)[0]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            self._write_response(
                writer,
                400,
                error_payload("chunked request bodies are not supported"),
                {},
                close=True,
            )
            return None
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            self._write_response(
                writer,
                413,
                error_payload(f"body of {length} bytes exceeds {MAX_BODY_BYTES}"),
                {},
                close=True,
            )
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Dict[str, str],
        *,
        close: bool,
    ) -> None:
        # sort_keys makes serialization deterministic, which is what lets every
        # coalesced waiter receive byte-identical body bytes for a shared payload.
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)

    # ------------------------------------------------------------------ dispatch

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> _Response:
        self.requests_served += 1
        if self._draining and method.upper() != "GET":
            # Reads stay up for observability during the drain window; work does
            # not — a queued deadline-bearing request gets this clean 503 rather
            # than burning its budget waiting for a server that will not serve it.
            return 503, error_payload("server is draining"), {}
        if _faults.ACTIVE is not None:
            hit = _faults.ACTIVE.check("server.request", f"{method} {path}")
            if hit is not None:
                if hit.action in ("delay", "stall"):
                    # Asyncio edge: stall the *request*, never the event loop.
                    await asyncio.sleep(hit.delay)
                else:
                    return (
                        500,
                        error_payload(
                            f"injected fault at 'server.request': {hit.action}"
                        ),
                        {},
                    )
        deadline: Optional[Deadline] = None
        raw_budget = headers.get(DEADLINE_HEADER)
        if raw_budget:
            try:
                budget_ms = float(raw_budget)
                if budget_ms < 0:
                    raise ValueError
            except ValueError:
                return (
                    400,
                    error_payload(
                        f"{DEADLINE_HEADER} must be a non-negative number of "
                        f"milliseconds, got {raw_budget!r}"
                    ),
                    {},
                )
            deadline = Deadline.after(budget_ms / 1000.0, label="http")
        try:
            handler, params = self.router.resolve(method, path)
        except RouteError as exc:
            extra = {"Allow": ", ".join(exc.allowed)} if exc.allowed else {}
            return exc.status, error_payload(str(exc)), extra
        payload: Any = None
        if body:
            try:
                payload = json.loads(body)
            except ValueError:
                return 400, error_payload("request body is not valid JSON"), {}
        try:
            return await handler(params, payload, deadline)
        except SchemaError as exc:
            return 400, error_payload(str(exc)), {}
        except UnknownLanguageError as exc:
            return 400, error_payload(str(exc)), {}
        except (LexerError, ParseError) as exc:
            return 400, error_payload(f"{type(exc).__name__}: {exc}"), {}
        except UnknownDocumentError as exc:
            sid = exc.args[0] if exc.args else "?"
            return (
                404,
                error_payload(
                    f"no document {sid!r} (closed, evicted after "
                    f"{self.config.idle_ttl:g}s idle, or never opened)"
                ),
                {},
            )
        except AdmissionError as exc:
            self.service.note_rejected()
            return (
                429,
                error_payload(str(exc), reason=exc.reason,
                              retry_after=exc.retry_after),
                {"Retry-After": str(max(1, ceil(exc.retry_after)))},
            )
        except DocumentLimitError as exc:
            self.service.note_rejected()
            retry = max(1.0, min(self.config.idle_ttl / 4, 30.0))
            return (
                429,
                error_payload(str(exc), reason="documents", retry_after=retry),
                {"Retry-After": str(ceil(retry))},
            )
        except DeadlineExceeded as exc:
            return 504, error_payload(str(exc), reason="deadline"), {}
        except ServiceError as exc:
            return 503, error_payload(str(exc)), {}
        except Exception as exc:  # noqa: BLE001 — the edge must not crash the loop
            return 500, error_payload(f"{type(exc).__name__}: {exc}"), {}

    # ------------------------------------------------------------------ handlers

    async def _handle_compile(
        self,
        params: Dict[str, str],
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> _Response:
        request = CompileRequest.from_payload(payload)
        key = content_key(*request.coalescing_key())

        async def compute() -> _Response:
            # The leader's deadline governs the shared compute; sharers join the
            # same answer (their budgets are not tightened onto someone else's
            # compile — a 504 is never cached, so a fresh leader retries).
            return await self._run_one_shot(request, deadline)

        if self.coalescer.peek(key):
            response, how = await self.coalescer.get_or_compute(key, compute)
        else:
            # Leader path: this submission pays admission before compiling;
            # sharers above skipped it because they add no work of their own.
            straight = self.admission.admit(request.tenant)
            if not straight:
                self.service.note_queued()
            started = time.monotonic()
            try:
                response, how = await self.coalescer.get_or_compute(
                    key, compute, cache_result=lambda r: r[0] == 200
                )
            finally:
                self.admission.release(time.monotonic() - started)
        if how != "leader":
            self.service.note_coalesced()
        status, body, extra = response
        headers = dict(extra)
        headers["X-Repro-Coalesced"] = how
        return status, body, headers

    async def _run_one_shot(
        self, request: CompileRequest, deadline: Optional[Deadline] = None
    ) -> _Response:
        language = get_language(request.language)
        job = CompilationJob(
            language=language.name,
            source=request.source,
            machines=request.machines,
            evaluator=request.evaluator,
            label=f"http:{request.tenant}",
        )
        try:
            future = self.service.submit(job, deadline=deadline)
        except ServiceError:
            return 503, error_payload("server is draining"), {}
        try:
            if deadline is not None:
                try:
                    report = await asyncio.wait_for(
                        asyncio.wrap_future(future), timeout=deadline.remaining()
                    )
                except DeadlineExceeded:
                    raise
                except asyncio.TimeoutError:
                    # The loop-side timer fired before the service noticed: tell
                    # the dispatch threads to stop at the next phase boundary
                    # instead of compiling into the void, then answer 504.
                    token = getattr(future, "cancel_token", None)
                    if token is not None:
                        token.cancel("http deadline expired")
                    raise DeadlineExceeded(
                        "compilation exceeded its deadline [http]"
                    ) from None
            else:
                report = await asyncio.wrap_future(future)
        except (LexerError, ParseError) as exc:
            # Deterministic front-end failures are part of the shared answer:
            # every coalesced waiter sees the same 400.
            return 400, error_payload(f"{type(exc).__name__}: {exc}"), {}
        result_value = language.result(report)
        errors = language.errors(report)
        payload = {
            "ok": not errors,
            "language": language.name,
            "value": _json_value(result_value),
            "errors": list(errors),
            "wall_parse_ms": round(report.wall_parse_seconds * 1000, 3),
            "wall_compile_ms": round(report.wall_time_seconds * 1000, 3),
            "machines": report.machines,
            "backend": report.backend,
        }
        return 200, payload, {}

    async def _handle_open(
        self,
        params: Dict[str, str],
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> _Response:
        request = OpenRequest.from_payload(payload)
        language = get_language(request.language)  # 400 before taking a slot
        self.admission.check_quota(request.tenant)

        def factory():
            from repro.incremental.document import Document

            return Document(
                language,
                request.source,
                machines=request.machines,
                substrate=self._substrate,
                cache=self.cache,
            )

        session = self.documents.open(factory, request.tenant)
        return (
            201,
            {
                "document": session.sid,
                "language": language.name,
                "chars": len(session.document),
                "idle_ttl": self.config.idle_ttl,
            },
            {},
        )

    async def _handle_edit(
        self,
        params: Dict[str, str],
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> _Response:
        session = self.documents.get(params["sid"])
        request = EditRequest.from_payload(payload)
        async with session.lock:
            for start, end, text in request.edits:
                if end > len(session.document):
                    raise SchemaError(
                        f"edit [{start}, {end}) is out of bounds for a "
                        f"{len(session.document)}-char document"
                    )
                session.document.edit(start, end, text)
        return (
            200,
            {
                "document": session.sid,
                "edits_applied": len(request.edits),
                "chars": len(session.document),
            },
            {},
        )

    async def _handle_recompile(
        self,
        params: Dict[str, str],
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> _Response:
        session = self.documents.get(params["sid"])
        if deadline is not None:
            deadline.check("recompile")  # do not admit work with no budget left
        straight = self.admission.admit(session.tenant)
        if not straight:
            self.service.note_queued()
        started = time.monotonic()
        try:
            async with session.lock:
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    self._doc_pool, session.document.recompile
                )
        finally:
            self.admission.release(time.monotonic() - started)
        if deadline is not None:
            # Strict semantics, matching the service: a deadline-bearing request
            # never reports success after its budget.
            deadline.check("recompile")
        session.recompiles += 1
        session.touch(time.monotonic())
        return (
            200,
            compile_result_payload(
                result, document=session.sid, recompiles=session.recompiles
            ),
            {},
        )

    async def _handle_close_document(
        self,
        params: Dict[str, str],
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> _Response:
        session = self.documents.close(params["sid"])
        return (
            200,
            {"document": session.sid, "closed": True, "recompiles": session.recompiles},
            {},
        )

    async def _handle_stats(
        self,
        params: Dict[str, str],
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> _Response:
        stats = self.service.stats()
        # The front-door counters live on the service snapshot (the satellite
        # contract): /stats serves to_dict(), not re-parsed summary() text.
        return (
            200,
            {
                "service": stats.to_dict(),
                "admission": self.admission.snapshot(),
                "coalescing": self.coalescer.snapshot(),
                "documents": self.documents.snapshot(),
                "server": {
                    "backend": self.config.backend,
                    "draining": self._draining,
                    "requests_served": self.requests_served,
                    "active_requests": self._active_requests,
                    "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                    # What this process retains, and what the cyclic collector
                    # has spent walking it: a cache that fills with GC-tracked
                    # objects shows here as full collections per request.  The
                    # collector is paused while any compile is in flight;
                    # ``resumes`` counts the moments it came back.
                    "artifact_cache": {
                        "entries": len(self.cache),
                        "max_entries": self.cache.max_entries,
                        "hits": self.cache.hits,
                        "misses": self.cache.misses,
                    },
                    "gc": {
                        "collections": [
                            generation["collections"] for generation in gc.get_stats()
                        ],
                        "frozen": gc.get_freeze_count(),
                        **compiles_in_flight.snapshot(),
                    },
                },
            },
            {},
        )

    async def _handle_health(
        self,
        params: Dict[str, str],
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> _Response:
        if self._draining:
            return 503, {"status": "draining"}, {}
        return 200, {"status": "ok", "backend": self.config.backend}, {}


def _json_value(value: Any) -> Any:
    from repro.server.schemas import json_safe

    return json_safe(value)


# ---------------------------------------------------------------- sync embedding


class ServerHandle:
    """A running :class:`CompileServer` on a background thread, for sync callers."""

    def __init__(
        self,
        server: CompileServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_drain(self) -> None:
        """Trigger graceful shutdown from any thread (non-blocking, idempotent)."""
        try:
            self._loop.call_soon_threadsafe(self.server.request_drain)
        except RuntimeError:
            pass  # the loop already closed: the server has fully stopped

    def stop(self, timeout: float = 30.0) -> None:
        """Drain, wait for the server thread to finish, and surface a hang."""
        self.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover — a bug, not a code path
            raise RuntimeError("compile server failed to drain within timeout")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_in_thread(config: Optional[ServerConfig] = None) -> ServerHandle:
    """Start a :class:`CompileServer` on a dedicated event-loop thread.

    The embedding used by the tests and by scripts that want a loopback server
    without managing asyncio themselves::

        with serve_in_thread(ServerConfig(port=0)) as handle:
            ...  # http.client against handle.host:handle.port
    """
    started = threading.Event()
    failure: Dict[str, BaseException] = {}
    holder: Dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = CompileServer(config)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # pragma: no cover — startup failure path
            failure["exc"] = exc
            started.set()
            loop.close()
            return
        holder["server"] = server
        holder["loop"] = loop
        started.set()
        try:
            loop.run_until_complete(server.serve_forever(install_signal_handlers=False))
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-server", daemon=True)
    thread.start()
    started.wait(timeout=60.0)
    if "exc" in failure:
        raise failure["exc"]
    if "server" not in holder:
        raise RuntimeError("compile server failed to start within timeout")
    return ServerHandle(holder["server"], holder["loop"], thread)
