"""The :class:`Session` context manager: substrate lifecycle behind one front door.

A session owns (or borrows) one persistent execution substrate and hands out
compilers and services bound to it, replacing the manual
``create_substrate``/``start``/``try``/``finally``/``shutdown`` dance::

    from repro import Session

    with Session(backend="processes") as s:
        pascal = s.compiler("pascal", machines=4)
        expr = s.compiler("exprlang")
        print(pascal.compile(pascal_source).value[:120])
        print(expr.compile("let x = 3 in 1 + 2 * x ni").value)

``close()``/``shutdown()`` are idempotent and safe in any combination with the
``with`` block — exiting the block after an explicit ``shutdown()`` (or calling
``shutdown()`` twice) is a no-op, and a borrowed substrate is never shut down.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Union

from repro.api.compiler import Compiler, CompileResult
from repro.api.language import Language
from repro.backends import create_substrate
from repro.backends.base import BackendError, Substrate
from repro.distributed.compiler import CompilerConfiguration


class Session:
    """One persistent worker pool, many languages, uniform lifecycle.

    :param backend: substrate name — ``"simulated"``, ``"threads"`` (default),
        ``"processes"`` or ``"sockets"`` (a loopback compile cluster of separate
        worker host processes) — for a substrate the session creates, starts and
        owns.
    :param substrate: an already-created :class:`Substrate` to borrow instead; the
        session starts it if needed but never shuts it down.
    :param workers: initial pool size for an owned substrate (pools grow on demand).
    :param receive_timeout: blocking-receive bound (seconds) for an owned substrate.
    :param machines: default machine count for compilers handed out by this session.
    :param store: optional persistent artifact store for the session's shared
        region-artifact cache — a path or a :class:`repro.store.ArtifactStore`.
        Documents opened on the session then warm-start from artifacts recorded
        by earlier processes (and persist their own for later ones).
    """

    def __init__(
        self,
        backend: str = "threads",
        *,
        substrate: Optional[Substrate] = None,
        workers: int = 0,
        receive_timeout: Optional[float] = None,
        machines: int = 2,
        store: Optional[Any] = None,
    ):
        if substrate is not None:
            self._substrate: Optional[Substrate] = substrate
            self._owns_substrate = False
            self.backend = substrate.name
        else:
            self._substrate = None
            self._owns_substrate = True
            self.backend = backend
        self._workers = workers
        self._receive_timeout = receive_timeout
        self.machines = machines
        self._store = store
        self._lock = threading.Lock()
        self._closed = False
        self._artifact_cache: Optional[Any] = None

    # ----------------------------------------------------------------- lifecycle

    def start(self) -> "Session":
        """Bring the substrate up (idempotent; returns ``self`` for chaining)."""
        with self._lock:
            if self._closed:
                raise BackendError("session has been closed")
            if self._substrate is None:
                self._substrate = create_substrate(
                    self.backend,
                    workers=self._workers,
                    receive_timeout=self._receive_timeout,
                )
        self._substrate.start()
        return self

    def close(self) -> None:
        """Tear the session down (idempotent; borrowed substrates are left running)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            substrate = self._substrate
            cache = self._artifact_cache
        if substrate is not None and self._owns_substrate:
            substrate.shutdown()
        if cache is not None:
            # Flush the write-behind queue and retire its writer thread.
            cache.close()

    #: ``shutdown()`` is an alias of :meth:`close`, matching the substrate vocabulary.
    shutdown = close

    def __enter__(self) -> "Session":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def substrate(self) -> Substrate:
        """The session's started substrate (starting the session on first use)."""
        self.start()
        assert self._substrate is not None
        return self._substrate

    # ------------------------------------------------------------------ factories

    def compiler(
        self,
        language: Union[str, Language],
        *,
        machines: Optional[int] = None,
        evaluator: Optional[str] = None,
        configuration: Optional[CompilerConfiguration] = None,
    ) -> Compiler:
        """A :class:`Compiler` for ``language`` bound to this session's pool."""
        return Compiler(
            language,
            machines=machines or self.machines,
            evaluator=evaluator,
            substrate=self.substrate,
            configuration=configuration,
        )

    def compile(
        self,
        language: Union[str, Language],
        source: str,
        *,
        machines: Optional[int] = None,
        root_inherited: Optional[Dict[str, Any]] = None,
    ) -> CompileResult:
        """One-call convenience: ``session.compile("pascal", source)``."""
        return self.compiler(language, machines=machines).compile(
            source, root_inherited=root_inherited
        )

    def open(
        self,
        language: Union[str, Language],
        source: str,
        *,
        machines: Optional[int] = None,
        evaluator: Optional[str] = None,
        configuration: Optional[CompilerConfiguration] = None,
        root_inherited: Optional[Dict[str, Any]] = None,
        store: Optional[Any] = None,
    ) -> "Any":
        """Open an editable :class:`~repro.incremental.Document` on this session's pool.

        Documents opened on one session share its artifact cache: regions with
        identical content (and engine) are replayed from cache across documents and
        across successive builds of the same document::

            with Session(backend="processes") as s:
                doc = s.open("pascal", source, machines=8)
                doc.recompile()                     # cold build, artifacts recorded
                doc.edit(120, 125, "x + 1")
                print(doc.recompile().incremental.summary())

        ``store`` (a path or :class:`repro.store.ArtifactStore`) overrides the
        session's store for this document: its cache reads through to (and
        persists into) that store, so a brand-new process recompiles an edited
        document at warm speed — the on-disk artifacts stand in for everything
        the process restart forgot.  Without it the document shares the
        session-wide cache (store-backed iff the session was given a ``store``).
        """
        from repro.incremental.document import Document

        if store is not None:
            # A dedicated store-backed cache: sharing with other documents then
            # happens through the store tier, which is the point of mounting one.
            from repro.incremental.cache import ArtifactCache

            cache = ArtifactCache(store=store)
        else:
            cache = self.artifact_cache
        return Document(
            language,
            source,
            machines=machines or self.machines,
            evaluator=evaluator,
            configuration=configuration,
            substrate=self.substrate,
            cache=cache,
            root_inherited=root_inherited,
        )

    @property
    def artifact_cache(self) -> "Any":
        """The session-wide region-artifact cache shared by its documents.

        Mounted on the session's persistent store when one was configured
        (``Session(store=...)``), in-memory-only otherwise.
        """
        with self._lock:
            if self._artifact_cache is None:
                from repro.incremental.cache import ArtifactCache

                self._artifact_cache = ArtifactCache(store=self._store)
            return self._artifact_cache

    def service(self, *, max_in_flight: int = 4) -> "Any":
        """A :class:`~repro.service.CompilationService` borrowing this session's pool.

        The service keeps up to ``max_in_flight`` compilations running concurrently;
        shutting the service down leaves the session's substrate running.  A session
        with a store lends the service its :attr:`artifact_cache`, so the service's
        jobs read and warm that store; :meth:`close` closes the cache, the service
        does not.
        """
        from repro.service import CompilationService

        if self._store is None:
            return CompilationService(self.substrate, max_in_flight=max_in_flight)
        return CompilationService(
            self.substrate,
            max_in_flight=max_in_flight,
            artifact_cache=self.artifact_cache,
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("started" if self._substrate else "new")
        return f"Session(backend={self.backend!r}, {state})"
