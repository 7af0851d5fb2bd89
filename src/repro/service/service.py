"""A compilation service: many compilations, one persistent substrate.

``ParallelCompiler.compile_tree`` is a one-shot call; this module turns it into a
served workload.  A :class:`CompilationService` owns (or borrows) a pooled
:class:`~repro.backends.base.Substrate`, keeps up to ``max_in_flight`` compilations
running concurrently on it, and measures what a server operator would measure:
compiles per second and latency percentiles.

Jobs are heterogeneous: a :class:`CompilationJob` names a registered language (the
service parses the source and compiles on the registry's shared, name-key-bundled
engine) or carries its own compiler, so one service interleaves Pascal and
expression-language compilations on the same worker pool — pooled process workers
receive each language's grammar bundle once ever.

Typical use::

    from repro.service import CompilationService, CompilationJob

    with CompilationService("threads", max_in_flight=4) as service:
        futures = [service.submit(CompilationJob(language="pascal", source=src,
                                                 machines=4))
                   for src in sources]
        reports = [f.result() for f in futures]
        print(service.stats().summary())
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.backends import Substrate, create_substrate
from repro.backends.base import compiles_in_flight
from repro.distributed.compiler import CompilationReport, ParallelCompiler
from repro.faults import plan as _faults
from repro.resilience import CancelToken, Deadline, DeadlineExceeded
from repro.partition.decomposition import TreeRoot
from repro.tree.node import ParseTreeNode

#: How many completed-job latencies the service keeps for percentile estimates.
LATENCY_WINDOW = 4096


class ServiceError(RuntimeError):
    """Raised for service lifecycle misuse (submitting after shutdown, etc.)."""


@dataclass
class CompilationJob:
    """One unit of work for the service: a program plus how to compile it.

    The front-door form names a registered ``language`` and provides ``source``:
    the service parses with the language's front end and compiles on the registry's
    shared engine, whose grammar bundle is keyed by language name — so the pooled
    processes substrate ships each language's grammar+plan to a worker once ever.
    Jobs of different languages stream through one service.

    The explicit form instead provides a configured ``compiler``
    (:class:`ParallelCompiler`) plus an already-parsed ``tree``, or a ``source``
    with a ``parse`` callable.  When both ``language`` and ``compiler`` are given,
    the compiler wins and the language only supplies the parser.
    """

    compiler: Optional[ParallelCompiler] = None
    tree: Optional[ParseTreeNode] = None
    source: Optional[str] = None
    parse: Optional[Callable[[str], ParseTreeNode]] = None
    machines: int = 2
    root_inherited: Optional[Dict[str, Any]] = None
    label: str = ""
    language: Optional[str] = None
    evaluator: str = "combined"

    def resolve(self) -> Tuple[ParallelCompiler, TreeRoot]:
        """The engine and the parse this job runs on (parsing if needed).

        A language job's ``source`` without a ``parse`` callable is lexed and
        recognised, not built into a tree
        (:func:`~repro.api.language.parse_for_compile`).
        """
        if self.language is not None:
            # Local import: repro.api builds on the service layer, not the reverse.
            from repro.api.language import engine_for, get_language, parse_for_compile

            lang = get_language(self.language)
            engine = self.compiler or engine_for(lang, self.evaluator)
            if self.tree is not None:
                return engine, self.tree
            if self.source is None:
                raise ServiceError(
                    f"job {self.label!r} names language {self.language!r} "
                    "but has neither a tree nor a source"
                )
            if self.parse is not None:
                return engine, self.parse(self.source)
            return engine, parse_for_compile(lang, self.source)
        if self.compiler is None:
            raise ServiceError(
                f"job {self.label!r} needs a language name or a compiler"
            )
        return self.compiler, self.resolve_tree()

    def resolve_tree(self) -> ParseTreeNode:
        if self.tree is not None:
            return self.tree
        if self.source is None:
            raise ServiceError(f"job {self.label!r} has neither a tree nor a source")
        if self.parse is None:
            raise ServiceError(
                f"job {self.label!r} has a source but no parse callable"
            )
        return self.parse(self.source)


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of one service's aggregate behaviour.

    Whole-job latency percentiles are decomposed by phase: ``parse_*`` covers
    scanning + parsing for jobs submitted as source text (jobs submitted with a
    pre-built tree contribute nothing there) and ``compile_*`` covers the
    partition + parallel-evaluation run on the substrate, for every job.  All
    figures are wall-clock seconds over the completed-job window.
    """

    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    jobs_in_flight: int
    uptime_seconds: float
    throughput: float          #: completed compilations per second of uptime
    latency_mean: float
    latency_p50: float
    latency_p95: float
    backend: str
    sessions_opened: int
    parse_p50: float = 0.0
    parse_p95: float = 0.0
    compile_p50: float = 0.0
    compile_p95: float = 0.0
    #: Region-artifact cache accounting summed over completed jobs: regions
    #: replayed from the content-addressed cache vs regions evaluated.  Both stay
    #: 0 unless the service (or the jobs' compilers) run with an artifact cache.
    region_cache_hits: int = 0
    region_cache_misses: int = 0
    #: Persistent-store accounting, filled only when the artifact cache has an
    #: on-disk second tier (``store=``): memory misses served from the store
    #: (``store_hits``) vs misses the store could not serve, write-behind blobs
    #: landed, blobs quarantined as corrupt, LRU evictions by ``gc()``, and the
    #: byte traffic both ways.  ``store_hits > 0`` after a process restart is
    #: the warm-start proof the CI smoke asserts on.
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_corrupt: int = 0
    store_evictions: int = 0
    store_bytes_read: int = 0
    store_bytes_written: int = 0
    #: Compile-cluster accounting, filled only on a clustered substrate (the
    #: sockets backend): fleet size, orphaned-region reassignments after worker
    #: deaths/timeouts, and speculative straggler re-executions.
    cluster_workers: int = 0
    cluster_reassignments: int = 0
    cluster_speculations: int = 0
    #: Front-door admission/coalescing accounting, filled by a network front end
    #: (:mod:`repro.server`) via the ``note_*`` hooks: submissions served by
    #: sharing another submission's in-flight compile or cached result, admitted
    #: submissions that waited in the bounded pending queue, and submissions
    #: refused with backpressure (quota exhausted or queue full).
    jobs_coalesced: int = 0
    jobs_queued: int = 0
    jobs_rejected: int = 0
    #: Resilience accounting.  ``retries`` counts job re-executions after a
    #: worker loss (cluster reassignments + pooled-process replays);
    #: ``worker_respawns`` counts workers forked to replace dead ones;
    #: ``faults_injected`` is this process's fault-plane injection total (child
    #: processes count their own injections locally — they are not aggregated
    #: here); ``deadline_misses`` counts jobs that ended with
    #: :class:`repro.resilience.DeadlineExceeded`.
    retries: int = 0
    worker_respawns: int = 0
    faults_injected: int = 0
    deadline_misses: int = 0

    @property
    def region_cache_hit_rate(self) -> float:
        total = self.region_cache_hits + self.region_cache_misses
        return self.region_cache_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of every counter (cluster counters included).

        This is the wire form served by the ``/stats`` endpoint of
        :mod:`repro.server` — machine-readable where :meth:`summary` is prose.
        All values are plain ints/floats/strings, safe for ``json.dumps``.
        """
        payload = asdict(self)
        payload["region_cache_hit_rate"] = self.region_cache_hit_rate
        return payload

    def summary(self) -> str:
        lines = (
            f"{self.jobs_completed} compiled / {self.jobs_failed} failed / "
            f"{self.jobs_in_flight} in flight on the {self.backend} pool: "
            f"{self.throughput:.2f} compiles/s over {self.uptime_seconds:.2f}s, "
            f"latency mean {self.latency_mean * 1000:.1f}ms, "
            f"p50 {self.latency_p50 * 1000:.1f}ms, p95 {self.latency_p95 * 1000:.1f}ms "
            f"(parse p50 {self.parse_p50 * 1000:.1f}ms / "
            f"compile p50 {self.compile_p50 * 1000:.1f}ms)"
        )
        if self.region_cache_hits or self.region_cache_misses:
            lines += (
                f", region cache {self.region_cache_hits} hit(s) / "
                f"{self.region_cache_misses} miss(es) "
                f"({self.region_cache_hit_rate * 100:.0f}% hit rate)"
            )
        if self.store_hits or self.store_misses or self.store_writes:
            lines += (
                f", store {self.store_hits} hit(s) / {self.store_misses} miss(es) / "
                f"{self.store_writes} write(s)"
            )
            if self.store_corrupt or self.store_evictions:
                lines += (
                    f" ({self.store_corrupt} quarantined, "
                    f"{self.store_evictions} evicted)"
                )
        if self.cluster_workers:
            lines += (
                f", cluster {self.cluster_workers} worker(s) / "
                f"{self.cluster_reassignments} reassignment(s) / "
                f"{self.cluster_speculations} speculation(s)"
            )
        if self.jobs_coalesced or self.jobs_queued or self.jobs_rejected:
            lines += (
                f", front door {self.jobs_coalesced} coalesced / "
                f"{self.jobs_queued} queued / {self.jobs_rejected} rejected"
            )
        if (
            self.retries or self.worker_respawns
            or self.faults_injected or self.deadline_misses
        ):
            lines += (
                f", resilience {self.retries} retr{'y' if self.retries == 1 else 'ies'} / "
                f"{self.worker_respawns} respawn(s) / "
                f"{self.faults_injected} fault(s) injected / "
                f"{self.deadline_misses} deadline miss(es)"
            )
        return lines


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = int(round(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


class CompilationService:
    """Serve compilation jobs from a persistent worker pool.

    :param substrate: a backend name (``"simulated"``/``"threads"``/``"processes"``/
        ``"sockets"``, creating a pool the service owns and will shut down) or an
        already-started :class:`Substrate` to borrow (left running at shutdown).
    :param max_in_flight: how many compilations may run concurrently on the pool.
    :param workers: initial pool size when the service creates the substrate.
    :param receive_timeout: blocking-receive bound handed to a substrate the service
        creates (ignored for borrowed substrates).
    :param artifact_cache: enable content-addressed region caching for language
        jobs: ``True`` creates a service-owned :class:`repro.incremental.
        ArtifactCache`, or pass an existing cache to share it.  Jobs whose region
        content (and engine) matches an earlier job replay those regions instead of
        re-evaluating them — results are identical, and ``stats()`` reports the
        hit/miss counters.
    :param store: mount a persistent second tier under the artifact cache — a
        path or :class:`repro.store.ArtifactStore`.  Implies caching: with
        ``artifact_cache=False`` the service creates a store-backed cache; with
        ``artifact_cache=True`` the created cache mounts this store.  Cannot be
        combined with a borrowed cache instance (configure that cache's own
        store instead).  A restarted service sharing the store replays regions
        its predecessor recorded — warm-start across process death.
    """

    def __init__(
        self,
        substrate: Union[str, Substrate] = "threads",
        *,
        max_in_flight: int = 4,
        workers: int = 0,
        receive_timeout: Optional[float] = None,
        artifact_cache: Union[bool, Any] = False,
        store: Optional[Any] = None,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if isinstance(substrate, str):
            self._substrate = create_substrate(
                substrate, workers=workers, receive_timeout=receive_timeout
            )
            self._owns_substrate = True
        else:
            self._substrate = substrate
            self._owns_substrate = False
        self.max_in_flight = max_in_flight
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._parse_latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._compile_latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._started_at: Optional[float] = None
        self._closed = False
        self._region_cache_hits = 0
        self._region_cache_misses = 0
        self._coalesced = 0
        self._queued = 0
        self._rejected = 0
        self._deadline_misses = 0
        #: Engines already bound to the substrate (:meth:`_bind`).
        self._bound: "weakref.WeakSet[ParallelCompiler]" = weakref.WeakSet()
        self._owns_cache = False
        if artifact_cache is True or (
            store is not None and (artifact_cache is False or artifact_cache is None)
        ):
            from repro.incremental.cache import ArtifactCache

            self._artifact_cache: Optional[Any] = ArtifactCache(store=store)
            self._owns_cache = True
        elif artifact_cache is False or artifact_cache is None:
            self._artifact_cache = None
        else:
            # An existing cache instance is borrowed as-is (note: an empty cache is
            # falsy — it has __len__ — so identity checks, not truthiness).
            if store is not None:
                raise ValueError(
                    "pass store= to the cache you are sharing, not to the "
                    "service borrowing it (ArtifactCache(store=...))"
                )
            self._artifact_cache = artifact_cache

    # ---------------------------------------------------------------- lifecycle

    @property
    def substrate(self) -> Substrate:
        return self._substrate

    def start(self) -> "CompilationService":
        """Bring the pool and the dispatch executor up (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if self._executor is None:
                self._substrate.start()
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_in_flight, thread_name_prefix="repro-service"
                )
                self._started_at = time.perf_counter()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally wait for in-flight compilations.

        Shuts the substrate down and closes the artifact cache too if the service
        created them; borrowed ones are left running for their owner.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
        if executor is not None:
            executor.shutdown(wait=wait)
        if self._owns_substrate:
            self._substrate.shutdown()
        if self._owns_cache:
            # Flush the write-behind queue and retire its writer thread; a borrowed
            # cache is its owner's to close.
            self._artifact_cache.close()

    #: ``close()`` is an alias of :meth:`shutdown`, matching the session/substrate
    #: vocabulary; after either, :meth:`submit` raises a clear
    #: ``RuntimeError("service is closed")`` instead of failing deep in the
    #: substrate.
    close = shutdown

    def __enter__(self) -> "CompilationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------- intake

    def submit(
        self,
        job: CompilationJob,
        *,
        deadline: Optional[Deadline] = None,
    ) -> "Future[CompilationReport]":
        """Queue one job; returns a future resolving to its CompilationReport.

        At most ``max_in_flight`` jobs run concurrently; the rest wait in the
        executor's queue.  A failing job fails only its own future.

        ``deadline`` bounds the whole job: it is checked before each phase
        (resolve/parse, compile) and its remaining budget tightens the
        substrate's blocking-receive bound (and so the cluster's per-job
        timeout) — the future then fails with
        :class:`repro.resilience.DeadlineExceeded` instead of hanging past the
        budget.  Every returned future carries a ``cancel_token``
        (:class:`repro.resilience.CancelToken`): cancelling it stops the
        compilation cooperatively at the next phase boundary, failing the
        future with ``CancelledCompilation`` — unlike ``Future.cancel()``,
        which only works before the job starts.

        Raises :class:`ServiceError` (a ``RuntimeError``) with the message
        ``"service is closed"`` once :meth:`close`/:meth:`shutdown` has run.
        """
        self.start()
        cancel_token = CancelToken()
        with self._lock:
            if self._closed or self._executor is None:
                raise ServiceError("service is closed")
            self._submitted += 1
            future = self._executor.submit(self._execute, job, deadline, cancel_token)
        future.cancel_token = cancel_token
        return future

    def compile_many(self, jobs: Iterable[CompilationJob]) -> List[CompilationReport]:
        """Submit a batch and wait for all of it; reports come back in job order.

        Raises the first job failure (after every job has been scheduled — one bad
        job does not cancel its siblings).
        """
        futures = [self.submit(job) for job in jobs]
        return [future.result() for future in futures]

    # -------------------------------------------------------------------- stats

    def note_coalesced(self, count: int = 1) -> None:
        """Record submissions served by sharing another submission's compile.

        Called by a front end (:mod:`repro.server`) whose content-hash coalescer
        fanned one underlying compile out to ``count`` extra identical requests.
        """
        with self._lock:
            self._coalesced += count

    def note_queued(self, count: int = 1) -> None:
        """Record admitted submissions that waited in a bounded pending queue."""
        with self._lock:
            self._queued += count

    def note_rejected(self, count: int = 1) -> None:
        """Record submissions refused with backpressure (quota or queue full)."""
        with self._lock:
            self._rejected += count

    def stats(self) -> ServiceStats:
        with self._lock:
            uptime = (
                time.perf_counter() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            latencies = sorted(self._latencies)
            parse_latencies = sorted(self._parse_latencies)
            compile_latencies = sorted(self._compile_latencies)
            completed = self._completed
            failed = self._failed
            submitted = self._submitted
            region_hits = self._region_cache_hits
            region_misses = self._region_cache_misses
            coalesced = self._coalesced
            queued = self._queued
            rejected = self._rejected
            deadline_misses = self._deadline_misses
        # Clustered substrates (sockets) expose fleet/fault-tolerance counters;
        # everything else reports zeros (duck-typed so the service layer never
        # imports the cluster package).
        cluster_workers = cluster_reassignments = cluster_speculations = 0
        cluster_stats = getattr(self._substrate, "cluster_stats", None)
        if callable(cluster_stats):
            snapshot = cluster_stats()
            cluster_workers = snapshot.workers_alive
            cluster_reassignments = snapshot.reassignments
            cluster_speculations = snapshot.speculative_attempts
        # Pooled substrates expose a respawn counter the same duck-typed way; a
        # pooled-process respawn re-executes exactly one job, so it counts as a
        # retry alongside the cluster's reassignments.
        respawns = getattr(self._substrate, "respawns", 0)
        if not isinstance(respawns, int):  # pragma: no cover — defensive
            respawns = 0
        # Persistent-store tier accounting: read-through hits/misses live on the
        # cache, write/corruption/eviction totals on the store itself (which may
        # be shared by several services — these are store-lifetime figures).
        store_hits = store_misses = store_writes = 0
        store_corrupt = store_evictions = 0
        store_bytes_read = store_bytes_written = 0
        cache = self._artifact_cache
        cache_store = getattr(cache, "store", None) if cache is not None else None
        if cache_store is not None:
            store_hits = cache.store_hits
            store_misses = cache.store_misses
            store_snapshot = cache_store.stats()
            store_writes = store_snapshot.writes
            store_corrupt = store_snapshot.corrupt
            store_evictions = store_snapshot.evictions
            store_bytes_read = store_snapshot.bytes_read
            store_bytes_written = store_snapshot.bytes_written
        return ServiceStats(
            jobs_submitted=submitted,
            jobs_completed=completed,
            jobs_failed=failed,
            jobs_in_flight=submitted - completed - failed,
            uptime_seconds=uptime,
            throughput=completed / uptime if uptime > 0 else 0.0,
            latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
            latency_p50=_percentile(latencies, 0.50),
            latency_p95=_percentile(latencies, 0.95),
            backend=self._substrate.name,
            sessions_opened=self._substrate.sessions_opened,
            parse_p50=_percentile(parse_latencies, 0.50),
            parse_p95=_percentile(parse_latencies, 0.95),
            compile_p50=_percentile(compile_latencies, 0.50),
            compile_p95=_percentile(compile_latencies, 0.95),
            region_cache_hits=region_hits,
            region_cache_misses=region_misses,
            cluster_workers=cluster_workers,
            cluster_reassignments=cluster_reassignments,
            cluster_speculations=cluster_speculations,
            jobs_coalesced=coalesced,
            jobs_queued=queued,
            jobs_rejected=rejected,
            retries=cluster_reassignments + respawns,
            worker_respawns=respawns,
            faults_injected=_faults.injected_count(),
            deadline_misses=deadline_misses,
            store_hits=store_hits,
            store_misses=store_misses,
            store_writes=store_writes,
            store_corrupt=store_corrupt,
            store_evictions=store_evictions,
            store_bytes_read=store_bytes_read,
            store_bytes_written=store_bytes_written,
        )

    # ---------------------------------------------------------------- internals

    def _bind(self, engine: ParallelCompiler) -> None:
        """Bind ``engine`` to the substrate before its first job here, so a
        ``processes`` pool's workers forked from now on inherit its evaluator code
        and grammar bundle instead of building and receiving them."""
        with self._lock:
            if engine in self._bound:
                return
            self._bound.add(engine)
        engine.prepare(self._substrate)

    def _execute(
        self,
        job: CompilationJob,
        deadline: Optional[Deadline] = None,
        cancel_token: Optional[CancelToken] = None,
    ) -> CompilationReport:
        started = time.perf_counter()
        did_parse = job.tree is None  # pre-built trees involve no parse phase
        try:
            with compiles_in_flight:
                # Deadline before cancel token at every boundary: callers cancel
                # *because* their budget ran out, and the spent budget is the more
                # specific diagnosis (it is also what deadline_misses counts).
                if deadline is not None:
                    deadline.check(f"job {job.label!r}")
                if cancel_token is not None:
                    cancel_token.check(f"job {job.label!r}")
                engine, tree = job.resolve()
                parsed = time.perf_counter()
                self._bind(engine)
                if deadline is not None:
                    # The parse phase may have consumed budget; re-check before the
                    # expensive compile, and hand the substrate only what remains.
                    deadline.check(f"job {job.label!r}")
                if cancel_token is not None:
                    cancel_token.check(f"job {job.label!r}")
                receive_bound = deadline.bound() if deadline is not None else None
                if self._artifact_cache is not None:
                    # Content-addressed region reuse across jobs: resubmitting the same
                    # (or a slightly edited) source replays every unchanged region.
                    from repro.incremental.engine import IncrementalCompiler

                    report, _ = IncrementalCompiler(
                        engine, self._artifact_cache
                    ).compile_tree(
                        tree,
                        job.machines,
                        root_inherited=job.root_inherited,
                        substrate=self._substrate,
                        receive_timeout=receive_bound,
                    )
                else:
                    report = engine.compile_tree(
                        tree,
                        job.machines,
                        root_inherited=job.root_inherited,
                        substrate=self._substrate,
                        receive_timeout=receive_bound,
                    )
                if deadline is not None:
                    # Strict semantics: a deadline-bearing job never reports success
                    # after its budget — the caller has already given up on it.
                    deadline.check(f"job {job.label!r}")
        except BaseException as error:
            with self._lock:
                self._failed += 1
                if isinstance(error, DeadlineExceeded):
                    self._deadline_misses += 1
            raise
        finished = time.perf_counter()
        if did_parse:
            report.wall_parse_seconds = parsed - started
        with self._lock:
            self._completed += 1
            self._latencies.append(finished - started)
            if did_parse:
                self._parse_latencies.append(parsed - started)
            self._compile_latencies.append(finished - parsed)
            self._region_cache_hits += report.region_cache_hits
            self._region_cache_misses += report.region_cache_misses
        return report
