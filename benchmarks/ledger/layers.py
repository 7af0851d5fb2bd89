"""Per-layer metrics of a traced run: span digests plus layer micro-benchmarks.

Layers are the packages of ``src/repro``.  Two sources feed a layer's numbers,
both **outside** the program: the spans ``workloads.py`` recorded around its
calls during the traced blocks, and short micro-benchmarks here that call one
public function of a layer directly, on the workload's own inputs.  A metric a
workload does not exercise is reported as 0 — that *is* the prediction
("zero on ``paper_sweep``") and a later change that moves it off 0 shows — but
only where ``IDLE`` says beforehand that the layer has nothing to do there.
Anything else that was not measured, and any timing that reads 0, fails the run.

The names, units and directions are in ``BENCHMARK.json`` (``registry.py``).
"""

from __future__ import annotations

import shutil
import socket
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from registry import PER_LAYER as METRICS
from spans import Tracer

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

#: Per workload, the prefixes of the per-layer metrics that are expected to
#: have nothing to measure there; those, and only those, are emitted as 0 when
#: the run produced no sample for them.
_CLIENT_SIDE = ("service.", "server.")
_ONE_SHOT_ONLY = (
    "parsing.", "partition.plan.", "tree.", "backends.m1.", "backends.speedup_m2",
    "backends.threads.", "backends.simulated.", "backends.start_s",
    "backends.shutdown_s", "cluster.",
)
IDLE: Dict[str, Tuple[str, ...]] = {
    # No document, no cache, no store, no server.
    "paper_sweep": ("incremental.", "store.") + _CLIENT_SIDE,
    # The splice front end bypasses the parser; the one dirty region of a tail
    # edit is not recorded again, so nothing is put and nothing reaches the
    # store after the warm-up; an open document never reads the store.
    "edit_tail": _ONE_SHOT_ONLY + _CLIENT_SIDE + (
        "incremental.cache.put.", "store.write.", "store.blob_bytes.",
    ),
    "edit_head": _ONE_SHOT_ONLY + _CLIENT_SIDE,
    # Everything below the server runs in another process: only what the
    # client sees and what responses and /stats publish is measured.
    "http_sessions": _ONE_SHOT_ONLY + (
        "partition.", "backends.", "evaluation.", "distributed.", "api.",
        "incremental.", "store.",
    ),
}
#: What a smoke run leaves out: the sockets substrate takes 5 s to tear down.
SMOKE_SKIPS = ("cluster.start_s", "cluster.compile.", "cluster.shutdown_s")


def percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = (len(ordered) - 1) * fraction
    lower = int(index)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (index - lower)


class Sheet:
    """The metrics of one traced run, with the sample count behind each."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}

    def set(self, name: str, value: float, samples: int = 1) -> None:
        if name not in METRICS:
            raise KeyError(f"{name} is not a registered per-layer metric")
        self.values[name] = value
        self.samples[name] = samples

    def timing(self, name: str, seconds: List[float], fraction: float = 0.5) -> None:
        """A percentile of ``seconds`` in the metric's unit; no samples, no metric."""
        if seconds:
            scale = _SCALE[METRICS[name][0]]
            self.set(name, percentile(seconds, fraction) * scale, len(seconds))

    def finish(self, idle: Tuple[str, ...]) -> Tuple[Dict[str, Any], Dict[str, int]]:
        """Every per-layer metric: measured, or 0 where ``idle`` allows it."""
        metrics: Dict[str, Any] = {}
        for name, (unit, _) in METRICS.items():
            if name in self.values:
                if unit in _SCALE and not self.values[name] > 0:
                    raise RuntimeError(f"{name}: a measured time of {self.values[name]}")
                value = self.values[name]
            elif name.startswith(idle):
                value = 0
            else:
                raise RuntimeError(
                    f"{name} was neither measured nor declared idle on this workload"
                )
            metrics[name] = {"value": value, "unit": unit}
        return metrics, self.samples


def timed(call: Callable[[], Any], repeat: int) -> Tuple[List[float], Any]:
    """``repeat`` timings of ``call`` and its last result."""
    samples: List[float] = []
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = call()
        samples.append(time.perf_counter() - started)
    return samples, result


def per_op(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Op id → span name → summed duration, for ops the tracer saw whole."""
    table: Dict[str, Dict[str, float]] = {}
    for span in tracer.spans:
        if span["op"] is None:
            continue
        row = table.setdefault(span["op"], {})
        row[span["name"]] = row.get(span["name"], 0.0) + span["end"] - span["start"]
    return table


# ------------------------------------------------------------------------ shared


def run_digest(
    sheet: Sheet, tracer: Tracer, blocks: List[Dict], traced_blocks: List[Dict]
) -> None:
    plain = [value for block in blocks for value in block["latencies_ms"]]
    traced = [value for block in traced_blocks for value in block["latencies_ms"]]
    sheet.set("e2e.latency_p50_ms", percentile(plain, 0.5), len(plain))
    sheet.set("e2e.latency_p90_ms", percentile(plain, 0.9), len(plain))
    sheet.set(
        "trace.overhead_ratio", statistics.mean(traced) / statistics.mean(plain), len(traced)
    )


def compile_digest(sheet: Sheet, tracer: Tracer, frontend: str) -> None:
    """What a ``CompilationReport`` publishes, and what is left over around it."""
    sheet.timing("backends.ship.p50_ms", tracer.durations("backends.ship"))
    sheet.timing("backends.evaluate.p50_ms", tracer.durations("backends.evaluate"))
    sheet.timing("backends.evaluate.p90_ms", tracer.durations("backends.evaluate"), 0.9)
    rows = [row for row in per_op(tracer).values() if "distributed.compile" in row]
    sheet.timing(
        "distributed.overhead.p50_ms",
        [row["distributed.compile"] - row["backends.evaluate"] for row in rows],
    )
    sheet.timing(
        "api.overhead.p50_ms",
        [row["op"] - row[frontend] - row["distributed.compile"] for row in rows],
    )


def report_counts(sheet: Sheet, report: Any) -> None:
    regions = report.decomposition.regions
    sheet.set("partition.regions", len(regions))
    sheet.set(
        "partition.largest_region_share",
        max(region.size for region in regions) / report.decomposition.total_size,
    )
    sheet.set("backends.messages", report.network_messages)
    sheet.set("backends.bytes", report.network_bytes)
    sheet.set("evaluation.rules_evaluated", report.statistics.rules_evaluated)
    sheet.set("evaluation.dynamic_fraction", report.statistics.dynamic_fraction)


# ------------------------------------------------------------------- paper_sweep


def paper_layers(sheet: Sheet, workload: Any, tracer: Tracer, repeat: int, quick: bool) -> None:
    from repro import Compiler, Session
    from repro.partition.decomposition import plan_decomposition
    from repro.pascal import tokenize_pascal
    from repro.tree import shm
    from repro.tree.linearize import pack, unpack

    source, compiler = workload.source, workload.compiler
    compile_digest(sheet, tracer, "parsing.parse")
    report_counts(sheet, workload.last_report)

    # parsing: the lexer alone, then lexer + LALR parse as the op runs them.
    lex, tokens = timed(lambda: tokenize_pascal(source), repeat)
    sheet.timing("parsing.lex.p50_ms", lex)
    sheet.set("parsing.lex.tokens_per_s", len(tokens) / statistics.median(lex), len(lex))
    parses = tracer.durations("parsing.parse")
    sheet.timing("parsing.parse.p50_ms", parses)
    sheet.timing("parsing.parse.p90_ms", parses, 0.9)
    sheet.set("parsing.parse.nodes", workload.last_report.tree_nodes)

    # partition + tree: plan the regions, then pack / share / rebuild the largest
    # one exactly as the ship phase does.
    tree = compiler.parse(source)
    plans, plan = timed(lambda: plan_decomposition(tree, workload.machines), repeat)
    sheet.timing("partition.plan.p50_ms", plans)
    grammar = compiler.engine.grammar
    region = max(plan.regions, key=lambda candidate: candidate.size)
    holes = plan.holes_of(region.region_id)
    packs, packed = timed(lambda: pack(grammar, region.root, holes), repeat)
    sheet.timing("tree.pack.p50_ms", packs)
    sheet.set("tree.packed_bytes", packed.size_bytes())
    sheet.timing("tree.unpack.p50_ms", timed(lambda: unpack(grammar, packed), repeat)[0])
    shares: List[float] = []
    rebuilds: List[float] = []
    for _ in range(repeat):
        started = time.perf_counter()
        handle, segment = shm.share_packed(packed)
        shares.append(time.perf_counter() - started)
        try:
            started = time.perf_counter()
            shm.rebuild_shared(grammar, handle)
            rebuilds.append(time.perf_counter() - started)
        finally:
            segment.release()
    sheet.timing("tree.shm.share.p50_ms", shares)
    sheet.timing("tree.shm.rebuild.p50_ms", rebuilds)

    # backends: the paper's curve at its first two points, on real substrates.
    # m=1 and m=2 alternate so that drift hits both sides alike.
    def speedup(session: Any) -> Tuple[List[float], List[float]]:
        one = session.compiler("pascal", machines=1)
        two = session.compiler("pascal", machines=2)
        one.compile_tree(tree)  # fork / warm both shapes
        two.compile_tree(tree)
        singles: List[float] = []
        doubles: List[float] = []
        for _ in range(repeat):
            singles.extend(timed(lambda: one.compile_tree(tree), 1)[0])
            doubles.extend(timed(lambda: two.compile_tree(tree), 1)[0])
        return singles, doubles

    singles, doubles = speedup(workload.session)
    sheet.timing("backends.m1.p50_ms", singles)
    sheet.set(
        "backends.speedup_m2",
        statistics.median(singles) / statistics.median(doubles), len(doubles),
    )
    with Session(backend="threads") as threads:
        singles, doubles = speedup(threads)
    sheet.set(
        "backends.threads.speedup_m2",
        statistics.median(singles) / statistics.median(doubles), len(doubles),
    )
    modelled = [
        Compiler("pascal", machines=machines, backend="simulated")
        .compile_tree(tree).report.evaluation_time
        for machines in (1, 2)
    ]
    sheet.set("backends.simulated.speedup_m2", modelled[0] / modelled[1])

    # substrate lifecycle: a second pool, brought up, used once, torn down.
    started = time.perf_counter()
    pool = Session(backend="processes", machines=workload.machines).start()
    sheet.set("backends.start_s", time.perf_counter() - started)
    pool.compiler("pascal").compile_tree(tree)
    started = time.perf_counter()
    pool.close()
    sheet.set("backends.shutdown_s", time.perf_counter() - started)

    # cluster: the sockets substrate is traced-only until its teardown is fixed.
    from repro.cluster.wire import recv_message, send_message

    left, right = socket.socketpair()
    try:
        writer, reader = left.makefile("wb"), right.makefile("rb")
        back, forth = right.makefile("wb"), left.makefile("rb")

        def roundtrip() -> None:
            send_message(writer, packed)
            writer.flush()
            send_message(back, recv_message(reader))
            back.flush()
            recv_message(forth)

        sheet.timing("cluster.wire.roundtrip.p50_us", timed(roundtrip, repeat * 4)[0])
        for stream in (writer, reader, back, forth):
            stream.close()
    finally:
        left.close()
        right.close()
    if not quick:  # the 5 s teardown is more than a smoke run can afford
        started = time.perf_counter()
        cluster = Session(backend="sockets", machines=workload.machines).start()
        sheet.set("cluster.start_s", time.perf_counter() - started)
        try:
            remote = cluster.compiler("pascal")
            remote.compile_tree(tree)
            sheet.timing(
                "cluster.compile.p50_ms", timed(lambda: remote.compile_tree(tree), repeat)[0]
            )
        finally:
            started = time.perf_counter()
            cluster.close()
            sheet.set("cluster.shutdown_s", time.perf_counter() - started)


# ------------------------------------------------------------ edit_tail / edit_head


def edit_layers(sheet: Sheet, workload: Any, tracer: Tracer, repeat: int, quick: bool) -> None:
    from repro.incremental.cache import (
        REGION_NAMESPACE,
        decode_artifact,
        encode_artifact,
    )

    compile_digest(sheet, tracer, "incremental.frontend")
    report_counts(sheet, workload.last.report)
    sheet.timing("incremental.edit.p50_us", tracer.durations("incremental.edit"))
    sheet.timing("incremental.frontend.p50_ms", tracer.durations("incremental.frontend"))
    sheet.timing("incremental.compile.p50_ms", tracer.durations("incremental.recompile"))
    gets = tracer.durations("incremental.cache.get")
    puts = tracer.durations("incremental.cache.put")
    sheet.timing("incremental.cache.get.p50_us", gets)
    sheet.timing("incremental.cache.put.p50_us", puts)
    counts = workload.counts()
    sheet.set("incremental.regions_evaluated", counts["incremental.regions_evaluated"])
    sheet.set("incremental.regions_reused", counts["incremental.regions_reused"])
    cache = workload.cache
    sheet.set("incremental.cache.hit_rate", cache.hit_rate, cache.hits + cache.misses)

    artifact = workload.artifact
    if artifact is not None:
        encodes, payload = timed(lambda: encode_artifact(artifact), repeat * 4)
        sheet.timing("incremental.encode.p50_us", encodes)
        sheet.timing(
            "incremental.decode.p50_us",
            timed(lambda: decode_artifact(artifact.key, payload), repeat * 4)[0],
        )

    # store: the write-behind thread's writes were wrapped during traced blocks;
    # reads only happen after a restart, so time them here on the live store.
    cache.flush()
    store = cache.store
    writes = [s for s in tracer.spans if s["name"] == "store.write"]
    sheet.timing("store.write.p50_us", [s["end"] - s["start"] for s in writes])
    if writes:
        sheet.set(
            "store.blob_bytes.p50",
            statistics.median(s["bytes"] for s in writes), len(writes),
        )
    stats = store.stats()  # before the read micro-benchmark adds hits of its own
    sheet.set("store.hits", stats.hits)
    sheet.set("store.misses", stats.misses)
    sheet.set("store.writes", stats.writes)
    if artifact is not None:
        store.write(REGION_NAMESPACE, artifact.key, encode_artifact(artifact))
        sheet.timing(
            "store.read.p50_us",
            timed(lambda: store.read(REGION_NAMESPACE, artifact.key), repeat * 4)[0],
        )

    # What the persistent tier buys a restarted process: the same cold-start
    # child against the warmed store and against an empty one.
    warm: List[float] = []
    cold: List[float] = []
    for _ in range(1 if quick else 2):
        shutil.rmtree(workload.empty_store, ignore_errors=True)
        warm.append(workload.cold_start())
        cold.append(workload.cold_start(store=workload.empty_store))
    sheet.timing("store.first_build_warm_ms", warm)
    sheet.timing("store.first_build_cold_ms", cold)


# ------------------------------------------------------------------- http_sessions


def http_layers(sheet: Sheet, workload: Any, tracer: Tracer, repeat: int, quick: bool) -> None:
    from repro import CompilationJob, CompilationService
    from workloads import request

    requests = (
        "server.open", "server.edit", "server.recompile_cold",
        "server.recompile_warm", "server.close", "server.oneshot",
    )
    for name in requests:
        sheet.timing(f"{name}.p50_ms", tracer.durations(name))
    cold = tracer.durations("server.recompile_cold")
    warm = tracer.durations("server.recompile_warm")
    if cold and warm:
        sheet.set(
            "server.warm_over_cold",
            statistics.median(warm) / statistics.median(cold), len(warm),
        )
    # Overhead of a compiling request: what the client waited beyond the parse
    # and compile the response itself accounts for — read, admission, queue,
    # thread hop, serialize, write.
    self_times = tracer.self_times()
    compiling = {s["parent"] for s in tracer.spans if s["name"] == "service.compile"}
    sheet.timing(
        "server.overhead.p50_ms", [self_times[span_id] for span_id in compiling]
    )
    sizes = [s["response_bytes"] for s in tracer.spans if s["id"] in compiling]
    if sizes:
        sheet.set("server.response_bytes.p50", statistics.median(sizes), len(sizes))

    connection = workload.connections[0]
    sheet.timing(
        "server.healthz.p50_ms",
        timed(lambda: request(connection, "GET", "/healthz"), repeat * 4)[0],
    )
    counts = workload.counts()
    for name, value in counts.items():
        sheet.set(name, value)

    # service: the same one-shot sources, minus HTTP, through an in-process service.
    sources = [script["oneshot"] for script in workload.scripts[: repeat + 1]]
    with CompilationService("threads") as service:
        submits: List[float] = []
        for index, source in enumerate(sources):
            job = CompilationJob(language="pascal", source=source, machines=workload.machines)
            started = time.perf_counter()
            service.submit(job).result()
            if index:  # the first job pays the service's own lazy start
                submits.append(time.perf_counter() - started)
        stats = service.stats()
    sheet.timing("service.submit.p50_ms", submits)
    sheet.set("service.parse_p50_ms", stats.parse_p50 * 1e3, stats.jobs_completed)
    sheet.set("service.compile_p50_ms", stats.compile_p50 * 1e3, stats.jobs_completed)
    sheet.set("service.jobs_failed", counts["service.jobs_failed"] + stats.jobs_failed)


def measure(
    workload: Any, tracer: Tracer, blocks: List[Dict], traced_blocks: List[Dict], quick: bool
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    sheet = Sheet()
    run_digest(sheet, tracer, blocks, traced_blocks)
    repeat = 1 if quick else 5
    if workload.name == "paper_sweep":
        paper_layers(sheet, workload, tracer, repeat, quick)
    elif workload.name == "http_sessions":
        http_layers(sheet, workload, tracer, repeat, quick)
    else:
        edit_layers(sheet, workload, tracer, repeat, quick)
    idle = IDLE[workload.name] + (SMOKE_SKIPS if quick else ())
    return sheet.finish(idle)
