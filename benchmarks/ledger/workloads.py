"""The four workloads: what one primary operation is, and how it is verified.

All four are **closed loops** — every caller waits for its reply before sending
the next request — driven from the runner process with at most ``nproc`` (2)
client threads, against worker pools of ``machines <= 4``.

Each class exposes the same small surface to ``runner.py``:

``start()``            bring the system under test up and warm it (off the clock)
``root_pid()``         root of the process tree whose CPU and RSS are charged
``cold_start()``       one fresh-interpreter start → first verified result, seconds
``run_block(b, n)``    ``n`` primary ops; returns their latencies and failures.
                       Given a tracer, the same ops with a span around every
                       call into a layer (``instrument`` wraps the layers the
                       program calls itself)
``verify()``           off-the-clock reference check of a seeded sample of ops
``counts()``           count metrics that must repeat exactly between runs
``stop()``             tear the system down
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import Session

import inputs as inputs_module
from inputs import digest, reference_code
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds a cold-start child or a server may take before the op counts as failed.
DEADLINE = 60.0

#: How many ops of a block-verified workload are re-derived through the
#: reference after the measure phase.  Each costs a full seed-evaluator compile
#: of the document (~0.3 s), so the sample is what the driver's time cap leaves
#: room for; *every* op is still checked for success and for carrying its own
#: edit (see ``EditLoop._check``).
REFERENCE_SAMPLE = 4


def op_failed(what: str, error: BaseException) -> None:
    """An op that raised counts as failed; say why on stderr and carry on."""
    print(f"{what} failed: {type(error).__name__}: {error}", file=sys.stderr)


@contextmanager
def killed_at_deadline(process: subprocess.Popen) -> Iterator[None]:
    """Kill ``process`` if the enclosed wait outlasts ``DEADLINE`` (a blocked
    ``readline`` then returns empty and the caller reports the failure)."""
    watchdog = threading.Timer(DEADLINE, process.kill)
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()


def spawn_cold_child(arguments: List[str]) -> float:
    """Run ``coldstart.py``: seconds from process start to its verified first result."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "coldstart.py")] + arguments,
        stdout=subprocess.PIPE,
        text=True,
    )
    with killed_at_deadline(child):
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.wait()
    child.stdout.close()
    if line.strip() != "verified" or child.returncode != 0:
        raise RuntimeError(
            f"cold-start child failed: {line.strip()!r}, exit {child.returncode}"
        )
    return elapsed


class Workload:
    name = ""
    warmups = 0

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.output_hashes: List[str] = []
        #: What ``stop()`` tears down; unset until ``start()`` got that far.
        self.session: Optional[Session] = None

    @property
    def machines(self) -> int:
        return inputs_module.MACHINES[self.name]

    def prepare(self, seed: int, ops: int) -> Dict[str, Any]:
        """Every input of ``ops`` measured ops plus the warm-ups, and the
        references' hashes, made by ``inputs.py`` in a process of its own: this
        one is measured (CPU, ``VmHWM``) and must not do the reference's work."""
        made = subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), self.name, str(seed),
             str(self.warmups + ops), self.tmp],
            stdout=subprocess.PIPE, text=True, check=True, timeout=DEADLINE,
        )
        self.inputs_path = made.stdout.strip()
        with open(self.inputs_path, "r") as handle:
            self.inputs = json.load(handle)
        return self.inputs

    def root_pid(self) -> int:
        return os.getpid()

    def instrument(self, tracer: Tracer) -> None:
        """Wrap the layers the program calls itself; ``tracer.unwrap()`` undoes it."""

    def verify(self) -> int:
        return 0


# --------------------------------------------------------------------- paper_sweep


class PaperSweep(Workload):
    """The paper's own experiment: compile paper-sized programs on 2 machines.

    Parse, ship and parallel evaluation do all the work; ``incremental``,
    ``store``, ``service`` and ``server`` do none.  Ops cycle through the
    run's seeded sample of programs, so every block holds each program once.
    """

    name = "paper_sweep"
    warmups = 2  # the pool forks and the caches fill; the other programs meet a warm pool

    def start(self) -> None:
        self.sources = self.inputs["sources"]
        self.source = self.sources[0]  # what cold starts and micro-benchmarks compile
        self.references = self.output_hashes = self.inputs["references"]
        self.cursor = 0
        self.session = Session(backend="processes", machines=self.machines).start()
        self.compiler = self.session.compiler("pascal")
        _, failed = self.run_block(-1, self.warmups)
        if failed:
            raise RuntimeError("warm-up compile does not match the reference")

    def cold_start(self) -> float:
        return spawn_cold_child([self.name, self.inputs_path, self.references[0]])

    def run_block(
        self, block: int, ops: int, tracer: Optional[Tracer] = None
    ) -> Tuple[List[float], int]:
        latencies: List[float] = []
        failed = 0
        for index in range(ops):
            which = self.cursor % len(self.sources)
            source = self.sources[which]
            self.cursor += 1
            try:
                if tracer is None:
                    started = time.perf_counter()
                    result = self.compiler.compile(source)
                    elapsed = time.perf_counter() - started
                else:
                    # ``Compiler.compile`` taken apart at its two public seams.
                    with tracer.span("op", op=f"{self.name}.b{block}.o{index}") as op:
                        with tracer.span("parsing.parse") as parse:
                            tree = self.compiler.parse(source)
                        with tracer.span("api.compile_tree") as call:
                            result = self.compiler.compile_tree(
                                tree, wall_parse_seconds=parse["end"] - parse["start"]
                            )
                        report_spans(tracer, call, result.report)
                    elapsed = op["end"] - op["start"]
            except Exception as error:
                op_failed(f"{self.name} block {block} op {index}", error)
                failed += 1
                continue
            # Every op's output is compared, by hash, with its program's reference.
            if result.ok and digest(result.value) == self.references[which]:
                latencies.append(elapsed)
            else:
                failed += 1
            if which == 0:
                self.last_report = result.report
        return latencies, failed

    def counts(self) -> Dict[str, int]:
        report = self.last_report
        return {
            "partition.regions": report.decomposition.region_count,
            "parsing.parse.nodes": report.tree_nodes,
            "evaluation.rules_evaluated": report.statistics.rules_evaluated,
        }

    def stop(self) -> None:
        if self.session is not None:
            self.session.close()


def report_spans(tracer: Tracer, call: Dict[str, Any], report: Any) -> None:
    """The phases a ``CompilationReport`` publishes, as children of the timed call.

    ``distributed.compile`` is what ``compile_tree`` reports for itself; its
    self time is decomposition, librarian assembly and result extraction.  The
    parser process ships the regions *inside* the backend run, so ``ship`` nests
    under ``evaluate`` (whose self time is then the evaluators' critical path).
    The timed call's own self time is the ``api`` facade.
    """
    distributed = tracer.reported("distributed.compile", report.wall_time_seconds, call)
    evaluate = tracer.reported(
        "backends.evaluate", report.wall_evaluation_seconds, distributed
    )
    tracer.reported("backends.ship", report.wall_ship_seconds, evaluate)


# ------------------------------------------------------------- edit_tail / edit_head


class EditLoop(Workload):
    """Keystroke-sized edits to the open ``Document``s of a store-backed session,
    taken in turn (why there are several: ``inputs.EDIT_DOCUMENTS``).

    ``edit_tail`` edits the *last* literal: one region of four is evaluated and
    three replay — the read side of ``incremental``.  ``edit_head`` edits the
    *first*: all four regions are dirty, none hits, four recordings are put and
    written behind to the store — the write side of the same layers.
    """

    warmups = inputs_module.EDIT_DOCUMENTS  # one edit of every document

    def __init__(self, name: str, tmp: str):
        super().__init__(tmp)
        self.name = name
        self.stores: List[str] = []

    def start(self) -> None:
        self.sources = [entry["source"] for entry in self.inputs["documents"]]
        self.sites = [tuple(entry["site"]) for entry in self.inputs["documents"]]
        self.literals = list(self.inputs["literals"])
        self.cursor = 0  # next unused literal; op i edits document i mod 7
        # Width of the literal currently in place in each document.
        self.widths = [end - start for start, end in self.sites]

        # live: under the measured documents; warm: what cold-start children
        # mount; empty: the traced run's "restart without a store" comparison.
        self.live_store, self.warm_store, self.empty_store = self.stores = [
            os.path.join(self.tmp, f"store-{kind}-{self.name}")
            for kind in ("live", "warm", "empty")
        ]
        for path in self.stores:
            shutil.rmtree(path, ignore_errors=True)
        self.session = Session(
            backend="processes", machines=self.machines, store=self.live_store
        ).start()
        self.cache = self.session.artifact_cache
        self.documents = []
        for source in self.sources:
            document = self.session.open("pascal", source)
            first = document.recompile()
            if not first.ok:
                raise RuntimeError("cold build of a document failed")
            if not self.documents:
                if digest(first.value) != self.inputs["reference"]:
                    raise RuntimeError("cold build does not match the reference")
                # The store as one full build of the first document left it is
                # what every cold-start child mounts; the live store keeps
                # growing under the other documents and the measured edits.
                self.cache.flush()
                shutil.copytree(self.live_store, self.warm_store)
            self.documents.append(document)

        sample_rng = random.Random(f"sample-{self.inputs['sha256']}")
        measured = range(self.warmups, len(self.literals))
        self.sampled = set(
            sample_rng.sample(measured, min(REFERENCE_SAMPLE, len(measured)))
        )
        self.kept: Dict[int, str] = {}
        self.artifact: Any = None  # the last RegionArtifact the traced cache saw
        self.regions_evaluated = self.regions_reused = 0
        _, failed = self.run_block(-1, self.warmups)
        if failed:
            raise RuntimeError("warm-up edit failed")
        self.regions_evaluated = self.regions_reused = 0
        self.output_hashes = []

    def _check(self, index: int, result: Any) -> bool:
        """Success, and the op's own fresh literal present in the generated code."""
        if not result.ok:
            return False
        self.last = result
        self.regions_evaluated += result.incremental.regions_evaluated
        self.regions_reused += result.incremental.regions_reused
        self.output_hashes.append(digest(result.value))
        if index in self.sampled:
            self.kept[index] = result.value
        return self.literals[index] in result.value

    def cold_start(self, store: Optional[str] = None) -> float:
        return spawn_cold_child(
            [
                self.name,
                self.inputs_path,
                self.inputs["reference"],
                store or self.warm_store,
            ]
        )

    def instrument(self, tracer: Tracer) -> None:
        def seen(span: Dict[str, Any], args: tuple, result: Any) -> None:
            artifact = result if result is not None else args[0]
            if not isinstance(artifact, str):  # a get() miss leaves only the key
                self.artifact = artifact

        def blob(span: Dict[str, Any], args: tuple, result: Any) -> None:
            span["bytes"] = len(args[2])

        tracer.wrap(self.cache, "get", "incremental.cache.get", seen)
        tracer.wrap(self.cache, "put", "incremental.cache.put", seen)
        tracer.wrap(self.cache.store, "read", "store.read")
        tracer.wrap(self.cache.store, "write", "store.write", blob)

    def run_block(
        self, block: int, ops: int, tracer: Optional[Tracer] = None
    ) -> Tuple[List[float], int]:
        latencies: List[float] = []
        failed = 0
        for position in range(ops):
            index = self.cursor
            literal = self.literals[index]
            self.cursor += 1
            which = index % len(self.documents)
            document = self.documents[which]
            start, width = self.sites[which][0], self.widths[which]
            try:
                if tracer is None:
                    started = time.perf_counter()
                    document.edit(start, start + width, literal)
                    self.widths[which] = len(literal)
                    result = document.recompile()
                    elapsed = time.perf_counter() - started
                else:
                    with tracer.span("op", op=f"{self.name}.b{block}.o{position}") as op:
                        with tracer.span("incremental.edit"):
                            document.edit(start, start + width, literal)
                        self.widths[which] = len(literal)
                        with tracer.span("incremental.recompile") as call:
                            result = document.recompile()
                        tracer.reported(
                            "incremental.frontend", result.wall_parse_seconds, call
                        )
                        report_spans(tracer, call, result.report)
                    elapsed = op["end"] - op["start"]
            except Exception as error:
                op_failed(f"{self.name} block {block} op {position}", error)
                failed += 1
                continue
            if self._check(index, result):
                latencies.append(elapsed)
            else:
                failed += 1
        return latencies, failed

    def verify(self) -> int:
        failed = 0
        for index, value in sorted(self.kept.items()):
            which = index % len(self.documents)
            text = inputs_module.apply_edit(
                self.sources[which], self.sites[which], self.literals[index]
            )
            if reference_code(text, self.machines) != value:
                failed += 1
        return failed

    def counts(self) -> Dict[str, int]:
        return {
            "incremental.regions_evaluated": self.regions_evaluated,
            "incremental.regions_reused": self.regions_reused,
            "partition.regions": self.last.report.decomposition.region_count,
        }

    def stop(self) -> None:
        if self.session is not None:
            self.session.artifact_cache.close()
            self.session.close()
        for path in self.stores:
            shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------------- http_sessions


class ServerProcess:
    """``python -m repro.server --backend threads`` as a subprocess, defaults otherwise."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--backend", "threads", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        with killed_at_deadline(self.process):
            line = self.process.stdout.readline()
        match = re.search(r"listening on http://([^:]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not announce its port: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=DEADLINE)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and reap; the exit code must be 0."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=DEADLINE)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        return self.process.returncode


def request(
    connection: http.client.HTTPConnection, method: str, path: str, body: Any = None
) -> Tuple[int, Any, int]:
    """One keep-alive JSON exchange: status, decoded payload, response bytes."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if data is not None else {}
    connection.request(method, path, body=data, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    return response.status, json.loads(raw), len(raw)


class HttpSessions(Workload):
    """Client bytes in → response bytes out of ``repro.server``, two callers.

    One primary op is one *session script* on a document nobody else has:
    open → recompile (cold) → edit the last literal + recompile (warm) →
    close → one one-shot ``POST /compile`` of a distinct small program.
    ``server``, ``service`` and the ``threads`` substrate work here and nowhere
    else.  Every source is distinct, so the coalescer must report no shares.
    """

    name = "http_sessions"
    callers = 2
    warmups = 2
    #: Scripts re-derived through the reference: two compiles each (~0.15 s).
    reference_sample = 6

    def __init__(self, tmp: str):
        super().__init__(tmp)
        self.server: Optional[ServerProcess] = None
        self.connections: List[http.client.HTTPConnection] = []

    def start(self) -> None:
        self.scripts = self.inputs["scripts"]
        self.cursor = 0
        self.server = ServerProcess()
        self.connections = [self.server.connect() for _ in range(self.callers)]
        sample_rng = random.Random(f"sample-{self.inputs['sha256']}")
        measured = range(self.warmups, len(self.scripts))
        self.sampled = set(
            sample_rng.sample(measured, min(self.reference_sample, len(measured)))
        )
        self.kept: Dict[int, Tuple[str, str]] = {}
        self.lock = threading.Lock()
        _, failed = self.run_block(-1, self.warmups)
        if failed:
            raise RuntimeError("warm-up session script failed")
        self.output_hashes = []
        self.stats_before = self.stats()

    def root_pid(self) -> int:
        return self.server.process.pid

    def stats(self) -> Dict[str, Any]:
        status, payload, _ = request(self.connections[0], "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return payload

    def cold_start(self) -> float:
        """Server process start → first one-shot response that matches the reference."""
        server = ServerProcess()
        try:
            connection = server.connect()
            try:
                status, payload, _ = request(
                    connection, "POST", "/compile",
                    {"language": "pascal", "source": self.inputs["coldstart_oneshot"],
                     "machines": self.machines},
                )
            except (OSError, http.client.HTTPException, ValueError) as error:
                raise RuntimeError(f"cold-start request failed: {error!r}") from error
            finally:
                connection.close()
            elapsed = time.perf_counter() - server.started
        finally:
            exit_code = server.stop()
        if status != 200 or not payload.get("ok"):
            raise RuntimeError(f"cold-start server answered {status}")
        if digest(payload["value"]) != self.inputs["coldstart_reference"]:
            raise RuntimeError("cold-start server's first result differs from the reference")
        if exit_code != 0:
            raise RuntimeError(f"cold-start server exited {exit_code} on SIGTERM")
        return elapsed

    def _script(
        self,
        connection: http.client.HTTPConnection,
        index: int,
        tracer: Optional[Tracer],
    ) -> bool:
        """One session script; ``True`` when every reply was right."""
        script = self.scripts[index]
        start, end = script["site"]
        ok = True
        final = ""

        def call(name: str, method: str, path: str, body: Any = None, expect: int = 200):
            nonlocal ok
            if tracer is None:
                status, payload, _ = request(connection, method, path, body)
            else:
                with tracer.span(name) as span:
                    status, payload, size = request(connection, method, path, body)
                span["response_bytes"] = size
                if "wall_compile_ms" in payload:
                    tracer.reported("service.parse", payload["wall_parse_ms"] / 1e3, span)
                    tracer.reported("service.compile", payload["wall_compile_ms"] / 1e3, span)
            if status != expect:
                ok = False
            return payload

        opened = call(
            "server.open", "POST", "/documents",
            {"language": "pascal", "source": script["document"], "machines": self.machines},
            expect=201,
        )
        sid = opened.get("document")
        if sid is None:
            return False
        base = f"/documents/{sid}"
        cold = call("server.recompile_cold", "POST", base + "/recompile", {})
        ok = ok and bool(cold.get("ok"))
        width = end - start
        for literal in script["literals"]:
            call("server.edit", "POST", base + "/edit",
                 {"edits": [[start, start + width, literal]]})
            width = len(literal)
            warm = call("server.recompile_warm", "POST", base + "/recompile", {})
            ok = ok and bool(warm.get("ok")) and literal in warm.get("value", "")
            final = warm.get("value", "")
        call("server.close", "DELETE", base)
        oneshot = call(
            "server.oneshot", "POST", "/compile",
            {"language": "pascal", "source": script["oneshot"], "machines": self.machines},
        )
        ok = ok and bool(oneshot.get("ok"))
        with self.lock:
            self.output_hashes.append(
                f"{index:04d}:{digest(final)}:{digest(oneshot.get('value', ''))}"
            )
            if index in self.sampled:
                self.kept[index] = (final, oneshot.get("value", ""))
        return ok

    def run_block(
        self, block: int, ops: int, tracer: Optional[Tracer] = None
    ) -> Tuple[List[float], int]:
        """``ops`` scripts split evenly over the callers, started together."""
        first = self.cursor
        self.cursor += ops
        latencies: List[float] = []
        failures: List[int] = []
        barrier = threading.Barrier(self.callers)

        def caller(slot: int) -> None:
            connection = self.connections[slot]
            barrier.wait()
            for index in range(first + slot, first + ops, self.callers):
                try:
                    if tracer is None:
                        started = time.perf_counter()
                        ok = self._script(connection, index, None)
                        elapsed = time.perf_counter() - started
                    else:
                        op = f"{self.name}.b{block}.o{index - first}"
                        with tracer.span("op", op=op) as span:
                            ok = self._script(connection, index, tracer)
                        elapsed = span["end"] - span["start"]
                except Exception as error:  # transport, framing or an odd payload
                    op_failed(f"{self.name} block {block} script {index}", error)
                    ok = False
                    connection.close()  # reconnects lazily on the next request
                with self.lock:
                    if ok:
                        latencies.append(elapsed)
                    else:
                        failures.append(index)

        threads = [
            threading.Thread(target=caller, args=(slot,)) for slot in range(self.callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return latencies, len(failures)

    def verify(self) -> int:
        failed = 0
        # Every source is distinct, so a request the coalescer shared was served
        # somebody else's answer.
        shared = self.counts()["server.coalesced"]
        if shared:
            print(f"the coalescer shared {shared} request(s) of distinct sources",
                  file=sys.stderr)
            failed += shared
        for index, (final, oneshot) in sorted(self.kept.items()):
            script = self.scripts[index]
            text = inputs_module.apply_edit(
                script["document"], tuple(script["site"]), script["literals"][-1]
            )
            if reference_code(text, self.machines) != final:
                failed += 1
            if reference_code(script["oneshot"], self.machines) != oneshot:
                failed += 1
        return failed

    def counts(self) -> Dict[str, int]:
        """``/stats`` counters accumulated since the warm-up finished."""
        before, after = self.stats_before, self.stats()
        admission = {
            key: after["admission"][key] - before["admission"][key]
            for key in ("queued", "rejected_quota", "rejected_queue")
        }
        return {
            "server.admission.queued": admission["queued"],
            "server.admission.rejected": admission["rejected_quota"]
            + admission["rejected_queue"],
            "server.coalesced": after["coalescing"]["coalesced"]
            - before["coalescing"]["coalesced"],
            "service.jobs_failed": after["service"]["jobs_failed"]
            - before["service"]["jobs_failed"],
        }

    def stop(self) -> None:
        for connection in self.connections:
            connection.close()
        if self.server is not None and self.server.stop() != 0:
            raise RuntimeError("server did not exit 0 on SIGTERM")


def create(name: str, tmp: str) -> Workload:
    if name == "paper_sweep":
        return PaperSweep(tmp)
    if name in ("edit_tail", "edit_head"):
        return EditLoop(name, tmp)
    if name == "http_sessions":
        return HttpSessions(tmp)
    raise ValueError(f"unknown workload {name!r}")

