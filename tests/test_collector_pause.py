"""Automatic cyclic collection is paused while any in-process compile is in flight.

Every in-process entry point (``Compiler``/``Session`` compiles, a
``CompilationService`` job, ``Document.recompile``) enters one process-wide guard,
:data:`repro.backends.base.compiles_in_flight`.  The first compile to enter turns
automatic collection off, the last one to leave turns it back on, and only if it was
on to begin with.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro import Compiler, Session
from repro.backends.base import compiles_in_flight
from repro.distributed.compiler import ParallelCompiler
from repro.parsing.parser import ParseError
from repro.pascal.programs import generate_program
from repro.service import CompilationJob, CompilationService

MACHINES = 4


@pytest.fixture(scope="module")
def source():
    return generate_program(procedures=46)


class _Cycle:
    pass


def _make_cycle() -> weakref.ref:
    """A two-object reference cycle that only the cyclic collector can free."""
    node = _Cycle()
    node.other = _Cycle()
    node.other.other = node
    return weakref.ref(node)


def _allocate():
    """Enough tracked allocations to trip a young collection, if one is due."""
    return [[] for _ in range(2 * gc.get_threshold()[0])]


@pytest.fixture
def collections_in_flight():
    """Collections that start while a compile is in flight, counted by ``gc.callbacks``."""
    started = []

    def on_collection(phase, info):
        if phase == "start" and compiles_in_flight.snapshot()["compiles_in_flight"]:
            started.append(info["generation"])

    gc.callbacks.append(on_collection)
    try:
        yield started
    finally:
        gc.callbacks.remove(on_collection)


@pytest.fixture
def engine_calls(monkeypatch):
    """The guard's depth as each evaluation starts: evaluation runs inside the guard."""
    depths = []
    original = ParallelCompiler.compile_tree

    def compile_tree(self, *args, **kwargs):
        depths.append(compiles_in_flight.snapshot()["compiles_in_flight"])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ParallelCompiler, "compile_tree", compile_tree)
    return depths


def _session_compile(session, source):
    return session.compile("pascal", source, machines=MACHINES).value


def _service_job(session, source):
    service = CompilationService(session.substrate)
    try:
        job = CompilationJob(language="pascal", source=source, machines=MACHINES)
        report = service.submit(job).result(timeout=60)
    finally:
        service.shutdown()
    return report.code_text("code")


def _document_recompile(session, source):
    with session.open("pascal", source, machines=MACHINES) as document:
        document.recompile()
        literal = source.index(":= 1")
        document.edit(literal, literal + 4, ":= 2")
        return document.recompile().value


ENTRY_POINTS = {
    "session": _session_compile,
    "service": _service_job,
    "document": _document_recompile,
}


class TestCollectorPausedWhileCompiling:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("collector_on", [True, False])
    def test_no_collection_while_in_flight(
        self, entry, collector_on, source, collections_in_flight, engine_calls
    ):
        compile_once = ENTRY_POINTS[entry]
        with Session(backend="threads", machines=MACHINES) as session:
            compile_once(session, source)  # tables, plans, lazy imports: built once
            del collections_in_flight[:], engine_calls[:]
            if not collector_on:
                gc.disable()
            try:
                assert compile_once(session, source)
                assert gc.isenabled() is collector_on
            finally:
                gc.enable()
        assert engine_calls and all(depth >= 1 for depth in engine_calls)
        assert collections_in_flight == []
        assert compiles_in_flight.snapshot()["compiles_in_flight"] == 0

    def test_overlapping_compiles_resume_when_the_last_one_ends(self, source, monkeypatch):
        """Two compiles on two threads: the first to finish leaves the collector
        paused, a cycle made during it outlives it, and the second one's end brings
        collection back and frees that cycle."""
        first_started, first_done = threading.Event(), threading.Event()
        cycles = []
        original = ParallelCompiler.compile_tree

        def compile_tree(self, *args, **kwargs):
            if threading.current_thread().name == "first":
                cycles.append(_make_cycle())
                first_started.set()
            else:
                assert first_started.wait(30)
                assert first_done.wait(60)  # in flight until the first one has ended
            return original(self, *args, **kwargs)

        compiler = Compiler("pascal", machines=MACHINES, backend="threads")
        reference = compiler.compile(source).value
        monkeypatch.setattr(ParallelCompiler, "compile_tree", compile_tree)
        values = {}

        def run(name):
            values[name] = compiler.compile(source).value

        assert gc.isenabled()
        resumes = compiles_in_flight.snapshot()["resumes"]
        threads = [
            threading.Thread(target=run, args=(name,), name=name)
            for name in ("first", "second")
        ]
        threads[1].start()
        threads[0].start()
        try:
            threads[0].join(60)
            assert not threads[0].is_alive() and values["first"] == reference
            _allocate()
            assert not gc.isenabled()
            assert compiles_in_flight.snapshot() == {
                "compiles_in_flight": 1, "resumes": resumes,
            }
            assert cycles[0]() is not None
        finally:
            first_done.set()
            threads[1].join(60)
        assert not threads[1].is_alive() and values["second"] == reference
        assert gc.isenabled()
        assert compiles_in_flight.snapshot() == {
            "compiles_in_flight": 0, "resumes": resumes + 1,
        }
        _allocate()  # the first young collection after the pause finds the cycle
        assert cycles[0]() is None

    def test_a_failing_compile_resumes_collection(self):
        compiler = Compiler("pascal", machines=MACHINES, backend="threads")
        with pytest.raises(ParseError):
            compiler.compile("program broken; begin")
        assert gc.isenabled()
        assert compiles_in_flight.snapshot()["compiles_in_flight"] == 0

    def test_guard_survives_contention(self):
        """More threads than cores entering and leaving with a tiny switch interval:
        a lost update would leave a depth behind, or the collector off."""
        import sys

        entries_per_thread, threads_count = 2_000, 8
        resumes = compiles_in_flight.snapshot()["resumes"]
        seen_paused = []

        def churn():
            for _ in range(entries_per_thread):
                with compiles_in_flight:
                    if gc.isenabled():
                        seen_paused.append(False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen_paused == []  # never collecting while any thread is inside
        assert gc.isenabled()
        after = compiles_in_flight.snapshot()
        assert after["compiles_in_flight"] == 0
        assert 1 <= after["resumes"] - resumes <= entries_per_thread * threads_count


class TestNothingLeftForTheYoungCollection:
    @pytest.mark.parametrize("artifact_cache", [False, True])
    def test_service_one_shot_leaves_no_tree_node(self, artifact_cache, monkeypatch):
        """A source job is compiled from the recogniser's spans, so when the guard
        lets collection resume, no parse-tree node is left for it to walk."""
        from repro.backends.base import CompilesInFlight
        from repro.tree.node import ParseTreeNode

        source = generate_program(procedures=12)
        nodes_at_exit = []
        original = CompilesInFlight.__exit__

        def exit_(self, *exc_info):
            if self._depth == 1:
                nodes_at_exit.append(
                    sum(1 for o in gc.get_objects(generation=0) if type(o) is ParseTreeNode)
                )
            return original(self, *exc_info)

        with CompilationService("threads", artifact_cache=artifact_cache) as service:
            job = CompilationJob(language="pascal", source=source, machines=MACHINES)
            reference = service.submit(job).result(timeout=60)  # tables and plans
            gc.collect()
            monkeypatch.setattr(CompilesInFlight, "__exit__", exit_)
            edited = source.replace(":= 1", ":= 7", 1)
            report = service.submit(
                CompilationJob(language="pascal", source=edited, machines=MACHINES)
            ).result(timeout=60)
        assert report.decomposition.region_count == reference.decomposition.region_count
        assert nodes_at_exit == [0]
