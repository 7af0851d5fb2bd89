"""Tests for :mod:`repro.tree.shm`: a packed region round-tripped through a segment.

The module is a fixture of the ledger's traced ``paper_sweep`` micro-benchmark;
no substrate ships through it.  What is checked: the round trip rebuilds the
tree ``unpack`` rebuilds, ``release`` really unlinks and may be repeated, and no
step starts ``multiprocessing.resource_tracker``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro.distributed.compiler import ParallelCompiler
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.tree import shm
from repro.tree.linearize import pack, unpack

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="processes backend requires the fork start method",
)


@pytest.fixture(scope="module")
def split_grammar():
    return expression_grammar(min_split_size=60)


@pytest.fixture(scope="module")
def big_tree(split_grammar):
    source = random_expression_source(250, seed=11, nesting=6)
    return parse_expression(source, split_grammar)


def _on_dev_shm(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


def _run_isolated(script: str) -> str:
    """Run ``script`` in a fresh interpreter with ``src`` on the path; its stdout."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [entry for entry in [environment.get("PYTHONPATH")] if entry]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


#: Prints whether this interpreter started a resource tracker and which children
#: it still has.
_CENSUS = """
import os
from multiprocessing import resource_tracker
children = set()
for task in os.listdir("/proc/self/task"):
    with open(f"/proc/self/task/{task}/children") as listing:
        children.update(listing.read().split())
print(resource_tracker._resource_tracker._pid, sorted(children))
"""


class TestShareAndRebuild:
    def test_roundtrip_matches_unpack(self, split_grammar, big_tree):
        packed = pack(split_grammar, big_tree)
        handle, segment = shm.share_packed(packed)
        try:
            assert handle[-1] == packed.size_bytes()
            shared_root, shared_holes = shm.rebuild_shared(split_grammar, handle)
            packed_root, packed_holes = unpack(
                split_grammar, pack(split_grammar, big_tree)
            )
            assert shared_holes == {} and packed_holes == {}
            shared_nodes = list(shared_root.walk())
            packed_nodes = list(packed_root.walk())
            assert len(shared_nodes) == len(packed_nodes)
            for ours, theirs in zip(shared_nodes, packed_nodes):
                assert ours.symbol.name == theirs.symbol.name
                assert ours.is_terminal == theirs.is_terminal
                if ours.is_terminal:
                    assert ours.token_value == theirs.token_value
        finally:
            segment.release()

    def test_handle_pickles_small(self, split_grammar, big_tree):
        packed = pack(split_grammar, big_tree)
        handle, segment = shm.share_packed(packed)
        try:
            wire = pickle.dumps(handle)
            assert len(wire) < 256
            assert len(wire) < len(pickle.dumps(packed))
            clone = pickle.loads(wire)
            root, _holes = shm.rebuild_shared(split_grammar, clone)
            assert root.symbol.name == big_tree.symbol.name
        finally:
            segment.release()

    def test_rebuild_after_unlink_while_mapped_is_not_required(
        self, split_grammar, big_tree
    ):
        """Release before any rebuild: the segment is gone and attaching fails."""
        handle, segment = shm.share_packed(pack(split_grammar, big_tree))
        segment.release()
        with pytest.raises((FileNotFoundError, OSError)):
            shm.rebuild_shared(split_grammar, handle)


class TestSegmentLifecycle:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_share_registers_and_release_unregisters(self, split_grammar, big_tree):
        handle, segment = shm.share_packed(pack(split_grammar, big_tree))
        assert _on_dev_shm(handle[0])
        segment.release()
        assert not _on_dev_shm(handle[0])

    def test_release_is_idempotent(self, split_grammar, big_tree):
        _handle, segment = shm.share_packed(pack(split_grammar, big_tree))
        segment.release()
        segment.release()  # must not raise


class TestShipFaultInjection:
    """No substrate ships a region through shared memory."""

    @requires_fork
    def test_processes_never_ships_segments(self, split_grammar, big_tree, monkeypatch):
        def forbidden(packed):  # pragma: no cover - the assertion is the point
            raise AssertionError("the processes substrate must not ship shared memory")

        monkeypatch.setattr(shm, "share_packed", forbidden)
        report = ParallelCompiler(split_grammar).compile_tree(
            big_tree, 4, backend="processes"
        )
        assert report.root_attributes["value"] is not None

    def test_sockets_never_ships_segments(self, split_grammar, big_tree, monkeypatch):
        def forbidden(packed):  # pragma: no cover - the assertion is the point
            raise AssertionError("sockets substrate must not ship shared memory")

        monkeypatch.setattr(shm, "share_packed", forbidden)
        report = ParallelCompiler(split_grammar).compile_tree(
            big_tree, 4, backend="sockets"
        )
        assert report.root_attributes["value"] is not None


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
class TestNoResourceTracker:
    """Nothing the product or the benchmark fixture does starts the tracker.

    Each check runs in a fresh interpreter, so a tracker started by anything else
    in this test process cannot hide or fake the result.
    """

    @requires_fork
    def test_processes_compiles_start_no_tracker(self):
        out = _run_isolated(
            """
from repro import Session
from repro.distributed.compiler import ParallelCompiler
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.pascal.programs import generate_program

with Session(backend="processes", machines=2) as session:
    result = session.compile("pascal", generate_program(procedures=8))
    assert result.report.decomposition.region_count == 2
grammar = expression_grammar(min_split_size=60)
tree = parse_expression(random_expression_source(120, seed=5, nesting=5), grammar)
ParallelCompiler(grammar).compile_tree(tree, 2, backend="processes")
"""
            + _CENSUS
        )
        assert out.split() == ["None", "[]"]

    def test_share_rebuild_release_starts_no_tracker(self):
        out = _run_isolated(
            """
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.tree import shm
from repro.tree.linearize import pack

grammar = expression_grammar(min_split_size=60)
tree = parse_expression(random_expression_source(120, seed=5, nesting=5), grammar)
handle, segment = shm.share_packed(pack(grammar, tree))
try:
    shm.rebuild_shared(grammar, handle)
finally:
    segment.release()
"""
            + _CENSUS
        )
        assert out.split() == ["None", "[]"]
