"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import time
from typing import Optional, Set

import pytest

from repro.analysis.visit_sequences import build_evaluation_plan
from repro.exprlang.grammar import expression_grammar, expression_grammar_from_spec
from repro.parsing.parser import Parser


def _children() -> Optional[Set[int]]:
    """Pids of this process's children, live or zombie; ``None`` without /proc."""
    try:
        tasks = os.listdir("/proc/self/task")
    except FileNotFoundError:
        return None
    pids: Set[int] = set()
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as listing:
                pids.update(int(pid) for pid in listing.read().split())
        except FileNotFoundError:  # the thread exited while we looked
            continue
    return pids


def _describe(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            name, _, rest = stat.read().partition("(")[2].rpartition(")")
        with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
            command = cmdline.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return f"{pid} (gone)"
    return f"{pid} [{rest.split()[0]}] {command.strip() or f'[{name}] <defunct>'}"


@pytest.fixture(autouse=True)
def assert_no_leaked_children():
    """Every test must reap every process it started.

    A child of the pytest process that is still there after the test — running or
    an unreaped zombie — is a leak, including on failure paths.  The check polls
    for up to 2 s, so a worker already on its way out does not trip it, and returns
    at once when nothing is left.  Without ``/proc`` it does nothing.
    """
    before = _children()
    yield
    if before is None:
        return
    patience = time.monotonic() + 2.0
    while True:
        leaked = _children() - before
        if not leaked or time.monotonic() >= patience:
            break
        time.sleep(0.02)
    assert not leaked, "child processes left behind: " + "; ".join(
        _describe(pid) for pid in sorted(leaked)
    )


@pytest.fixture(scope="session")
def expr_grammar():
    """The appendix expression grammar (built programmatically)."""
    return expression_grammar()


@pytest.fixture(scope="session")
def expr_grammar_spec():
    """The appendix expression grammar parsed from its textual specification."""
    return expression_grammar_from_spec()


@pytest.fixture(scope="session")
def expr_plan(expr_grammar):
    """Ordered-evaluation plan for the expression grammar."""
    return build_evaluation_plan(expr_grammar)


@pytest.fixture(scope="session")
def expr_parser(expr_grammar):
    """A shared LALR parser for the expression grammar."""
    return Parser(expr_grammar)
