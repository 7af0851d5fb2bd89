"""Cold start pays only for what a compile uses.

``import repro`` leaves the service layer, the HTTP front door (and ``asyncio``
with it) and the compile cluster unloaded until one of their names is used; a
``processes`` compile needs none of them.  Module state is per process, so the
import checks run in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
import repro.backends

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

#: Modules a compile on the ``processes`` substrate must not load.
HEAVY = ("asyncio", "repro.server", "repro.service", "repro.cluster", "repro.backends.sockets")

_COMPILE = """
import json, sys
import repro
from repro import Session
from repro.pascal.programs import generate_program

source = generate_program(procedures=4, statements_per_procedure=1)
with Session(backend="processes", machines=2) as session:
    result = session.compile("pascal", source)
print(json.dumps({"ok": result.ok, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


def _fresh_interpreter(script: str) -> dict:
    environment = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestLazySurface:
    def test_processes_compile_loads_no_server_service_or_cluster(self):
        outcome = _fresh_interpreter(_COMPILE)
        assert outcome == {"ok": True, "loaded": []}

    def test_star_import_resolves_every_advertised_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)  # noqa: S102 — the statement under test
        missing = [name for name in repro.__all__ if name not in namespace]
        assert missing == []
        from repro.server import CompileServer
        from repro.service import CompilationService

        assert namespace["CompileServer"] is CompileServer
        assert namespace["CompilationService"] is CompilationService

    def test_dir_lists_every_advertised_name(self):
        assert set(repro.__all__) <= set(dir(repro))
        assert {"server", "service", "cluster"} <= set(dir(repro))
        assert "SocketsSubstrate" in dir(repro.backends)

    def test_lazy_names_resolve_on_attribute_access(self):
        from repro.backends.sockets import SocketsSubstrate

        assert repro.backends.SocketsSubstrate is SocketsSubstrate
        assert isinstance(repro.backends.create_substrate("sockets"), SocketsSubstrate)
        assert repro.server.ServerConfig is repro.ServerConfig
        assert repro.cluster.__name__ == "repro.cluster"

    def test_unknown_names_still_raise_attribute_error(self):
        for module in (repro, repro.backends):
            try:
                getattr(module, "no_such_name")
            except AttributeError as error:
                assert "no_such_name" in str(error)
            else:
                raise AssertionError(f"{module.__name__}.no_such_name resolved")
