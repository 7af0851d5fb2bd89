"""Every input of every workload, derived from ``--seed`` before any clock starts.

The program under test only ever receives what this module generated, so a
held-out seed runs the benchmark unchanged.  Inputs are written to
``out/tmp/inputs-<workload>-<seed>.json`` (the cold-start children read them
from there) and their content hash is echoed in the results.

``runner.py`` runs this file as a **short-lived subprocess**

    inputs.py WORKLOAD SEED OPS DIRECTORY

so that neither program generation nor the reference compiles below ever run in
a process whose memory and CPU are charged to the system under test: ``VmHWM``
is a lifetime high-water mark, and forked pool workers start from their
parent's resident set.

What the seed varies is *content* — which routines, statements, literals and
identifiers a program has.  What it must not vary is *size*: compile time is
close to linear in source length, and ``generate_program`` lengths spread by
±4 % across seeds, which would put input noise on top of machine noise in every
cross-seed comparison.  Each program is therefore the closest-to-target-length
draw out of a small seeded batch of candidates (``_sized_program``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys
from typing import Any, Dict, List, Tuple

from repro import Compiler, CompilerConfiguration
from repro.pascal.programs import generate_program

#: ``machines`` of each workload; every worker pool is ``<= 4`` on the 2-core box.
MACHINES = {"paper_sweep": 2, "edit_tail": 4, "edit_head": 4, "http_sessions": 4}

#: The paper's program (``paper_sized_program``: 46 routines of 8 statements,
#: ~34 k chars, ~0.45 s a compile) with 2 statements a routine, so that 63
#: compiles and 9 cold starts fit one run of the driver's time budget.  The 46
#: routines stay: with fewer, larger ones the partitioner's split moves with
#: the seed (16 x 8 gave 3 or 4 regions at ``machines=4`` and a largest share
#: of 0.51-0.57 at ``machines=2``); with 46 it is 4 regions and 0.50-0.53.
PAPER_SHAPE = {"procedures": 46, "statements_per_procedure": 2}
PAPER_CHARS = 16_000
#: Big enough to decompose into more than one region at ``machines=4``
#: (ROADMAP item 3).
DOCUMENT_SHAPE = {"procedures": 6, "statements_per_procedure": 2}
DOCUMENT_CHARS = 5_400
ONESHOT_SHAPE = {"procedures": 2, "statements_per_procedure": 2}
ONESHOT_CHARS = 3_300
#: Edit + warm recompile rounds of one HTTP session script.
SCRIPT_EDITS = 1

#: Programs one ``paper_sweep`` run cycles through.  Two programs of equal
#: length still differ by ~10 % in compile cost (measured: allocation patterns
#: move the collectors' phase), so a run compiles a seeded sample of them, each
#: once per block, and the run sees the sample's mean cost.
PAPER_PROGRAMS = 7
#: Documents the edit workloads keep open in one session, edited in turn.  A
#: tail edit costs what its one dirty region costs, and the partitioner gives
#: the root region 19-24 % of a program depending on the seed: one document a
#: run put that +-6 % into every cross-seed comparison, seven average it out.
EDIT_DOCUMENTS = 7

_CANDIDATES = 8
_LITERAL = re.compile(r":= (\d+);")


def _sized_program(rng: random.Random, target_chars: int, **shape: int) -> str:
    """The candidate closest to ``target_chars`` among a seeded batch of programs."""
    candidates = [
        generate_program(seed=rng.randrange(1 << 30), **shape)
        for _ in range(_CANDIDATES)
    ]
    return min(candidates, key=lambda text: abs(len(text) - target_chars))


def _literal_site(source: str, which: str) -> Tuple[int, int]:
    """``[start, end)`` of the first or last ``:= N;`` integer literal."""
    matches = list(_LITERAL.finditer(source))
    match = matches[0] if which == "head" else matches[-1]
    return match.start(1), match.end(1)


def _fresh_literals(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct six-digit literals: never repeated, constant width."""
    return [str(value) for value in rng.sample(range(100_000, 1_000_000), count)]


def apply_edit(source: str, site: Tuple[int, int], literal: str) -> str:
    """``source`` with the literal at ``site`` replaced (what the reference compiles)."""
    return source[: site[0]] + literal + source[site[1]:]


def paper_program(rng: random.Random) -> str:
    return _sized_program(rng, PAPER_CHARS, **PAPER_SHAPE)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_code(source: str, machines: int) -> str:
    """Generated code from a path no workload runs: seed evaluator, simulated substrate.

    Labels embed the machine count and the evaluator kind, so ``machines`` must
    match the run being checked; with it matched, every substrate, the
    incremental engine and the server all owe byte-identical text.
    """
    result = Compiler(
        "pascal",
        machines=machines,
        backend="simulated",
        configuration=CompilerConfiguration(
            use_compiled_plans=False, use_precompiled_tables=False
        ),
    ).compile(source)
    if not result.ok:
        raise RuntimeError(f"reference compile reported errors: {result.errors[:3]}")
    return result.value


def build(workload: str, seed: int, ops: int) -> Dict[str, Any]:
    """The inputs of ``workload`` for ``ops`` primary operations (warm-ups included),
    with the SHA-256 of the reference's output wherever a first result is checked."""
    rng = random.Random(f"ledger-{workload}-{seed}")
    machines = MACHINES[workload]
    if workload == "paper_sweep":
        sources = [paper_program(rng) for _ in range(PAPER_PROGRAMS)]
        body: Dict[str, Any] = {
            "sources": sources,
            "references": [digest(reference_code(s, machines)) for s in sources],
        }
    elif workload in ("edit_tail", "edit_head"):
        # Both edit workloads of one seed open the same documents.
        documents_rng = random.Random(f"ledger-documents-{seed}")
        sources = [paper_program(documents_rng) for _ in range(EDIT_DOCUMENTS)]
        which = workload[len("edit_"):]
        body = {
            "documents": [
                {"source": source, "site": list(_literal_site(source, which))}
                for source in sources
            ],
            # What a cold-start child builds first, and must match.
            "reference": digest(reference_code(sources[0], machines)),
            "literals": _fresh_literals(rng, ops),
        }
    elif workload == "http_sessions":
        scripts = []
        for _ in range(ops):
            document = _sized_program(rng, DOCUMENT_CHARS, **DOCUMENT_SHAPE)
            scripts.append(
                {
                    "document": document,
                    "site": list(_literal_site(document, "tail")),
                    "literals": _fresh_literals(rng, SCRIPT_EDITS),
                    "oneshot": _sized_program(rng, ONESHOT_CHARS, **ONESHOT_SHAPE),
                }
            )
        # What every cold-start server compiles first: a fresh server has no
        # cache, so one source serves all nine without ever being shared.
        coldstart = _sized_program(rng, ONESHOT_CHARS, **ONESHOT_SHAPE)
        body = {
            "scripts": scripts,
            "coldstart_oneshot": coldstart,
            "coldstart_reference": digest(reference_code(coldstart, machines)),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    canonical = json.dumps(body, sort_keys=True).encode("utf-8")
    return {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "sha256": hashlib.sha256(canonical).hexdigest(),
        **body,
    }


def write(inputs: Dict[str, Any], directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"inputs-{inputs['workload']}-{inputs['seed']}.json"
    )
    with open(path, "w") as handle:
        json.dump(inputs, handle)
    return path


if __name__ == "__main__":
    print(write(build(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])), sys.argv[4]))
