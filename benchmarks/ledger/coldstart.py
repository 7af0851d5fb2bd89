"""The cold-start child: fresh interpreter → import → substrate up → first verified result.

``runner.py`` launches one of these before every block and times it from
process start to the ``verified`` line below — ``setup_s`` is their median.  Teardown
happens after the line is printed and is not charged.

    coldstart.py paper_sweep INPUTS EXPECTED_SHA256
    coldstart.py edit_tail|edit_head INPUTS EXPECTED_SHA256 STORE_DIR

The expected hash comes from the runner's reference compile; the child never
computes the reference itself (that would be charged to the system under test).
"""

from __future__ import annotations

import hashlib
import json
import sys


def main(argv) -> int:
    workload, inputs_path, expected = argv[0], argv[1], argv[2]
    from repro import Session

    with open(inputs_path, "r") as handle:
        inputs = json.load(handle)
    if workload == "paper_sweep":
        session = Session(backend="processes", machines=2).start()
        result = session.compiler("pascal").compile(inputs["sources"][0])
    else:
        # A document opened against the store one earlier build warmed: the
        # persistent tier stands in for everything the restart forgot.
        session = Session(backend="processes", machines=4, store=argv[3]).start()
        result = session.open("pascal", inputs["documents"][0]["source"]).recompile()
    verified = (
        result.ok
        and hashlib.sha256(result.value.encode("utf-8")).hexdigest() == expected
    )
    print("verified" if verified else "mismatch", flush=True)
    if workload != "paper_sweep":
        session.artifact_cache.close()
    session.close()
    return 0 if verified else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
