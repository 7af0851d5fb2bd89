"""Boundary-traffic recording for content-addressed region artifacts.

Incremental recompilation (:mod:`repro.incremental`) treats one region's evaluation
as a pure function from *(region content, boundary inputs)* to *(boundary outputs,
statistics)*.  The live protocol already confines cross-region traffic to region
boundaries (§ :mod:`repro.distributed.protocol`), so making that function cacheable
only needs the evaluator to *record* what crossed its boundary:

* every :class:`~repro.distributed.protocol.AttributeMessage` it received, as a
  content signature (the value itself is not needed again — only the ability to
  recognise "same inputs as last time");
* every message it sent — attribute exports to neighbouring regions and code
  fragments to the string librarian — verbatim, so a later run can *replay* them
  without re-evaluating the region.

Recording is pure bookkeeping: it yields no :class:`~repro.backends.base.Compute`
requests and sends no messages, so a recorded run is byte-identical (values, errors,
simulated times) to an unrecorded one.

Signatures are SHA-256 over the pickled wire value.  Wire values are picklable by
protocol contract, and the one structurally unstable value type — :class:`Rope` —
pickles canonically as its flattened text, so equal texts always sign equal.

A recorded fragment is kept in that same canonical form: one leaf of flattened
text.  The concat tree is a sender-side structure with one garbage-collector-tracked
node per emitted piece of code; a recording outlives its compile inside the
:class:`~repro.incremental.cache.ArtifactCache`, and a cache holding trees makes
every full collection of the serving process walk them.  The ``processes`` and
``sockets`` substrates and the store already deliver a recording in this form
(it crossed a pickle); flattening at record time makes ``threads`` and
``simulated`` hold the same thing.  ``size`` is recorded beside the text, so
replayed messages, simulated times and signatures do not depend on the shape.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.strings.rope import Rope

#: Key of one boundary attribute transfer: (peer region id, direction, attribute name).
#: ``direction`` is the message's own: "down" for inherited values arriving from the
#: parent region, "up" for synthesized values arriving from a child region.
BoundaryKey = Tuple[int, str, str]


def value_signature(value: Any) -> bytes:
    """Content signature of one wire value (order- and identity-insensitive enough).

    Equal-by-construction values (same rules over same inputs) pickle to equal
    bytes; a spurious *mismatch* merely costs a re-evaluation, never correctness.
    """
    return hashlib.sha256(pickle.dumps(value, protocol=4)).digest()


@dataclass
class RegionRecording:
    """Everything one evaluator's boundary traffic amounted to, for one run.

    ``sends`` preserves send order and carries two record shapes:

    * ``("attr", target_region, direction, name, wire_value, size, priority)``
    * ``("fragment", fragment_id, text, size)`` — a librarian code fragment;
      ``text`` is a single-leaf :class:`Rope` whatever tree the evaluator built.

    The root region's final ``ResultMessage``/``AssembleRequest`` traffic is *not*
    recorded: the root region re-evaluates on every incremental run.
    """

    region_id: int = -1
    input_sigs: Dict[BoundaryKey, bytes] = field(default_factory=dict)
    sends: List[Tuple] = field(default_factory=list)
    output_sigs: Dict[BoundaryKey, bytes] = field(default_factory=dict)

    def record_input(self, source_region: int, direction: str, name: str, wire_value: Any) -> None:
        self.input_sigs[(source_region, direction, name)] = value_signature(wire_value)

    def record_attribute_send(
        self,
        target_region: int,
        direction: str,
        name: str,
        wire_value: Any,
        size: int,
        priority: bool,
    ) -> None:
        self.sends.append(("attr", target_region, direction, name, wire_value, size, priority))
        self.output_sigs[(target_region, direction, name)] = value_signature(wire_value)

    def record_fragment_send(self, fragment_id: int, text: Rope, size: int) -> None:
        if not text.is_leaf:
            text = Rope.leaf(text.flatten())
        self.sends.append(("fragment", fragment_id, text, size))


@dataclass
class IncrementalSessionPlan:
    """Instructions (and collected outcome) for one incremental compile session.

    ``reuse`` maps clean region ids to artifact-like objects exposing ``recording``
    (a :class:`RegionRecording`) and ``report`` (the region's cached
    ``EvaluatorReport``); those regions are *replayed* instead of evaluated, and the
    parser does not ship their subtrees.  Dirty regions run the real evaluator with
    ``record=True`` so the driver can refresh their cache entries.

    After the run, ``recordings`` holds the freshly recorded boundary traffic per
    dirty region and ``mismatches`` lists every boundary input whose live value
    differed from a replayed region's cached signature — each one names a region
    whose cached outputs are stale and must be re-evaluated in another round.
    """

    reuse: Dict[int, Any] = field(default_factory=dict)
    record: bool = True
    recordings: Dict[int, RegionRecording] = field(default_factory=dict)
    mismatches: List[Tuple[int, BoundaryKey]] = field(default_factory=list)
