"""Replay bodies: stand-ins for regions whose cached evaluation is still valid.

An incremental recompilation spawns the real evaluator only for *dirty* regions; a
clean region is represented by this lightweight body, which

1. re-sends the region's recorded boundary outputs — attribute exports to dirty
   neighbours and code fragments to the string librarian (fragments must be re-sent
   because the librarian's fragment store is per-run, and the final code attribute is
   reassembled on every compilation);
2. receives the live messages its dirty parent and children send it and checks each
   against the cached input signature — a match stops the change here (early
   cutoff); a mismatch means the region's cached outputs were computed from stale
   inputs, so the engine must re-run with that region dirty;
3. publishes the region's cached :class:`EvaluatorReport` (statistics and memory
   figures are properties of the region's content, which did not change).

Replay bodies run as *coordinator* bodies — in the driving process on every
substrate — so cached artifacts never cross a pickling boundary on their way in.
Messages sent to other clean regions are skipped entirely: a replayed neighbour
would never consume them, and the pairing is validated driver-side from the two
cached signatures instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Generator, Optional, Set

from repro.backends.base import Backend, Mailbox, Receive
from repro.distributed.evaluator_node import EvaluatorReport
from repro.distributed.protocol import AttributeMessage, CodeFragmentMessage
from repro.distributed.recording import RegionRecording, value_signature


def replay_body(
    transport: Backend,
    *,
    region_id: int,
    machine_index: int,
    recording: RegionRecording,
    base_report: EvaluatorReport,
    reuse_ids: Set[int],
    mailboxes: Dict[int, Mailbox],
    machines_of_regions: Dict[int, int],
    librarian_machine: Optional[int] = None,
    librarian_mailbox: Optional[Mailbox] = None,
) -> Generator:
    """Build the replay process body for one clean region.

    Every recorded input came from a neighbour (the parent or a child region); the
    ones not in ``reuse_ids`` are evaluated live this run and send this region
    exactly the recorded number of messages, which is grammar-determined and
    therefore stable across runs.
    """
    for send in recording.sends:
        if send[0] == "attr":
            _, target, direction, name, wire_value, size, priority = send
            if target in reuse_ids:
                continue  # a fellow replay would never consume it
            message = AttributeMessage(
                source_region=region_id,
                target_region=target,
                direction=direction,
                name=name,
                value=wire_value,
                size=size,
                priority=priority,
            )
            transport.send(
                machine_index,
                machines_of_regions[target],
                message,
                message.size_bytes(),
                mailbox=mailboxes[target],
            )
        else:  # ("fragment", fragment_id, text, size)
            _, fragment_id, text, size = send
            if librarian_mailbox is None:
                continue
            message = CodeFragmentMessage(region_id, fragment_id, text, size)
            transport.send(
                machine_index,
                librarian_machine,
                message,
                message.size_bytes(),
                mailbox=librarian_mailbox,
            )

    expected = [key for key in recording.input_sigs if key[0] not in reuse_ids]
    mismatches = []
    for _ in expected:
        message = yield Receive(mailboxes[region_id])
        if not isinstance(message, AttributeMessage):
            raise TypeError(
                f"replayed region {region_id} received unexpected message {message!r}"
            )
        key = (message.source_region, message.direction, message.name)
        cached = recording.input_sigs.get(key)
        if cached is None or cached != value_signature(message.value):
            mismatches.append(key)

    report = replace(
        base_report, recording=None, replay_mismatches=mismatches or None
    )
    transport.publish_report(region_id, report)
