"""Message types exchanged between the parser, the evaluators and the librarian.

Cross-evaluator attribute traffic only ever concerns *region roots*: a child evaluator
needs the inherited attributes of its region's root (computed by its parent evaluator at
the corresponding hole node) and the parent needs the synthesized attributes of that
same root.  Messages therefore address attributes by ``(region_id, attribute name)``
rather than by node identity, which keeps the protocol independent of how each evaluator
numbers its local nodes.

Every message type (and everything it carries: packed trees, ropes, string
descriptors, converted attribute values) must survive a pickle round-trip, because the
``"processes"`` backend ships messages between OS processes as pickled frames on
pipes.  :data:`PROTOCOL_MESSAGES` enumerates the full wire
vocabulary; the test suite round-trips each one through a real queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.tree.linearize import PackedTree


@dataclass
class SubtreeMessage:
    """Parser → evaluator: here is your region, packed on every substrate."""

    region_id: int
    parent_region: Optional[int]
    tree: PackedTree
    unique_base: int
    root_inherited: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def size_bytes(self) -> int:
        return self.tree.size_bytes() + 32


@dataclass
class AttributeMessage:
    """Evaluator ↔ evaluator: one region-boundary attribute value.

    ``direction`` is ``"down"`` for inherited attributes of the destination's region
    root (parent → child) and ``"up"`` for synthesized attributes of the source's region
    root (child → parent).
    """

    source_region: int
    target_region: int
    direction: str
    name: str
    value: Any
    size: int
    priority: bool = False

    def size_bytes(self) -> int:
        return self.size + 24


@dataclass
class CodeFragmentMessage:
    """Evaluator → librarian: one evaluator's final code fragment (sent exactly once)."""

    region_id: int
    fragment_id: int
    text: Any                               # a Rope
    size: int

    def size_bytes(self) -> int:
        return self.size + 16


@dataclass
class ResultMessage:
    """Root evaluator → parser: the root attributes of the whole tree.

    When the librarian optimisation is on, code-like attributes arrive here as
    descriptors; the assembled text follows separately in an
    :class:`AssembledCodeMessage` from the librarian.
    """

    region_id: int
    attributes: Dict[str, Any]
    size: int

    def size_bytes(self) -> int:
        return self.size + 16


@dataclass
class AssembleRequest:
    """Root evaluator → librarian: assemble the final code from this descriptor."""

    attribute: str
    descriptor: Any
    size: int

    def size_bytes(self) -> int:
        return self.size + 16


@dataclass
class AssembledCodeMessage:
    """Librarian → parser: the fully assembled code attribute."""

    attribute: str
    text: Any                               # a Rope
    size: int

    def size_bytes(self) -> int:
        return self.size + 16


#: The complete wire vocabulary of the distributed protocol.
PROTOCOL_MESSAGES = (
    SubtreeMessage,
    AttributeMessage,
    CodeFragmentMessage,
    ResultMessage,
    AssembleRequest,
    AssembledCodeMessage,
)
