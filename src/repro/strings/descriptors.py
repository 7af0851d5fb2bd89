"""String descriptors for the string-librarian protocol.

When an evaluator finishes its final code attribute it sends the *code string* to the
string librarian and only a small *descriptor* to its ancestor evaluator.  Ancestors
combine descriptors (not strings); the root evaluator finally hands the combined
descriptor to the librarian, which assembles the real string from the pieces it has
received directly from each evaluator.  This keeps every code fragment on the network
exactly once and lets the transmissions overlap (paper §4.3).

Descriptors mirror rope structure:

* :class:`LeafDescriptor` — "the fragment registered by evaluator ``region_id`` under
  key ``fragment_id``";
* :class:`ConcatDescriptor` — concatenation of two descriptors.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from repro.strings.rope import Rope


class StringDescriptor:
    """Base class for string descriptors."""

    def fragment_ids(self) -> List[Tuple[int, int]]:
        """All (region_id, fragment_id) pairs referenced, left to right."""
        raise NotImplementedError

    def descriptor_size(self) -> int:
        """Abstract transmission size of the descriptor itself (not the fragments)."""
        raise NotImplementedError

    def assemble(self, lookup: Callable[[int, int], Rope]) -> Rope:
        """Rebuild the full string given a fragment lookup function."""
        raise NotImplementedError

    def __add__(self, other: "StringDescriptor") -> "StringDescriptor":
        if not isinstance(other, StringDescriptor):
            return NotImplemented
        return ConcatDescriptor(self, other)


class LeafDescriptor(StringDescriptor):
    """Reference to one code fragment held by the librarian."""

    __slots__ = ("region_id", "fragment_id")

    def __init__(self, region_id: int, fragment_id: int):
        self.region_id = region_id
        self.fragment_id = fragment_id

    def fragment_ids(self) -> List[Tuple[int, int]]:
        return [(self.region_id, self.fragment_id)]

    def descriptor_size(self) -> int:
        return 12

    def assemble(self, lookup: Callable[[int, int], Rope]) -> Rope:
        return lookup(self.region_id, self.fragment_id)

    def __repr__(self) -> str:
        return f"LeafDescriptor(region={self.region_id}, fragment={self.fragment_id})"


class LiteralDescriptor(StringDescriptor):
    """A literal rope embedded directly in a descriptor.

    Appears when an evaluator concatenates locally generated code with a descriptor
    received from a child evaluator: the local part travels inside the descriptor (it
    was never registered with the librarian), the child part stays a reference.
    """

    __slots__ = ("text",)

    def __init__(self, text: Rope):
        self.text = text

    def fragment_ids(self) -> List[Tuple[int, int]]:
        return []

    def descriptor_size(self) -> int:
        return self.text.transmission_size()

    def assemble(self, lookup: Callable[[int, int], Rope]) -> Rope:
        return self.text

    def __repr__(self) -> str:
        return f"LiteralDescriptor(length={len(self.text)})"


class ConcatDescriptor(StringDescriptor):
    """Concatenation of two descriptors (O(1) to build, like ropes)."""

    __slots__ = ("left", "right")

    def __init__(self, left: StringDescriptor, right: StringDescriptor):
        self.left = left
        self.right = right

    def fragment_ids(self) -> List[Tuple[int, int]]:
        return self.left.fragment_ids() + self.right.fragment_ids()

    def descriptor_size(self) -> int:
        return self.left.descriptor_size() + self.right.descriptor_size() + 4

    def assemble(self, lookup: Callable[[int, int], Rope]) -> Rope:
        return Rope.concat(self.left.assemble(lookup), self.right.assemble(lookup))

    def __repr__(self) -> str:
        return f"ConcatDescriptor({self.left!r}, {self.right!r})"
