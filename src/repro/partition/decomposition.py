"""Decomposition planning: choose which subtrees go to which evaluator.

The planner reproduces the behaviour described in the paper: the grammar fixes *where*
the tree may be split (splittable nonterminals with a minimum subtree size), and a
runtime argument — here the number of machines — scales the effective minimum size so
that the tree is cut into roughly equally sized regions, one per evaluator.  Figure 7 of
the paper ("Source Program Decomposition") is regenerated directly from the resulting
:class:`DecompositionPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.grammar.grammar import AttributeGrammar
from repro.tree import linearize
from repro.tree.linearize import PackedTree
from repro.tree.node import ParseTreeNode
from repro.tree.spans import SpanNode

#: What a plan is made over: a built tree's node, or a span of the recogniser's
#: post-order records (:mod:`repro.tree.spans`); both carry the summaries it reads.
TreeRoot = Union[ParseTreeNode, SpanNode]


@dataclass
class Region:
    """One region of the decomposed tree, evaluated by one evaluator process.

    Region 0 is always the *root region*: its evaluator runs on the parser's machine
    (in-process on ``simulated`` and ``threads``, in a forked worker on ``processes``,
    on a cluster worker on ``sockets``); nested regions hang off it in a region tree
    that mirrors the evaluator process tree of the paper.
    """

    region_id: int
    root: TreeRoot
    parent_region: Optional[int]
    size: int = 0                       # abstract linearized bytes owned by this region
    node_count: int = 0
    child_regions: List[int] = field(default_factory=list)
    label: str = ""

    @property
    def is_root_region(self) -> bool:
        return self.parent_region is None


@dataclass
class DecompositionPlan:
    """The result of :func:`plan_decomposition`."""

    regions: List[Region]
    total_size: int
    threshold: int
    _packed: Dict[int, PackedTree] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def region_count(self) -> int:
        return len(self.regions)

    def region_roots(self) -> Dict[int, TreeRoot]:
        return {region.region_id: region.root for region in self.regions}

    def holes_of(self, region_id: int) -> Dict[int, int]:
        """Map from the node ids of the region's child-region roots (its holes, in
        tree order) to those regions' ids."""
        region = self.regions[region_id]
        return {
            self.regions[child].root.node_id: child for child in region.child_regions
        }

    def packed(self, region_id: int, grammar: AttributeGrammar) -> PackedTree:
        """The region as it ships, with a hole record per child region (made once).

        A region of a built tree is packed from its nodes
        (:func:`repro.tree.linearize.pack`); a region of a span view is a slice of
        the recogniser's records (:meth:`repro.tree.spans.PostOrderSpans.pack`).
        Fingerprinting and shipping read the same object, so a compile packs each
        region at most once.
        """
        packed = self._packed.get(region_id)
        if packed is None:
            root = self.regions[region_id].root
            holes = self.holes_of(region_id)
            if isinstance(root, SpanNode):
                packed = root.spans.pack(root, holes)
            else:
                packed = linearize.pack(grammar, root, holes)
            self._packed[region_id] = packed
        return packed

    def balance(self) -> float:
        """Largest region size divided by the ideal (total / region count); 1.0 = perfect."""
        if not self.regions:
            return 1.0
        ideal = self.total_size / len(self.regions)
        if ideal == 0:
            return 1.0
        return max(region.size for region in self.regions) / ideal

    def describe(self) -> str:
        """Readable table, in the spirit of the paper's Figure 7."""
        lines = [
            f"decomposition into {len(self.regions)} regions "
            f"(threshold {self.threshold} bytes, balance {self.balance():.2f}):"
        ]
        for region in self.regions:
            parent = (
                "-" if region.parent_region is None else str(region.parent_region)
            )
            lines.append(
                f"  region {region.label or region.region_id}: root={region.root.symbol.name} "
                f"size={region.size} nodes={region.node_count} parent={parent} "
                f"children={[self.regions[c].label or c for c in region.child_regions]}"
            )
        return "\n".join(lines)


def _region_labels(count: int) -> List[str]:
    """a, b, c, ... like Figure 7 of the paper."""
    labels = []
    for index in range(count):
        label = ""
        value = index
        while True:
            label = chr(ord("a") + value % 26) + label
            value = value // 26 - 1
            if value < 0:
                break
        labels.append(label)
    return labels


def plan_decomposition(
    root: TreeRoot,
    machines: int,
    min_size: Optional[int] = None,
    scale: float = 1.0,
) -> DecompositionPlan:
    """Decompose the tree rooted at ``root`` into at most ``machines`` regions.

    ``root`` is a built tree's node or a :class:`~repro.tree.spans.SpanNode` of the
    recogniser's records; the plan reads only their summaries, so it is the same.

    :param machines: number of evaluator machines available (>= 1).
    :param min_size: explicit minimum region size (abstract bytes).  When omitted, the
        threshold is ``total_size / machines`` scaled by ``scale`` — the runtime
        granularity knob the paper describes — but never below a splittable symbol's own
        declared minimum.
    :param scale: multiplier applied to the automatically chosen threshold.
    """
    if machines < 1:
        raise ValueError("machines must be >= 1")

    total_size = root.wire_size
    if min_size is not None:
        threshold = int(min_size)
    else:
        threshold = max(1, int(total_size / machines * scale))

    # Candidates are considered bottom-up (post-order), so nested splittable subtrees
    # come before their ancestors, mirroring the parser's behaviour of shipping the
    # deepest oversized subtrees first.  A candidate's effective size — its
    # linearized size minus what was already detached below it — must reach the
    # threshold, and it never exceeds the node's ``wire_size``, so the descent skips
    # every subtree whose ``wire_size`` is under the threshold: nothing in it can
    # be chosen.  Each frame is [node, next child index, bytes detached below,
    # chosen descendants still waiting for a chosen ancestor, pre-order rank].
    chosen: List[Tuple[int, TreeRoot]] = []
    chosen_ancestor: Dict[int, int] = {}     # chosen node id -> nearest chosen ancestor id
    remaining_splits = machines - 1
    rank = 0
    stack: List[list] = [[root, 0, 0, [], rank]]
    while stack and remaining_splits > 0:
        frame = stack[-1]
        node = frame[0]
        children = node.children
        for index in range(frame[1], len(children)):
            child = children[index]
            if child.wire_size >= threshold and not child.symbol.is_terminal:
                frame[1] = index + 1
                rank += 1
                stack.append([child, 0, 0, [], rank])
                break
        else:
            stack.pop()
            detached, waiting = frame[2], frame[3]
            symbol = node.symbol
            if node is not root and symbol.splittable:
                size = node.wire_size - detached
                if size >= max(threshold, symbol.min_split_size):
                    chosen.append((frame[4], node))
                    remaining_splits -= 1
                    for node_id in waiting:
                        chosen_ancestor[node_id] = node.node_id
                    detached += size
                    waiting = [node.node_id]
            if stack:
                parent_frame = stack[-1]
                parent_frame[2] += detached
                parent_frame[3].extend(waiting)

    # Build regions: region 0 is the root region; others in the order their roots appear
    # in a pre-order walk (stable, readable labelling).
    chosen.sort(key=lambda entry: entry[0])
    regions: List[Region] = [Region(0, root, None)]
    region_of_root_node: Dict[int, int] = {root.node_id: 0}
    for _, node in chosen:
        region_of_root_node[node.node_id] = len(regions)
        regions.append(Region(len(regions), node, None))

    # A chosen node nobody adopted hangs off the root region.
    for region in regions[1:]:
        parent_id = region_of_root_node[
            chosen_ancestor.get(region.root.node_id, root.node_id)
        ]
        region.parent_region = parent_id
        regions[parent_id].child_regions.append(region.region_id)

    # A region owns its root's subtree minus the subtrees detached into child
    # regions, so its size and node count fall out of the nodes' summaries.
    for region in reversed(regions):
        size = region.root.wire_size
        nodes = region.root.node_count
        for child_id in region.child_regions:
            size -= regions[child_id].root.wire_size
            nodes -= regions[child_id].root.node_count
        region.size = size
        region.node_count = nodes

    for region, label in zip(regions, _region_labels(len(regions))):
        region.label = label

    return DecompositionPlan(regions, total_size, threshold)
