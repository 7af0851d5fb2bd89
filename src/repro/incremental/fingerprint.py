"""Stable, content-addressed fingerprints for decomposition regions.

A region's cached evaluation is reusable exactly when everything that determines its
outputs besides its boundary inputs is unchanged:

* the region's *content* — the packed post-order encoding of its subtree (production
  and terminal codes plus token values), with hole subtrees excluded.  Node ids are
  deliberately left out: they are freshly numbered on every parse and carry no
  content;
* its *wiring* — region id (which also fixes the paper's unique-identifier base),
  parent region, and which child region sits in which hole, in tree order;
* the *engine* — artifact format, grammar registration key, evaluator kind and the
  configuration knobs that alter evaluation or the wire protocol, plus the substrate
  and machine count (folded into one engine digest).

Two regions with identical text but different region ids hash differently on
purpose: their evaluators draw unique identifiers (labels, temporaries) from
different bases, so their outputs genuinely differ.

``FingerprintMemo`` lets a :class:`~repro.incremental.document.Document` skip
re-packing regions whose root node object survived the incremental reparse — the
tree splice reuses untouched nodes by reference, so surviving (node id, wiring)
pairs prove the content unchanged.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, Optional, Tuple

from repro.grammar.grammar import AttributeGrammar
from repro.partition.decomposition import DecompositionPlan
from repro.tree.linearize import PackedTree


#: Memo key: (region root node id, sorted (hole node id, child region id) pairs).
MemoKey = Tuple[int, Tuple[Tuple[int, int], ...]]


class FingerprintMemo:
    """Content-hash memo keyed by (region root node id, exact hole placement).

    Node ids are process-unique and never reused, and the incremental reparse
    shares untouched subtrees by reference, so a surviving key proves the packed
    content is identical to the previous build's.
    """

    def __init__(self) -> None:
        self._hashes: Dict[MemoKey, bytes] = {}

    def get(self, key: MemoKey) -> Optional[bytes]:
        return self._hashes.get(key)

    def replace(self, fresh: Dict[MemoKey, bytes]) -> None:
        """Install the new build's hashes (stale node ids never match again anyway)."""
        self._hashes = dict(fresh)

    def __len__(self) -> int:
        return len(self._hashes)


#: Bumped when older artifacts no longer decode, so an old store misses cleanly.
#: 2: ``LeafDescriptor`` lost its ``length`` slot.
#: 3: region content hashes digest post-order packed codes.
ARTIFACT_FORMAT = 3


def engine_digest(
    bundle_key: str,
    evaluator: str,
    backend: str,
    machines: int,
    configuration,
) -> str:
    """One digest over everything engine-side that region outputs depend on."""
    payload = "|".join(
        str(part)
        for part in (
            ARTIFACT_FORMAT,
            bundle_key,
            evaluator,
            backend,
            machines,
            configuration.use_librarian,
            configuration.librarian_attributes,
            configuration.use_priority,
            configuration.use_precompiled_tables,
            configuration.use_compiled_plans,
            configuration.min_split_size,
            configuration.split_scale,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def region_content_hash(packed: PackedTree) -> bytes:
    """Content hash of one packed region: holes excluded, node ids excluded."""
    digest = hashlib.sha256()
    digest.update(packed.root_symbol.encode())
    digest.update(packed.codes.tobytes())
    # Token values are scanner outputs (strings for every built-in language, but
    # the codec allows any picklable value), so hash their pickled form.
    digest.update(pickle.dumps(packed.values, protocol=4))
    return digest.digest()


def region_keys(
    grammar: AttributeGrammar,
    decomposition: DecompositionPlan,
    engine: str,
    memo: Optional[FingerprintMemo] = None,
) -> Dict[int, str]:
    """Cache keys for every region of ``decomposition``.

    With a ``memo``, regions whose root node (and hole wiring) survived from the
    previous build skip the packing pass entirely — fingerprinting then costs
    O(changed content), not O(tree).  A region it packs stays packed in the plan
    (:meth:`~repro.partition.decomposition.DecompositionPlan.packed`), and the
    compile ships that same object.
    """
    keys: Dict[int, str] = {}
    fresh_hashes: Dict[MemoKey, bytes] = {}
    for region in decomposition.regions:
        holes = decomposition.holes_of(region.region_id)
        # Hole wiring in tree order: which child region fills each hole.  holes_of
        # preserves child_regions order, which is the discovery (left-to-right) order.
        wiring = tuple(holes.values())
        # The memo key must pin the hole *node ids* too: a threshold shift can
        # move a hole to a different node inside a surviving root while reusing
        # the same child region id, and that changes the packed content.
        memo_key = (region.root.node_id, tuple(sorted(holes.items())))
        content = memo.get(memo_key) if memo is not None else None
        if content is None:
            content = region_content_hash(decomposition.packed(region.region_id, grammar))
        fresh_hashes[memo_key] = content
        digest = hashlib.sha256()
        digest.update(engine.encode())
        digest.update(
            f"|{region.region_id}|{region.parent_region}|{wiring}|".encode()
        )
        digest.update(content)
        keys[region.region_id] = digest.hexdigest()
    if memo is not None:
        memo.replace(fresh_hashes)
    return keys
