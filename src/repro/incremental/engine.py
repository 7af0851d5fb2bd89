"""Dirty-region scheduling: compile a tree reusing every cached region artifact.

The driver around :class:`~repro.distributed.compiler.ParallelCompiler`'s
replay-and-record mode:

1. plan the decomposition and fingerprint every region
   (:mod:`repro.incremental.fingerprint`);
2. the *dirty* set is the content misses plus the root region (it delivers the
   final result and assembly requests).  Ancestors are not dirtied: code reaches a
   parent as a librarian descriptor, so an edit inside one routine usually leaves
   every ancestor's inputs unchanged.  Clean-clean region boundaries whose cached
   signatures disagree (artifacts from different builds) are dirtied up front;
3. run the session: dirty regions are shipped and evaluated (recording their
   boundary traffic), clean regions are replayed from the cache;
4. every replayed region checks the values its dirty parent and children actually
   sent against its cached input signatures; a match stops the change there (early
   cutoff).  A mismatch means a change propagated into a content-clean region —
   that region and its ancestors join the dirty set and the session re-runs.  The
   loop is monotone (dirty only grows) and therefore terminates; at the fixed point
   every cached input signature matches the live boundary values, so the result is
   identical to a cold compile of the same tree.

Validation compares exact value signatures, never timings, which is what makes
edit-then-recompile results equal to cold compiles byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.backends.base import BackendError, SharedBundle, Substrate
from repro.distributed.compiler import CompilationReport, ParallelCompiler
from repro.distributed.recording import IncrementalSessionPlan, RegionRecording
from repro.incremental.cache import ArtifactCache, RegionArtifact
from repro.incremental.fingerprint import FingerprintMemo, engine_digest, region_keys
from repro.partition.decomposition import DecompositionPlan, plan_decomposition


@dataclass
class IncrementalReport:
    """What one incremental compilation reused, re-evaluated and why."""

    regions_total: int = 0
    regions_evaluated: int = 0
    regions_reused: int = 0
    dirty_regions: List[str] = field(default_factory=list)   # labels, e.g. ["a", "c"]
    content_misses: int = 0
    validation_rounds: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    #: How the parse tree was obtained: "cold" (first build), "reuse" (tokens
    #: unchanged), "splice" (damaged-subtree reparse) or "full" (full reparse).
    frontend: str = "cold"

    @property
    def reuse_fraction(self) -> float:
        if self.regions_total == 0:
            return 0.0
        return self.regions_reused / self.regions_total

    def summary(self) -> str:
        return (
            f"incremental: {self.regions_evaluated}/{self.regions_total} region(s) "
            f"evaluated ({self.regions_reused} replayed from cache), "
            f"dirty={self.dirty_regions}, {self.validation_rounds} round(s), "
            f"frontend={self.frontend}"
        )


def _edge_consistent(parent: RegionRecording, child: RegionRecording,
                     parent_id: int, child_id: int) -> bool:
    """Do two cached artifacts agree about their shared boundary?

    Needed because the cache is content-addressed across builds: a parent artifact
    from build A and a child artifact from build B may both match current content
    while disagreeing about the attribute values that crossed between them.
    """
    for (source, direction, name), signature in child.input_sigs.items():
        if source != parent_id or direction != "down":
            continue
        if parent.output_sigs.get((child_id, "down", name)) != signature:
            return False
    for (source, direction, name), signature in parent.input_sigs.items():
        if source != child_id or direction != "up":
            continue
        if child.output_sigs.get((parent_id, "up", name)) != signature:
            return False
    return True


class IncrementalCompiler:
    """Compile trees through a :class:`ParallelCompiler`, reusing region artifacts.

    Stateless apart from the cache reference: safe to construct per call.  The same
    cache may back many incremental compilers (documents, service jobs) — artifacts
    are keyed by content and engine digest, never by session identity.
    """

    def __init__(self, engine: ParallelCompiler, cache: ArtifactCache):
        self.engine = engine
        self.cache = cache
        bundle = engine._grammar_bundle
        if isinstance(bundle, SharedBundle):
            self._bundle_key = bundle.key
        else:
            # Unregistered grammar: fall back to object identity, which is exactly
            # the lifetime for which its fingerprints are comparable.
            self._bundle_key = f"grammar@{id(engine.grammar)}"

    def compile_tree(
        self,
        tree,
        machines: int,
        *,
        root_inherited: Optional[Dict[str, Any]] = None,
        backend: Optional[str] = None,
        substrate: Optional[Substrate] = None,
        memo: Optional[FingerprintMemo] = None,
        receive_timeout: Optional[float] = None,
    ) -> Tuple[CompilationReport, IncrementalReport]:
        config = self.engine.configuration
        decomposition = plan_decomposition(
            tree,
            machines,
            min_size=config.min_split_size,
            scale=config.split_scale,
        )
        if substrate is not None:
            backend_name = substrate.name
        elif backend is not None:
            backend_name = backend
        elif self.engine.substrate is not None:
            backend_name = self.engine.substrate.name
        else:
            backend_name = self.engine.backend
        digest = engine_digest(
            self._bundle_key, config.evaluator, backend_name, machines, config
        )
        keys = region_keys(self.engine.grammar, decomposition, digest, memo)

        parent_of = {
            region.region_id: region.parent_region for region in decomposition.regions
        }
        children_of = {
            region.region_id: list(region.child_regions)
            for region in decomposition.regions
        }
        labels = {
            region.region_id: region.label or str(region.region_id)
            for region in decomposition.regions
        }

        artifacts: Dict[int, RegionArtifact] = {}
        for region_id, key in keys.items():
            if region_id == 0:
                continue  # the root region always re-evaluates; skip the lookup
            artifact = self.cache.get(key)
            if artifact is not None:
                artifacts[region_id] = artifact

        content_misses = sum(
            1 for region_id in keys if region_id != 0 and region_id not in artifacts
        )
        dirty = {0}
        dirty.update(
            region_id for region_id in keys if region_id != 0 and region_id not in artifacts
        )
        self._dirty_inconsistent_edges(artifacts, dirty, parent_of)

        rounds = 0
        plan: Optional[IncrementalSessionPlan] = None
        report: Optional[CompilationReport] = None
        while True:
            rounds += 1
            if rounds > len(keys) + 1:  # pragma: no cover — monotone loop safety net
                raise BackendError("incremental validation did not converge")
            reuse = {
                region_id: artifact
                for region_id, artifact in artifacts.items()
                if region_id not in dirty
            }
            plan = IncrementalSessionPlan(reuse=reuse, record=True)
            report = self.engine.compile_tree(
                tree,
                machines,
                root_inherited=root_inherited,
                backend=backend,
                substrate=substrate,
                decomposition=decomposition,
                incremental=plan,
                receive_timeout=receive_timeout,
            )
            if not plan.mismatches:
                break
            # A replayed region saw live values that differ from its cached input
            # signatures: its outputs are stale.  A changed inherited context
            # (symbol tables accumulate) almost always flows further down, so a
            # "down" mismatch dirties the region's whole subtree, turning a
            # chain-depth cascade of rounds into one; an "up" one leaves the other
            # children clean to check the region's live values themselves.
            for region_id, (_source, direction, _name) in plan.mismatches:
                if direction == "down":
                    self._close_over_descendants(region_id, dirty, children_of)
                else:
                    dirty.add(region_id)
            self._close_over_ancestors(dirty, parent_of)

        # Refresh the cache with the final round's recordings (region 0 excluded:
        # it can never be replayed, so caching it would only occupy an LRU slot).
        reports_by_region = {
            evaluator_report.region_id: evaluator_report
            for evaluator_report in report.evaluator_reports
        }
        for region_id, recording in plan.recordings.items():
            if region_id == 0:
                continue
            self.cache.put(
                RegionArtifact(keys[region_id], recording, reports_by_region[region_id])
            )

        reused = len(keys) - len(dirty)
        report.region_cache_hits = reused
        report.region_cache_misses = len(dirty)
        incremental_report = IncrementalReport(
            regions_total=len(keys),
            regions_evaluated=len(dirty),
            regions_reused=reused,
            dirty_regions=sorted(labels[region_id] for region_id in dirty),
            content_misses=content_misses,
            validation_rounds=rounds,
            cache_hits=reused,
            cache_misses=len(dirty),
        )
        return report, incremental_report

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _close_over_ancestors(dirty, parent_of) -> None:
        """A dirty region's outputs feed its parent: dirtiness propagates root-ward."""
        for region_id in list(dirty):
            parent = parent_of.get(region_id)
            while parent is not None and parent not in dirty:
                dirty.add(parent)
                parent = parent_of.get(parent)

    @staticmethod
    def _close_over_descendants(region_id, dirty, children_of) -> None:
        stack = [region_id]
        while stack:
            current = stack.pop()
            if current in dirty:
                continue
            dirty.add(current)
            stack.extend(children_of.get(current, ()))

    @staticmethod
    def _dirty_inconsistent_edges(artifacts, dirty, parent_of) -> None:
        """Dirty any clean region whose cached boundary disagrees with its clean parent's.

        Only clean-clean boundaries need this: a boundary with a dirty side is
        validated live by the replay body of its clean side.  Dirtying the child
        turns the disagreeing boundary into such a live one, so one pass suffices.
        """
        for region_id, artifact in artifacts.items():
            parent = parent_of.get(region_id)
            if region_id in dirty or parent is None or parent in dirty:
                continue
            # A clean parent is a cache hit (the root and every miss are dirty).
            if not _edge_consistent(
                artifacts[parent].recording, artifact.recording, parent, region_id
            ):
                dirty.add(region_id)
