"""Tests for incremental recompilation: artifacts, dirty regions, documents.

The load-bearing guarantees:

* full builds are byte-identical (values, errors, simulated-time stats) with the
  artifact cache enabled vs disabled, on every substrate;
* an edit-then-recompile equals a cold compile of the edited source;
* a single-region edit re-evaluates only the dirty regions, reported in
  ``CompileResult.incremental``; an edit whose boundary outputs are unchanged stops
  there (early cutoff) instead of re-evaluating every region-tree ancestor;
* root-context changes (e.g. a global constant edit) are caught by hole-signature
  validation and re-evaluated, never served stale from the cache.
"""

from __future__ import annotations

import multiprocessing
import random
import re

import pytest

from repro import Compiler, Session
from repro.api import get_language
from repro.backends import BackendError
from repro.incremental import ArtifactCache, Document, fingerprint
from repro.incremental.cache import REGION_NAMESPACE, RegionArtifact
from repro.incremental.fingerprint import FingerprintMemo, region_keys
from repro.incremental.frontend import (
    EditEnvelope,
    incremental_reparse,
    incremental_scan,
)
from repro.distributed.recording import RegionRecording
from repro.distributed.evaluator_node import EvaluatorReport
from repro.exprlang.evaluator import random_expression_source
from repro.partition.decomposition import plan_decomposition
from repro.pascal.compiler import _shared_parser
from repro.pascal.grammar import pascal_grammar
from repro.pascal.lexer import _LEXER
from repro.pascal.programs import generate_program
from repro.store import ArtifactStore
from repro.tree.linearize import pack


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


requires_fork = pytest.mark.skipif(
    not _fork_available(), reason="processes substrate requires the fork start method"
)

ALL_SUBSTRATES = [
    "simulated",
    "threads",
    pytest.param("processes", marks=requires_fork),
    "sockets",
]

MACHINES = 5


@pytest.fixture(scope="module")
def source():
    return generate_program(procedures=8, statements_per_procedure=4, seed=11)


@pytest.fixture(scope="module")
def edited_source(source):
    # A constant tweak inside the *main program body* — content of exactly one
    # region (the root region or the detached statement_list region).
    match = list(re.finditer(r":= (\d)[;\n]", source))[-1]
    return source[: match.start(1)] + "7" + source[match.end(1) :], match


# --------------------------------------------------------------- edit envelope


class TestEditEnvelope:
    def test_single_edit(self):
        env = EditEnvelope()
        env.record(10, 15, 3)
        assert (env.old_lo, env.old_hi, env.new_lo, env.new_hi) == (10, 15, 10, 13)
        assert env.delta == -2

    def test_merge_overlapping_and_disjoint_edits(self):
        reference = "0123456789" * 4
        current = reference
        env = EditEnvelope()
        rng = random.Random(5)
        for _ in range(6):
            start = rng.randint(0, len(current))
            end = rng.randint(start, min(len(current), start + 6))
            insert = "x" * rng.randint(0, 5)
            current = current[:start] + insert + current[end:]
            env.record(start, end, len(insert))
        # Everything outside the envelope must be byte-identical (shifted by delta
        # after it) between the original and the edited text.
        assert reference[: env.old_lo] == current[: env.new_lo]
        assert reference[env.old_hi :] == current[env.new_hi :]

    def test_reset(self):
        env = EditEnvelope()
        env.record(1, 2, 1)
        env.reset()
        assert env.empty


# ------------------------------------------------------------ incremental scan


class TestIncrementalScan:
    def test_random_edits_match_full_scan(self, source):
        rng = random.Random(29)
        text = source
        tokens, spans, _ = _LEXER.scan(text)
        for _ in range(25):
            start = rng.randint(0, len(text) - 2)
            end = min(len(text), start + rng.randint(0, 12))
            insert = rng.choice(["x1", "274", " ", "{c}\n", "y := 2;", ""])
            new_text = text[:start] + insert + text[end:]
            envelope = EditEnvelope()
            envelope.record(start, end, len(insert))
            try:
                got_tokens, got_spans, *_ = incremental_scan(
                    _LEXER, tokens, spans, text, new_text, envelope
                )
            except Exception:
                # Some random edits produce unlexable text ('{' unclosed, stray
                # chars); a full scan must fail identically.
                with pytest.raises(Exception):
                    _LEXER.scan(new_text)
                continue
            full_tokens, full_spans, _ = _LEXER.scan(new_text)
            assert got_tokens == full_tokens
            assert got_spans == full_spans
            text, tokens, spans = new_text, got_tokens, got_spans

    def test_prefix_and_suffix_tokens_are_shared(self, source):
        tokens, spans, _ = _LEXER.scan(source)
        match = list(re.finditer(r"\b\d+\b", source))[10]
        new_text = source[: match.start()] + "55" + source[match.end() :]
        envelope = EditEnvelope()
        envelope.record(match.start(), match.end(), 2)
        got_tokens, _, first_changed, old_resync, new_resync = incremental_scan(
            _LEXER, tokens, spans, source, new_text, envelope
        )
        assert first_changed > 0 and old_resync < len(tokens)
        # Prefix and (for a same-length-class edit) suffix are the same objects.
        assert got_tokens[0] is tokens[0]
        assert got_tokens[-1] is tokens[-1] or got_tokens[-1] == tokens[-1]


# --------------------------------------------------------------- subtree splice


class TestIncrementalReparse:
    def test_splice_equals_full_parse_and_shares_siblings(self, source):
        grammar = pascal_grammar()
        parser = _shared_parser()
        tokens, spans, _ = _LEXER.scan(source)
        tree = parser.parse(tokens)

        match = list(re.finditer(r"\b\d+\b", source))[20]
        new_text = source[: match.start()] + "321" + source[match.end() :]
        envelope = EditEnvelope()
        envelope.record(match.start(), match.end(), 3)
        new_tokens, _, fc, orr, nrr = incremental_scan(
            _LEXER, tokens, spans, source, new_text, envelope
        )
        before = {id(node) for node in tree.walk()}
        new_tree, mode = incremental_reparse(
            grammar, parser, tree, new_tokens, fc, orr, nrr
        )
        assert mode == "splice"
        reference = parser.parse(_LEXER.tokenize(new_text))
        spliced, parsed = pack(grammar, new_tree), pack(grammar, reference)
        assert (spliced.codes, spliced.values) == (parsed.codes, parsed.values)
        # The spliced tree reuses untouched nodes by reference.
        shared = sum(1 for node in new_tree.walk() if id(node) in before)
        assert shared > new_tree.subtree_size() // 2

    def test_unchanged_tokens_reuse_the_tree(self, source):
        grammar = pascal_grammar()
        parser = _shared_parser()
        tokens, spans, _ = _LEXER.scan(source)
        tree = parser.parse(tokens)
        new_tree, mode = incremental_reparse(
            grammar, parser, tree, tokens, 5, 5, 5
        )
        assert mode == "reuse"
        assert new_tree is tree


    def test_unparsable_keystroke_parses_the_whole_stream_once(self, monkeypatch):
        """A candidate whose token span is the whole stream goes straight to the
        full parse: the stream is parsed once, and fails as a cold compile does."""
        from repro.parsing.parser import ParseError, Parser

        source = random_expression_source(120, seed=4, nesting=5)
        at = source.rindex("ni")
        edited = source[:at] + "in" + source[at + 2 :]
        with pytest.raises(ParseError) as cold:
            Compiler("exprlang").compile(edited)

        document = Document("exprlang", source, machines=2)
        document.recompile()
        parsed = []
        original = Parser.parse

        def counting_parse(parser, tokens):
            parsed.append(len(tokens))
            return original(parser, tokens)

        monkeypatch.setattr(Parser, "parse", counting_parse)
        document.edit(at, at + 2, "in")
        with pytest.raises(ParseError) as incremental:
            document.recompile()
        whole = len(get_language("exprlang").frontend()[0].tokenize(edited))
        assert whole == 459
        assert parsed.count(whole) == 1
        assert str(incremental.value) == str(cold.value)
        assert tuple(incremental.value.token) == tuple(cold.value.token)


# ------------------------------------------------------------------ fingerprints


class TestFingerprints:
    def test_stable_across_reparses(self, source):
        language = get_language("pascal")
        grammar = pascal_grammar()
        keys_a = region_keys(
            grammar, plan_decomposition(language.parse(source), MACHINES), "engine"
        )
        keys_b = region_keys(
            grammar, plan_decomposition(language.parse(source), MACHINES), "engine"
        )
        assert keys_a == keys_b  # node ids differ, content does not

    def test_edit_changes_only_affected_region_keys(self, source, edited_source):
        edited, _ = edited_source
        language = get_language("pascal")
        grammar = pascal_grammar()
        keys_a = region_keys(
            grammar, plan_decomposition(language.parse(source), MACHINES), "engine"
        )
        keys_b = region_keys(
            grammar, plan_decomposition(language.parse(edited), MACHINES), "engine"
        )
        changed = [rid for rid in keys_a if keys_a[rid] != keys_b.get(rid)]
        assert len(changed) == 1  # the main-body edit touches one region's content

    def test_engine_digest_isolates_configurations(self, source):
        language = get_language("pascal")
        grammar = pascal_grammar()
        decomposition = plan_decomposition(language.parse(source), MACHINES)
        assert region_keys(grammar, decomposition, "engine-a") != region_keys(
            grammar, decomposition, "engine-b"
        )

    def test_span_keys_equal_tree_keys(self, source):
        """A source job fingerprints the recogniser's slices; a Document, its tree's
        packed regions: the keys are the same bytes."""
        from repro.api.language import parse_for_compile

        language = get_language("pascal")
        grammar = pascal_grammar()
        spans = plan_decomposition(parse_for_compile(language, source), MACHINES)
        tree = plan_decomposition(language.parse(source), MACHINES)
        assert spans.region_count > 2
        assert region_keys(grammar, spans, "engine") == region_keys(grammar, tree, "engine")

    def test_document_recompile_packs_each_region_once(self, monkeypatch):
        """Fingerprinting packs every region the memo misses, and the compile ships
        those same packed regions: a dirty region is packed once, not once to hash
        it and again to ship it, and a memoised clean region is not packed."""
        from repro.tree import linearize

        source = generate_program(procedures=46)
        packed_roots = []
        original = linearize.pack

        def counting_pack(grammar, root, holes=None):
            packed_roots.append(root)
            return original(grammar, root, holes)

        def packed_labels(result):
            label_of = {
                id(region.root): region.label
                for region in result.report.decomposition.regions
            }
            labels = sorted(label_of[id(root)] for root in packed_roots)
            packed_roots.clear()
            return labels

        with Session(backend="threads", machines=CHAIN_MACHINES) as session:
            document = session.open("pascal", source, machines=CHAIN_MACHINES)
            monkeypatch.setattr(linearize, "pack", counting_pack)
            assert packed_labels(document.recompile()) == ["a", "b", "c", "d"]

            # proc2 lies in the deepest region, so the spliced spine runs through
            # every region and the memo misses them all: each is packed once to
            # hash it, and the two dirty ones ship that same object.
            literal = source.index(" div 2;", source.index("procedure proc2"))
            document.edit(literal, literal + 7, " div 3;")
            routine = document.recompile()
            assert routine.incremental.frontend == "splice"
            assert routine.incremental.dirty_regions == ["a", "d"]
            assert packed_labels(routine) == ["a", "b", "c", "d"]

            # An edit of the main body leaves the routines' regions memoised.
            literal = source.rindex(":= 1")
            document.edit(literal, literal + 4, ":= 2")
            body = document.recompile()
            assert body.incremental.dirty_regions == ["a"]
            assert packed_labels(body) == ["a"]

    def test_store_warmed_by_a_source_job_replays_for_a_document(self, tmp_path):
        """Keys are byte-identical across the span path and the tree path: a store a
        service job filled from source text warms a Document of the same text."""
        from repro.service import CompilationJob, CompilationService

        texts = {
            "pascal": generate_program(procedures=8),
            "exprlang": random_expression_source(300, seed=2, nesting=4),
        }
        for language, text in texts.items():
            store = str(tmp_path / language)
            with CompilationService("threads", store=store) as service:
                job = CompilationJob(language=language, source=text, machines=4)
                report = service.submit(job).result(timeout=60)
            children = report.decomposition.region_count - 1
            assert report.region_cache_misses == children + 1
            with Session(backend="threads", machines=4, store=store) as session:
                result = session.open(language, text, machines=4).recompile()
                assert session.artifact_cache.store_hits == children
            assert result.incremental.content_misses == 0
            if language == "exprlang":  # ROADMAP item 21: Pascal replays only on processes
                assert result.incremental.regions_reused == children

    def test_memo_avoids_repacking_surviving_regions(self, source):
        language = get_language("pascal")
        grammar = pascal_grammar()
        tree = language.parse(source)
        decomposition = plan_decomposition(tree, MACHINES)
        memo = FingerprintMemo()
        first = region_keys(grammar, decomposition, "engine", memo)
        assert len(memo) == decomposition.region_count
        second = region_keys(grammar, decomposition, "engine", memo)
        assert first == second


# ------------------------------------------------------------------- the cache


class TestArtifactCache:
    def _artifact(self, key):
        return RegionArtifact(key, RegionRecording(1), EvaluatorReport(1, "m"))

    def test_hit_miss_accounting(self):
        cache = ArtifactCache()
        assert cache.get("a") is None
        cache.put(self._artifact("a"))
        assert cache.get("a") is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert 0 < cache.hit_rate < 1

    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(self._artifact(key))
        assert "a" not in cache and "b" in cache and "c" in cache
        cache.get("b")
        cache.put(self._artifact("d"))
        assert "c" not in cache and "b" in cache  # b was freshened

    def test_clear(self):
        cache = ArtifactCache()
        cache.put(self._artifact("a"))
        cache.clear()
        assert len(cache) == 0


# ---------------------------------------------------------------- parity matrix


class TestParityMatrix:
    """Cache on vs off, cold vs incremental, across all four substrates."""

    @pytest.mark.parametrize("backend", ALL_SUBSTRATES)
    def test_full_build_identical_with_cache_on_and_off(self, backend, source):
        plain = Compiler("pascal", machines=MACHINES, backend=backend).compile(source)
        with Session(backend=backend, machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            cached = document.recompile()
        assert cached.value == plain.value
        assert cached.errors == plain.errors
        # Simulated-time stats are byte-identical: recording must not perturb the
        # modelled run (on real substrates evaluation_time is wall clock, so only
        # the deterministic fields are compared there).
        assert cached.report.parse_time == plain.report.parse_time
        if backend == "simulated":
            assert cached.report.evaluation_time == plain.report.evaluation_time
        assert cached.report.statistics == plain.report.statistics
        assert cached.report.memory_bytes == plain.report.memory_bytes
        assert (
            cached.report.decomposition.region_count
            == plain.report.decomposition.region_count
        )

    @pytest.mark.parametrize("backend", ALL_SUBSTRATES)
    def test_edit_then_recompile_equals_cold_compile(
        self, backend, source, edited_source
    ):
        edited, match = edited_source
        reference = Compiler("pascal", machines=MACHINES, backend=backend).compile(
            edited
        )
        with Session(backend=backend, machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            document.recompile()
            document.edit(match.start(1), match.end(1), "7")
            warm = document.recompile()
        assert document.text == edited
        assert warm.value == reference.value
        assert warm.errors == reference.errors
        assert warm.incremental.regions_reused > 0

    def test_simulated_edit_recompile_statistics_match_cold(self, source, edited_source):
        """On the simulated substrate even the *aggregate statistics* of an
        incremental run match a cold run: replays publish the regions' cached
        reports, and dirty regions re-evaluate identically."""
        edited, match = edited_source
        reference = Compiler("pascal", machines=MACHINES).compile(edited)
        with Session(backend="simulated", machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            document.recompile()
            document.edit(match.start(1), match.end(1), "7")
            warm = document.recompile()
        assert warm.report.statistics == reference.report.statistics


# --------------------------------------------------------- canonical recordings


@requires_fork
class TestCanonicalRecordings:
    """What the cache retains is the pickled form of a recording on every substrate.

    ``processes`` hands the driver recordings that crossed a pickle, so their code
    fragments are single-leaf ropes; ``threads`` and ``simulated`` record in the
    driving process and must store the same thing, not the evaluator's concat tree.
    """

    SUBSTRATES = ("simulated", "threads", "processes")

    @staticmethod
    def _build(backend, source, match):
        """Every artifact put by a cold build, then by an edit rebuild, on ``backend``."""
        with Session(backend=backend, machines=MACHINES) as session:
            cache = session.artifact_cache
            puts = []
            put = cache.put

            def recording_put(artifact):
                puts.append(artifact)
                put(artifact)

            cache.put = recording_put
            document = session.open("pascal", source, machines=MACHINES)
            document.recompile()
            cold_puts = list(puts)
            document.edit(match.start(1), match.end(1), "7")
            warm = document.recompile()
        return cold_puts, puts, warm

    @pytest.fixture(scope="class")
    def builds(self, source, edited_source):
        _, match = edited_source
        return {
            backend: self._build(backend, source, match) for backend in self.SUBSTRATES
        }

    @staticmethod
    def _shape(artifact):
        """A recording as plain data: texts and sizes, no rope structure, no values."""
        recording = artifact.recording
        sends = []
        for send in recording.sends:
            if send[0] == "fragment":
                _, fragment_id, text, size = send
                sends.append(("fragment", fragment_id, text.flatten(), size))
            else:
                _, target, direction, name, _value, size, priority = send
                sends.append(("attr", target, direction, name, size, priority))
        return (
            recording.region_id,
            sends,
            sorted(recording.input_sigs),
            sorted(recording.output_sigs),
        )

    @staticmethod
    def _signatures(artifact):
        recording = artifact.recording
        return recording.region_id, recording.input_sigs, recording.output_sigs

    @pytest.mark.parametrize("backend", SUBSTRATES)
    def test_cached_fragments_are_single_leaf_ropes(self, backend, builds):
        _, puts, _ = builds[backend]
        fragments = [
            send
            for artifact in puts
            for send in artifact.recording.sends
            if send[0] == "fragment"
        ]
        assert fragments
        assert all(text.leaf_count == 1 for _, _, text, _ in fragments)
        # Not trivially: the evaluators built real concat trees, which the
        # recorded size (text + 4 bytes per leaf) still reflects.
        assert any(size > len(text) + 4 for _, _, text, size in fragments)

    def test_recordings_equal_across_substrates(self, builds):
        def per_region(view):
            return {
                backend: sorted(map(view, cold_puts), key=lambda item: item[0])
                for backend, (cold_puts, _, _) in builds.items()
            }

        shapes = per_region(self._shape)
        assert len(shapes["simulated"]) > 1  # every non-root region
        assert shapes["threads"] == shapes["simulated"]
        assert shapes["processes"] == shapes["simulated"]
        # Signatures hash the pickled value, and a pickle encodes which equal
        # sub-objects are *the same* object: values computed in one process sign
        # alike, values rebuilt from several messages in a forked worker need not
        # (a spurious mismatch costs a re-evaluation, never a result).
        signatures = per_region(self._signatures)
        assert signatures["threads"] == signatures["simulated"]

    @pytest.mark.parametrize("backend", SUBSTRATES)
    def test_replay_from_canonical_artifacts_equals_cold_compile(
        self, backend, builds, edited_source
    ):
        edited, _ = edited_source
        _, _, warm = builds[backend]
        reference = Compiler("pascal", machines=MACHINES, backend=backend).compile(edited)
        assert warm.incremental.regions_reused > 0
        assert warm.value == reference.value
        assert warm.errors == reference.errors


# ------------------------------------------------------------ dirty scheduling


class TestDirtyRegionScheduling:
    def test_single_region_edit_evaluates_only_dirty_regions(
        self, source, edited_source
    ):
        edited, match = edited_source
        with Session(backend="simulated", machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            cold = document.recompile()
            assert cold.incremental.frontend == "cold"
            assert cold.incremental.regions_reused == 0
            document.edit(match.start(1), match.end(1), "7")
            warm = document.recompile()
        total = warm.incremental.regions_total
        assert total > 2
        # The edited region (plus whatever its changed outputs reach) — never
        # everything.
        assert 0 < warm.incremental.regions_evaluated < total
        assert warm.incremental.regions_reused == total - warm.incremental.regions_evaluated
        assert warm.incremental.dirty_regions  # labels, e.g. ["a"]
        assert warm.report.region_cache_hits == warm.incremental.regions_reused
        assert warm.report.region_cache_misses == warm.incremental.regions_evaluated

    def test_noop_recompile_reuses_everything_but_the_root(self, source):
        with Session(backend="simulated", machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            cold = document.recompile()
            again = document.recompile()
        assert again.incremental.frontend == "reuse"
        assert again.incremental.regions_evaluated == 1  # the root region only
        assert again.value == cold.value

    def test_root_context_change_invalidates_cached_regions(self, source):
        """Editing a global constant changes the inherited environment of every
        procedure region: hole-signature validation must catch it and re-evaluate
        instead of serving stale artifacts."""
        match = re.search(r"bias = (\d+);", source)
        edited = source[: match.start(1)] + "23" + source[match.end(1) :]
        reference = Compiler("pascal", machines=MACHINES).compile(edited)
        with Session(backend="simulated", machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            document.recompile()
            document.edit(match.start(1), match.end(1), "23")
            warm = document.recompile()
        assert warm.value == reference.value
        assert warm.errors == reference.errors
        assert warm.incremental.validation_rounds >= 2

    def test_comment_only_edit_keeps_every_region_clean(self, source):
        with Session(backend="simulated", machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            cold = document.recompile()
            insert_at = source.index(";\n") + 1
            document.insert(insert_at, " { a comment }")
            warm = document.recompile()
        # Tokens are unchanged, so every fingerprint survives: only the forced
        # root region re-evaluates, and the output is identical.
        assert warm.incremental.regions_evaluated == 1
        assert warm.value == cold.value

    def test_cross_document_cache_sharing(self, source):
        with Session(backend="simulated", machines=MACHINES) as session:
            first = session.open("pascal", source, machines=MACHINES)
            first.recompile()
            second = session.open("pascal", source, machines=MACHINES)
            result = second.recompile()
        # A fresh document over identical content hits the session's shared cache.
        assert result.incremental.regions_reused > 0


# ---------------------------------------------------------------- early cutoff


#: A program whose regions nest as a chain at ``machines=4`` (the routine list is
#: left-recursive): the first routine sits in the innermost region, so an edit
#: there used to dirty all four.
CHAIN_MACHINES = 4


@pytest.fixture(scope="module")
def chain_source():
    return generate_program(procedures=16, statements_per_procedure=4, seed=1)


def _head_literal(text):
    match = re.search(r":= (\d+);", text)
    return match.start(1), match.end(1), "424242"


def _head_insertion(text):
    at = re.search(r":= (\d+);", text).end()
    return at, at, "\n  writeln(1);"


def _head_declaration(text):
    """A new routine after the first one: the innermost region's ``defs`` change."""
    at = text.index("\nend;\n") + len("\nend;\n")
    return at, at, "\nprocedure extra0(q: integer);\nbegin\n  writeln(q)\nend;\n"


class TestEarlyCutoff:
    """A region whose live inputs match its cached signatures is replayed, even
    when a region below it changed: outputs equal a cold compile, and the reuse
    counts show the cutoff (equal outputs alone would not)."""

    SUBSTRATES = ("simulated", "threads", pytest.param("processes", marks=requires_fork))

    @staticmethod
    def _edit_and_recompile(backend, source, edit):
        start, end, text = edit(source)
        edited = source[:start] + text + source[end:]
        reference = Compiler("pascal", machines=CHAIN_MACHINES, backend=backend).compile(
            edited
        )
        with Session(backend=backend, machines=CHAIN_MACHINES) as session:
            document = session.open("pascal", source, machines=CHAIN_MACHINES)
            cold = document.recompile()
            document.edit(start, end, text)
            warm = document.recompile()
        assert cold.incremental.regions_total == 4
        assert [
            (region.region_id, region.parent_region)
            for region in cold.report.decomposition.regions
        ] == [(0, None), (1, 0), (2, 1), (3, 2)]
        assert reference.ok
        assert warm.value == reference.value
        assert warm.errors == reference.errors
        return warm.incremental

    @pytest.mark.parametrize("backend", SUBSTRATES)
    def test_head_literal_edit_evaluates_two_regions_in_one_round(
        self, backend, chain_source
    ):
        incremental = self._edit_and_recompile(backend, chain_source, _head_literal)
        # The innermost region and the always-evaluated root; the two regions in
        # between see unchanged inputs (code crosses as a descriptor) and replay.
        assert incremental.regions_evaluated == 2
        assert incremental.regions_reused == 2
        assert incremental.validation_rounds == 1

    @pytest.mark.parametrize("backend", SUBSTRATES)
    def test_head_insertion_equals_cold_compile(self, backend, chain_source):
        incremental = self._edit_and_recompile(backend, chain_source, _head_insertion)
        assert incremental.validation_rounds <= 2

    @pytest.mark.parametrize("backend", SUBSTRATES)
    def test_head_declaration_change_equals_cold_compile(self, backend, chain_source):
        incremental = self._edit_and_recompile(backend, chain_source, _head_declaration)
        # The new routine reaches the enclosing regions' symbol tables: their
        # replays see a changed ``defs`` and the next round evaluates them.
        assert incremental.validation_rounds <= 2
        assert incremental.regions_evaluated == 4

    def test_artifacts_from_different_builds_equal_a_cold_compile(self, chain_source):
        """Every region hits the cache, but neighbouring artifacts come from builds
        that disagreed about the boundary between them: the clean-clean check
        dirties one side and the live check catches the rest."""
        grammar = pascal_grammar()
        language = get_language("pascal")
        # ``func3`` is declared in the innermost region and called in region 2.
        head = chain_source.index("function func3") + len("function ")
        renamed = chain_source[:head] + "funcZ" + chain_source[head + len("func3") :]
        literal = list(re.finditer(r":= (\d+);", chain_source))[30]
        retuned = (
            chain_source[: literal.start(1)]
            + str(int(literal.group(1)) % 9 + 1)
            + chain_source[literal.end(1) :]
        )

        def keys(text):
            decomposition = plan_decomposition(language.parse(text), CHAIN_MACHINES)
            return region_keys(grammar, decomposition, "engine")

        base = keys(chain_source)
        for text, region in ((renamed, 3), (retuned, 2)):
            assert [r for r, key in keys(text).items() if key != base[r]] == [region]
        reference = Compiler("pascal", machines=CHAIN_MACHINES).compile(chain_source)
        with Session(backend="simulated", machines=CHAIN_MACHINES) as session:
            for text in (renamed, retuned, chain_source):
                document = session.open("pascal", text, machines=CHAIN_MACHINES)
                result = document.recompile()
        # Region 2's artifact is the renamed build's, regions 1 and 3 the retuned's.
        assert result.incremental.content_misses == 0
        assert result.value == reference.value
        assert result.errors == reference.errors

    @pytest.mark.xfail(strict=True, raises=BackendError, reason="ROADMAP item 24")
    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    def test_deleting_an_inserted_routine_equals_cold_compile(self, backend):
        """Insert a copy of ``proc1`` before ``proc2``, recompile, delete it again and
        recompile: the last compile's text is the original, so its result must equal
        a cold compile.  A replayed region between two dirty ones sends a recorded
        descriptor naming a fragment the live region below no longer produces, and
        the kernel finds the librarian and the parser parked for good."""
        source = generate_program(procedures=46)
        start, end = source.index("procedure proc1"), source.index("procedure proc2")
        copy = source[start:end].replace("proc1", "procx")
        reference = Compiler("pascal", machines=CHAIN_MACHINES, backend=backend).compile(
            source
        )
        with Session(backend=backend, machines=CHAIN_MACHINES) as session:
            document = session.open("pascal", source, machines=CHAIN_MACHINES)
            document.recompile()
            document.insert(end, copy)
            assert document.recompile().ok
            document.delete(end, end + len(copy))
            assert document.text == source
            result = document.recompile()
        assert reference.ok
        assert result.value == reference.value
        assert result.errors == reference.errors


class TestOldStores:
    def _misses_cleanly(self, tmp_path, monkeypatch, source, **older):
        """Write a store with the module attributes ``older`` patched into
        ``fingerprint``, then build again: every old key misses and stays unread."""
        store = str(tmp_path / "store")

        def build():
            with Session(backend="simulated", machines=CHAIN_MACHINES, store=store) as session:
                document = session.open("pascal", source, machines=CHAIN_MACHINES)
                return document.recompile(), session.artifact_cache.store_hits

        with monkeypatch.context() as patch:
            for name, value in older.items():
                patch.setattr(fingerprint, name, value)
            build()
        old_keys = set(ArtifactStore(store).keys(REGION_NAMESPACE))
        assert len(old_keys) == 3  # every non-root region

        result, store_hits = build()
        reference = Compiler("pascal", machines=CHAIN_MACHINES).compile(source)
        assert store_hits == 0
        assert result.incremental.content_misses == 3
        assert result.incremental.regions_reused == 0
        assert result.value == reference.value
        assert result.errors == reference.errors
        # Never read, so never decoded, quarantined or deleted.
        assert old_keys < set(ArtifactStore(store).keys(REGION_NAMESPACE))

    def test_store_of_an_older_artifact_format_misses_cleanly(
        self, tmp_path, monkeypatch, chain_source
    ):
        """Artifacts written by older code may not decode (their wire values had
        another shape): the format tag in the engine digest keeps them unread."""
        self._misses_cleanly(
            tmp_path, monkeypatch, chain_source,
            ARTIFACT_FORMAT=fingerprint.ARTIFACT_FORMAT - 1,
        )

    def test_store_of_pre_order_content_hashes_misses_cleanly(
        self, tmp_path, monkeypatch, chain_source
    ):
        """A format-2 store keyed its regions by pre-order packed codes; format 3
        digests post-order ones, and reads none of the old keys."""
        from parsing_reference import reference_pack

        from repro.tree.linearize import unpack

        grammar = pascal_grammar()
        post_order_hash = fingerprint.region_content_hash

        def pre_order_hash(packed):
            root, holes = unpack(grammar, packed)
            placed = {node.node_id: region for region, node in holes.items()}
            return post_order_hash(reference_pack(grammar, root, placed))

        assert fingerprint.ARTIFACT_FORMAT == 3
        self._misses_cleanly(
            tmp_path, monkeypatch, chain_source,
            ARTIFACT_FORMAT=2, region_content_hash=pre_order_hash,
        )


# ------------------------------------------------------------------- documents


class TestDocument:
    def test_text_and_rope_editing(self):
        document = Document("pascal", "program p; begin writeln(1) end.")
        document.edit(len("program p; begin writeln("), len("program p; begin writeln(") + 1, "42")
        assert "writeln(42)" in document.text
        document.insert(0, "{ header }\n")
        assert document.text.startswith("{ header }")
        assert len(document) == len(document.text)

    def test_invalid_edit_surfaces_parse_error(self, source):
        from repro.parsing.parser import ParseError

        with Session(backend="simulated", machines=MACHINES) as session:
            document = session.open("pascal", source, machines=MACHINES)
            document.recompile()
            document.edit(0, 7, "progrem")  # break the leading keyword
            with pytest.raises(ParseError):
                document.recompile()
            # The document recovers once the text is valid again.
            document.edit(0, 7, "program")
            result = document.recompile()
            assert result.ok

    @pytest.mark.parametrize(
        "language, pattern, replacement",
        [
            ("pascal", r":= (\d+);", "("),  # an open parenthesis before a literal
            ("pascal", r"\b(begin)\b", "bgin"),  # a misspelt keyword
            ("exprlang", r"\b(ni)\b", "in"),  # a let that never closes
            ("exprlang", r"(\+)", "+ *"),  # an operator without its operand
        ],
    )
    def test_unparsable_edit_parses_the_whole_text_once(
        self, monkeypatch, language, pattern, replacement
    ):
        """The splice's last fallback parses the whole token stream; its ParseError
        is the one a cold compile raises, so nothing parses the text again."""
        from repro.exprlang import random_expression_source
        from repro.parsing.parser import ParseError, Parser

        if language == "pascal":
            text = generate_program(procedures=6, statements_per_procedure=2, seed=5)
        else:
            text = random_expression_source(120, seed=4, nesting=5)
        match = list(re.finditer(pattern, text))[-1]
        if replacement == "(":
            edit = (match.start(1), match.start(1), "(")
        else:
            edit = (match.start(1), match.end(1), replacement)
        edited = text[: edit[0]] + edit[2] + text[edit[1] :]
        with pytest.raises(ParseError) as cold:
            Compiler(language, machines=4).compile(edited)

        lexer, full_parser = get_language(language).frontend()
        full_stream = len(lexer.tokenize(edited))
        parsed = []  # token counts of the parses over the whole grammar's table
        parse = Parser.parse

        def counting(parser, tokens):
            if parser.table is full_parser.table:
                parsed.append(len(tokens))
            return parse(parser, tokens)

        with Session(backend="simulated", machines=4) as session:
            document = session.open(language, text, machines=4)
            document.recompile()
            document.edit(*edit)
            monkeypatch.setattr(Parser, "parse", counting)
            with pytest.raises(ParseError) as warm:
                document.recompile()
            monkeypatch.undo()
        assert parsed == [full_stream]
        assert type(warm.value) is type(cold.value)
        assert str(warm.value) == str(cold.value)
        assert warm.value.token == cold.value.token
        assert (warm.value.token.line, warm.value.token.column) == (
            cold.value.token.line,
            cold.value.token.column,
        )
        assert warm.value.expected == cold.value.expected

    def test_exprlang_document_incremental(self):
        rng = random.Random(3)
        from repro.exprlang import random_expression_source

        source = random_expression_source(240, seed=9, nesting=6)
        with Session(backend="simulated", machines=4) as session:
            document = session.open("exprlang", source, machines=4)
            cold = document.recompile()
            reference = Compiler("exprlang", machines=4).compile(source)
            assert cold.value == reference.value
            # Tweak one literal; value must track a cold compile of the new text.
            match = list(re.finditer(r"\b\d+\b", source))[-1]
            document.edit(match.start(), match.end(), "9")
            edited = source[: match.start()] + "9" + source[match.end() :]
            warm = document.recompile()
            assert warm.value == Compiler("exprlang", machines=4).compile(edited).value

    def test_document_without_frontend_still_reuses_regions(self, source):
        """A language that exposes no (lexer, parser) pair falls back to full
        parses but keeps region-level artifact reuse."""
        language = get_language("pascal")

        class NoFrontend:
            name = language.name

            def __getattr__(self, attribute):
                return getattr(language, attribute)

            def frontend(self):
                return None

        with Session(backend="simulated", machines=MACHINES) as session:
            document = Document(
                language,
                source,
                machines=MACHINES,
                substrate=session.substrate,
                cache=session.artifact_cache,
            )
            document._frontend = None  # simulate a frontend-less language
            cold = document.recompile()
            assert cold.incremental.frontend == "cold"
            match = list(re.finditer(r":= (\d)[;\n]", source))[-1]
            document.edit(match.start(1), match.end(1), "7")
            warm = document.recompile()
        assert warm.incremental.frontend == "full"
        assert warm.incremental.regions_reused > 0
