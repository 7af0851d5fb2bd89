"""Tests for the ``repro.api`` front door: registry, Compiler, Session.

Covers the language registry (duplicate/unknown names, custom registration), the
uniform ``Compiler``/``CompileResult`` facade, mixed-language service streams with
parity across all four substrates, idempotent Session/Substrate teardown, and the
per-phase (parse vs compile) wall-clock decomposition.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

import repro
from repro import (
    CompilationJob,
    Compiler,
    DuplicateLanguageError,
    GrammarBuilder,
    GrammarLanguage,
    Rule,
    Session,
    UnknownLanguageError,
    available_languages,
    get_language,
    register_language,
)
from repro.api.language import engine_for, unregister_language
from repro.backends import SharedBundle, create_substrate
from repro.exprlang import random_expression_source
from repro.parsing import Lexer, TokenSpec
from repro.pascal import generate_program


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


requires_fork = pytest.mark.skipif(
    not _fork_available(), reason="processes substrate requires the fork start method"
)

REAL_SUBSTRATES = ["threads", pytest.param("processes", marks=requires_fork), "sockets"]
ALL_SUBSTRATES = ["simulated"] + REAL_SUBSTRATES

#: Fast receive bound for tests: failures surface in seconds, not minutes.
TIMEOUT = 20.0

EXPR_SOURCE = "let x = 3 in 1 + 2 * x ni"


# ------------------------------------------------------------------ toy language


def _count(text: str) -> int:
    return 1


def _add(left: int, right: int) -> int:
    return left + right


def _wordcount_grammar():
    builder = GrammarBuilder("wordcount")
    builder.name_terminals("WORD", value_attribute="string")
    builder.nonterminal("doc", synthesized=["count"])
    builder.nonterminal("words", synthesized=["count"], split=True, min_split_size=40)
    builder.production("doc -> words", Rule("$$.count", ["$1.count"]))
    builder.production(
        "words -> words WORD",
        Rule("$$.count", ["$1.count", "$2.string"], lambda c, _w: c + 1, name="bump"),
    )
    builder.production(
        "words -> WORD", Rule("$$.count", ["$1.string"], _count, name="one")
    )
    return builder.build(start="doc")


def _tokenize_words(source: str):
    return Lexer([
        TokenSpec("whitespace", r"[ \t\r\n]+", skip=True),
        TokenSpec("WORD", r"[A-Za-z0-9]+"),
    ]).tokenize(source)


@pytest.fixture
def wordcount():
    language = GrammarLanguage(
        "wordcount",
        _wordcount_grammar,
        tokenize=_tokenize_words,
        result_attribute="count",
        error_attribute=None,
    )
    register_language(language, replace=True)
    yield language
    unregister_language("wordcount")


# --------------------------------------------------------------------- registry


class TestRegistry:
    def test_builtin_languages_registered_at_import(self):
        names = available_languages()
        assert "pascal" in names
        assert "exprlang" in names

    def test_get_language_resolves_names_and_instances(self):
        pascal = get_language("pascal")
        assert pascal.name == "pascal"
        assert get_language(pascal) is pascal

    def test_unknown_language_rejected(self):
        with pytest.raises(UnknownLanguageError):
            get_language("klingon")
        with pytest.raises(UnknownLanguageError):
            Compiler("klingon")

    def test_duplicate_registration_rejected(self, wordcount):
        clone = GrammarLanguage(
            "wordcount", _wordcount_grammar, tokenize=_tokenize_words
        )
        with pytest.raises(DuplicateLanguageError):
            register_language(clone)
        # replace=True supersedes and new lookups see the replacement.
        register_language(clone, replace=True)
        assert get_language("wordcount") is clone

    def test_register_rejects_non_language_and_empty_name(self):
        with pytest.raises(repro.LanguageError):
            register_language("pascal")  # type: ignore[arg-type]
        with pytest.raises(repro.LanguageError):
            GrammarLanguage("", _wordcount_grammar, tokenize=_tokenize_words)

    def test_custom_language_compiles_without_touching_internals(self, wordcount):
        source = " ".join(f"w{i}" for i in range(120))
        result = Compiler("wordcount", machines=3).compile(source)
        assert result.value == 120
        assert result.ok
        assert result.report.decomposition.region_count > 1  # genuinely split

    def test_shared_engine_is_cached_per_language(self):
        assert engine_for("exprlang") is engine_for("exprlang")
        assert engine_for("exprlang") is not engine_for("exprlang", "dynamic")

    def test_registry_builds_each_grammar_once(self):
        """Even a Language whose grammar() builds afresh yields one instance."""

        class FreshGrammarLanguage(repro.Language):
            name = "fresh-grammar"

            def __init__(self):
                self.builds = 0

            def grammar(self):
                self.builds += 1
                return _wordcount_grammar()

            def parse(self, source):
                raise NotImplementedError

        language = FreshGrammarLanguage()
        register_language(language, replace=True)
        try:
            default = engine_for("fresh-grammar")
            custom = engine_for(
                "fresh-grammar", configuration=repro.CompilerConfiguration()
            )
            assert default.grammar is custom.grammar
            assert language.builds == 1
        finally:
            unregister_language("fresh-grammar")

    def test_pascal_language_shares_old_api_caches(self):
        """One Pascal grammar and plan per process, old and new API included."""
        from repro.pascal.compiler import _shared_plan
        from repro.pascal.grammar import pascal_grammar

        engine = engine_for("pascal")
        assert engine.grammar is pascal_grammar()
        assert engine.plan is _shared_plan()


# ------------------------------------------------------------- Compiler facade


class TestCompilerFacade:
    def test_exprlang_value(self):
        result = Compiler("exprlang").compile(EXPR_SOURCE)
        assert result.value == 7
        assert result.errors == ()
        assert result.language == "exprlang"
        assert result.code == "7"

    def test_pascal_code_and_report(self):
        source = generate_program(procedures=2, statements_per_procedure=2, seed=3)
        result = Compiler("pascal", machines=3).compile(source)
        assert result.ok
        assert isinstance(result.value, str) and result.value
        assert result.report.machines == 3
        assert result.wall_parse_seconds > 0
        assert result.report.wall_parse_seconds == result.wall_parse_seconds
        assert "parse" in result.summary()

    def test_machines_override_and_validation(self):
        result = Compiler("exprlang", machines=2).compile(EXPR_SOURCE, machines=1)
        assert result.report.machines == 1
        with pytest.raises(ValueError):
            Compiler("exprlang", machines=0)

    def test_evaluator_configuration_conflict_rejected(self):
        config = repro.CompilerConfiguration(evaluator="combined")
        with pytest.raises(ValueError):
            Compiler("exprlang", evaluator="dynamic", configuration=config)

    def test_compile_many(self):
        sources = [EXPR_SOURCE, "2 * (3 + 4)"]
        values = [r.value for r in Compiler("exprlang").compile_many(sources)]
        assert values == [7, 14]

    @pytest.mark.parametrize("name", ALL_SUBSTRATES)
    def test_same_value_on_every_substrate(self, name):
        source = random_expression_source(60, seed=11, nesting=4)
        reference = Compiler("exprlang").compile(source).value
        with Session(backend=name, receive_timeout=TIMEOUT) as session:
            assert session.compile("exprlang", source).value == reference


# ------------------------------------------------------ mixed-language service


class TestMixedLanguageService:
    @pytest.mark.parametrize("name", ALL_SUBSTRATES)
    def test_mixed_stream_parity_with_old_entry_points(self, name):
        expr_sources = [random_expression_source(40, seed=s, nesting=4) for s in (1, 2)]
        pascal_source = generate_program(
            procedures=2, statements_per_procedure=2, seed=5
        )

        # Simulated one-shot compiles, one language at a time, are the baseline.
        expected_code = Compiler("pascal", machines=3).compile(pascal_source).value
        expected_values = [
            Compiler("exprlang", machines=2, evaluator="combined").compile(source).value
            for source in expr_sources
        ]

        jobs = [
            CompilationJob(language="exprlang", source=source, machines=2)
            for source in expr_sources
        ]
        jobs.append(CompilationJob(language="pascal", source=pascal_source, machines=3))

        with Session(backend=name, receive_timeout=TIMEOUT) as session:
            with session.service(max_in_flight=2) as service:
                reports = service.compile_many(jobs)

        values = [get_language("exprlang").result(r) for r in reports[:2]]
        code = get_language("pascal").result(reports[2])
        assert values == expected_values
        assert code == expected_code  # byte-identical across substrates

    def test_language_job_validation(self):
        from repro.service import ServiceError

        job = CompilationJob(language="exprlang", label="broken")
        with pytest.raises(ServiceError):
            job.resolve()
        with pytest.raises(ServiceError):
            CompilationJob(label="empty").resolve()

    def test_old_style_compiler_jobs_still_work(self):
        engine = engine_for("exprlang")
        tree = get_language("exprlang").parse(EXPR_SOURCE)
        resolved_engine, resolved_tree = CompilationJob(engine, tree=tree).resolve()
        assert resolved_engine is engine
        assert resolved_tree is tree


# ------------------------------------------------------------ session lifecycle


class TestSessionLifecycle:
    def test_with_block_then_explicit_close_is_idempotent(self):
        with Session(backend="threads", receive_timeout=TIMEOUT) as session:
            assert session.compile("exprlang", EXPR_SOURCE).value == 7
            session.close()  # inside the block
            session.shutdown()  # alias, again
        session.close()  # after the block exit already closed it

    def test_closed_session_rejects_new_work(self):
        session = Session(backend="threads")
        session.start()
        session.close()
        with pytest.raises(repro.backends.BackendError):
            session.start()

    def test_borrowed_substrate_left_running(self):
        pool = create_substrate("threads", receive_timeout=TIMEOUT)
        try:
            with Session(substrate=pool) as session:
                assert session.compile("exprlang", EXPR_SOURCE).value == 7
            # The session closed, the borrowed pool did not.
            with Session(substrate=pool) as again:
                assert again.compile("exprlang", EXPR_SOURCE).value == 7
        finally:
            pool.shutdown()

    def test_store_backed_session_lends_its_cache_to_its_service(self, tmp_path):
        """The service of a session with a store reads and warms that store; closing
        the session, not the service, retires the store's writer thread."""
        source = generate_program(procedures=4, statements_per_procedure=2, seed=1)
        job = CompilationJob(language="pascal", source=source, machines=4)
        stats = []
        for _ in range(2):
            with Session(backend="threads", machines=4, store=tmp_path) as session:
                with session.service() as service:
                    service.submit(job).result(timeout=TIMEOUT)
                    stats.append(service.stats())
        cold, warm = stats
        assert cold.region_cache_misses > 0 and cold.store_hits == 0
        # A fresh process-level cache: only the store can serve these keys.
        assert warm.store_hits > 0
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name == "repro-artifact-store-writer"
        ]

    @pytest.mark.parametrize("name", ALL_SUBSTRATES)
    def test_substrate_close_is_shutdown_and_idempotent(self, name):
        pool = create_substrate(name, receive_timeout=TIMEOUT)
        with pool:
            pass  # __exit__ shuts down
        pool.close()  # close() after shutdown(): no-op
        pool.shutdown()  # and again
        with pytest.raises(repro.backends.BackendError):
            pool.session(2)


# ------------------------------------------------------------- per-phase stats


class TestPerPhaseTimings:
    def test_service_stats_decompose_parse_and_compile(self):
        jobs = [
            CompilationJob(language="exprlang", source=EXPR_SOURCE, machines=2)
            for _ in range(4)
        ]
        with Session(backend="threads", receive_timeout=TIMEOUT) as session:
            with session.service(max_in_flight=2) as service:
                reports = service.compile_many(jobs)
                stats = service.stats()
        assert stats.jobs_completed == 4
        assert stats.parse_p50 > 0
        assert stats.compile_p50 > 0
        assert stats.parse_p95 >= stats.parse_p50
        assert stats.compile_p95 >= stats.compile_p50
        # Phases decompose the whole-job latency (same window, same jobs).
        assert stats.parse_p50 + stats.compile_p50 <= stats.latency_p95 * 2
        assert "parse p50" in stats.summary()
        for report in reports:
            assert report.wall_parse_seconds > 0

    def test_report_summary_shows_parse_wall_on_real_substrates(self):
        result = Compiler("exprlang", backend="threads").compile(EXPR_SOURCE)
        assert "parse" in result.report.summary()

    def test_prebuilt_tree_jobs_do_not_pollute_parse_stats(self):
        engine = engine_for("exprlang")
        tree = get_language("exprlang").parse(EXPR_SOURCE)
        with Session(backend="threads", receive_timeout=TIMEOUT) as session:
            with session.service(max_in_flight=1) as service:
                report = service.compile_many(
                    [CompilationJob(engine, tree=tree, machines=2)]
                )[0]
                stats = service.stats()
        assert report.wall_parse_seconds == 0.0
        assert stats.parse_p50 == 0.0  # no parse phase happened, none recorded
        assert stats.compile_p50 > 0


# --------------------------------------------------------- name-keyed bundles


class TestNameKeyedBundles:
    @requires_fork
    def test_bundle_ships_once_across_fresh_compilers(self):
        """Fresh facades for one language share one worker-side cache entry."""
        source = random_expression_source(60, seed=3, nesting=4)
        with create_substrate("processes", receive_timeout=TIMEOUT) as pool:
            for _ in range(3):
                # A brand-new facade per call: without name keying each one would
                # re-ship (or at least re-register) its own grammar bundle.
                compiler = Compiler("exprlang", substrate=pool)
                assert compiler.compile(source).value is not None
            named = [
                ident for ident in pool._bundles.ids if ident and ident[0] == "named"
            ]
            assert len(named) == 1

    def test_shared_bundle_unwraps_for_in_process_substrates(self):
        from repro.backends.base import WorkerJob

        def factory(transport, payload):
            assert payload == ("the", "payload")
            return iter(())

        job = WorkerJob(
            factory=factory,
            shared={"payload": SharedBundle("k", ("the", "payload"))},
        )
        job.materialize(object())
