"""Public-API snapshot: the package surface is a contract, not an accident.

``repro.__all__`` and ``repro.api.__all__`` must match the checked-in lists below,
and every advertised name must actually resolve.  A deliberate surface change
updates the snapshot here in the same commit; an accidental export (or a dropped
one) fails CI.
"""

from __future__ import annotations

import repro
import repro.api

#: The one front door plus the stable building blocks underneath it.
EXPECTED_REPRO_ALL = sorted([
    # grammars and analyses
    "AttributeGrammar",
    "AttributeKind",
    "GrammarBuilder",
    "GrammarError",
    "Rule",
    "parse_grammar_spec",
    "build_evaluation_plan",
    "check_noncircular",
    "CircularGrammarError",
    "NotOrderedError",
    # sequential evaluators
    "CombinedEvaluator",
    "DynamicEvaluator",
    "EvaluationError",
    "EvaluationStatistics",
    "StaticEvaluator",
    # execution substrates
    "BACKEND_NAMES",
    "SharedBundle",
    "Substrate",
    "create_backend",
    "create_substrate",
    # the parallel-compilation engine and service layer
    "CompilationJob",
    "CompilationReport",
    "CompilationService",
    "CompilerConfiguration",
    "ParallelCompiler",
    "ServiceStats",
    # the HTTP front door over the service
    "CompileServer",
    "ServerConfig",
    # parsing toolkit
    "Lexer",
    "Parser",
    "ParseError",
    "Token",
    "TokenSpec",
    # strings and symbol tables
    "Rope",
    "rope",
    "SymbolTable",
    "st_add",
    "st_create",
    "st_lookup",
    # legacy expression-language entry points (deprecated shims included)
    "evaluate_expression",
    "expression_grammar",
    "parse_expression",
    # the repro.api front door
    "ArtifactCache",
    "Compiler",
    "CompileResult",
    "Document",
    "IncrementalReport",
    "DuplicateLanguageError",
    "GrammarLanguage",
    "Language",
    "LanguageError",
    "Session",
    "UnknownLanguageError",
    "available_languages",
    "get_language",
    "register_language",
    "__version__",
])

EXPECTED_API_ALL = sorted([
    "ArtifactCache",
    "Compiler",
    "CompileResult",
    "Document",
    "IncrementalReport",
    "DuplicateLanguageError",
    "ExprLanguage",
    "GrammarLanguage",
    "Language",
    "LanguageError",
    "PascalLanguage",
    "Session",
    "UnknownLanguageError",
    "attribute_value",
    "available_languages",
    "engine_for",
    "get_language",
    "register_language",
    "unregister_language",
])


def test_repro_all_matches_snapshot():
    assert sorted(repro.__all__) == EXPECTED_REPRO_ALL


def test_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == EXPECTED_API_ALL


def test_every_advertised_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert len(repro.api.__all__) == len(set(repro.api.__all__))


def test_builtin_languages_available_on_plain_import():
    assert set(repro.available_languages()) >= {"pascal", "exprlang"}
