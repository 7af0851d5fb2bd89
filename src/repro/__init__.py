"""repro — Parallel Attribute Grammar Evaluation.

A reproduction of Boehm & Zwaenepoel, "Parallel Attribute Grammar Evaluation"
(ICDCS 1987): attribute grammars, dynamic / static (ordered) / combined evaluators,
interchangeable execution backends (the paper's simulated network multiprocessor plus
real OS-thread and OS-process substrates), tree partitioning, a distributed parallel
compiler driver with string-librarian result propagation, and a Pascal-subset compiler
used as the headline workload.

The front door is :mod:`repro.api` — a language registry plus a unified
``Compiler``/``Session`` API over every workload and substrate::

    from repro import Session

    with Session(backend="threads") as s:
        assert s.compile("exprlang", "let x = 3 in 1 + 2 * x ni").value == 7

New languages plug in by registration (:class:`GrammarLanguage` +
:func:`register_language`) — see ``examples/register_language.py``.

See ``README.md`` at the repository root for the architecture overview and a tour of
the packages, examples and benchmarks.

The service layer (:mod:`repro.service`) and the HTTP front door (:mod:`repro.server`,
which brings in ``asyncio``) load on first use of one of their names, so a process
that only compiles never pays for them (PEP 562 module ``__getattr__``).
"""

import importlib

from repro.grammar import (
    AttributeGrammar,
    AttributeKind,
    GrammarBuilder,
    GrammarError,
    Rule,
    parse_grammar_spec,
)
from repro.analysis import (
    build_evaluation_plan,
    check_noncircular,
    CircularGrammarError,
    NotOrderedError,
)
from repro.evaluation import (
    CombinedEvaluator,
    DynamicEvaluator,
    EvaluationError,
    EvaluationStatistics,
    StaticEvaluator,
)
from repro.backends import (
    BACKEND_NAMES,
    SharedBundle,
    Substrate,
    create_backend,
    create_substrate,
)
from repro.distributed.compiler import (
    CompilationReport,
    CompilerConfiguration,
    ParallelCompiler,
)
from repro.parsing import Lexer, Parser, ParseError, Token, TokenSpec
from repro.strings import Rope, rope
from repro.symtab import SymbolTable, st_add, st_create, st_lookup
from repro.exprlang import (
    evaluate_expression,
    expression_grammar,
    parse_expression,
)
from repro.api import (
    ArtifactCache,
    Compiler,
    CompileResult,
    Document,
    DuplicateLanguageError,
    GrammarLanguage,
    IncrementalReport,
    Language,
    LanguageError,
    Session,
    UnknownLanguageError,
    available_languages,
    get_language,
    register_language,
)

__version__ = "1.1.0"

#: Names exported here whose module is imported on first access, not with ``repro``.
_LAZY = {
    "CompilationJob": "repro.service",
    "CompilationService": "repro.service",
    "ServiceStats": "repro.service",
    "CompileServer": "repro.server",
    "ServerConfig": "repro.server",
}

#: Subpackages ``import repro`` does not load, reachable as ``repro.<name>`` all the same.
_LAZY_SUBPACKAGES = frozenset({"server", "service", "cluster"})


def __getattr__(name):
    module = _LAZY.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
    elif name in _LAZY_SUBPACKAGES:
        value = importlib.import_module(f"repro.{name}")
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | _LAZY_SUBPACKAGES)


__all__ = [
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
    "CombinedEvaluator",
    "DynamicEvaluator",
    "EvaluationError",
    "EvaluationStatistics",
    "StaticEvaluator",
    "BACKEND_NAMES",
    "SharedBundle",
    "Substrate",
    "create_backend",
    "create_substrate",
    "CompilationJob",
    "CompilationReport",
    "CompilationService",
    "CompileServer",
    "ServerConfig",
    "CompilerConfiguration",
    "ParallelCompiler",
    "ServiceStats",
    "Lexer",
    "Parser",
    "ParseError",
    "Token",
    "TokenSpec",
    "Rope",
    "rope",
    "SymbolTable",
    "st_add",
    "st_create",
    "st_lookup",
    "evaluate_expression",
    "expression_grammar",
    "parse_expression",
    "ArtifactCache",
    "Compiler",
    "CompileResult",
    "Document",
    "DuplicateLanguageError",
    "GrammarLanguage",
    "IncrementalReport",
    "Language",
    "LanguageError",
    "Session",
    "UnknownLanguageError",
    "available_languages",
    "get_language",
    "register_language",
    "__version__",
]
