"""The :class:`Language` protocol and the process-wide language registry.

The paper's architecture is workload-agnostic — any attributed tree can be
partitioned and evaluated in parallel — so the front door treats a workload as a
*language*: a name, an attribute grammar, a parse function from source text to an
attributed tree, and hooks that extract the interesting result (generated code, a
computed value, error lists) from a finished :class:`CompilationReport`.

New workloads plug in by registration, not by copying compiler glue::

    from repro import GrammarLanguage, register_language, Compiler

    register_language(GrammarLanguage("mylang", my_grammar, tokenize=my_tokenizer,
                                      result_attribute="value"))
    print(Compiler("mylang").compile("...").value)

Registration also names the language's grammar+plan bundle for the pooled processes
substrate (:class:`~repro.backends.base.SharedBundle`): every compiler created for a
registered language shares one worker-side cache entry, so the grammar crosses to
each pooled worker once ever — not once per caller.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.analysis.visit_sequences import OrderedEvaluationPlan, build_evaluation_plan
from repro.distributed.compiler import (
    CompilationReport,
    CompilerConfiguration,
    ParallelCompiler,
)
from repro.grammar.grammar import AttributeGrammar
from repro.parsing.parser import Parser
from repro.partition.decomposition import TreeRoot
from repro.strings.rope import Rope
from repro.tree.node import ParseTreeNode
from repro.tree.spans import PostOrderSpans


class LanguageError(ValueError):
    """Base error for language-registry misuse."""


class DuplicateLanguageError(LanguageError):
    """Raised when registering a name that is already taken (without ``replace``)."""


class UnknownLanguageError(LanguageError):
    """Raised when looking up a name nothing was registered under."""


def attribute_value(report: CompilationReport, name: str) -> Any:
    """The final value of a root attribute, librarian-assembled text included.

    Code attributes routed through the string librarian land in ``report.assembled``
    rather than ``report.root_attributes``; ropes are flattened to plain strings
    either way, while non-string values (e.g. the expression language's integer
    ``value``) come back unchanged.
    """
    if name in report.assembled:
        return report.assembled[name].flatten()
    value = report.root_attributes.get(name)
    if isinstance(value, Rope):
        return value.flatten()
    return value


class Language(abc.ABC):
    """Everything the front door needs to know about one workload.

    Subclasses define a ``name``, build the attribute grammar, and parse source text
    into a tree attributed by that grammar.  The two extraction hooks have useful
    defaults: ``result`` returns the full root-attribute dict and ``errors`` reads a
    root ``errs`` attribute when the grammar declares one.
    """

    #: Registry name; must be unique per process.
    name: str = ""

    @abc.abstractmethod
    def grammar(self) -> AttributeGrammar:
        """The language's attribute grammar.

        The registry calls this once per registration and caches the instance, so
        implementations may build eagerly; everything downstream (plans, engines,
        bundles) sees one grammar object.
        """

    @abc.abstractmethod
    def parse(self, source: str) -> ParseTreeNode:
        """Scan and parse ``source`` into a tree attributed by :meth:`grammar`."""

    def plan(self) -> Optional[OrderedEvaluationPlan]:
        """Optional hook: a precomputed ordered-evaluation plan for the combined
        evaluator.  Return ``None`` (the default) to have the registry build one
        from :meth:`grammar`; override to share a plan another cache already built.
        """
        return None

    def frontend(self) -> Optional[Tuple[Any, Any]]:
        """Optional hook: the language's ``(lexer, parser)`` pair.

        Incremental documents (:class:`repro.incremental.Document`) use the pair
        for damage-bounded re-lexing and subtree reparsing; languages that return
        ``None`` (the default) still get region-level artifact reuse, but pay a
        full ``parse()`` per recompile.  The lexer must be a
        :class:`repro.parsing.lexer.Lexer` and the parser a
        :class:`repro.parsing.parser.Parser` over :meth:`grammar`.
        """
        return None

    def result(self, report: CompilationReport) -> Any:
        """Extract the language's payload from a finished compilation."""
        return dict(report.root_attributes)

    def errors(self, report: CompilationReport) -> Tuple[str, ...]:
        """Extract the language's error list (default: a root ``errs`` attribute)."""
        errs = report.root_attributes.get("errs")
        return tuple(errs) if errs else ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class GrammarLanguage(Language):
    """Define a language from a grammar and a tokenizer — enough for most workloads.

    :param name: registry name.
    :param grammar: the :class:`AttributeGrammar`, or a zero-argument factory for it
        (built lazily, once).
    :param tokenize: ``source -> List[Token]`` scanner; the LALR parse table is
        generated from the grammar and cached on first parse.
    :param result_attribute: root attribute returned as the compile result (rope
        values are flattened, librarian-assembled text is used when present); when
        ``None`` the result is the full root-attribute dict.
    :param error_attribute: root attribute holding the error list, or ``None`` for
        a language without one.
    :param lexer: optional :class:`repro.parsing.lexer.Lexer` behind ``tokenize``;
        providing it enables the incremental document front end (damage-bounded
        re-lexing and subtree reparsing) for this language.  Constraint: every
        token rule's matches must be determined by the lexeme text alone — no
        lookahead past the lexeme, and no delimited rule (block comment, string)
        whose *opening* delimiter can appear as ordinary adjacent tokens in a
        parseable program (an edit that later closes such a delimiter would
        retroactively change how the untouched prefix lexes).  Both built-in
        languages satisfy this; when in doubt, omit ``lexer`` — documents then
        re-lex in full but still reuse region evaluations.
    """

    def __init__(
        self,
        name: str,
        grammar: Union[AttributeGrammar, Callable[[], AttributeGrammar]],
        *,
        tokenize: Callable[[str], Any],
        result_attribute: Optional[str] = None,
        error_attribute: Optional[str] = "errs",
        lexer: Optional[Any] = None,
    ):
        if not name:
            raise LanguageError("a language needs a non-empty name")
        self.name = name
        self._grammar_source = grammar
        self._tokenize = tokenize
        self._lexer = lexer
        self.result_attribute = result_attribute
        self.error_attribute = error_attribute
        self._grammar: Optional[AttributeGrammar] = None
        self._parser: Optional[Parser] = None
        self._lock = threading.Lock()

    def grammar(self) -> AttributeGrammar:
        with self._lock:
            if self._grammar is None:
                source = self._grammar_source
                self._grammar = source() if callable(source) else source
            return self._grammar

    def parse(self, source: str) -> ParseTreeNode:
        return self._shared_parser().parse(self._tokenize(source))

    def frontend(self) -> Optional[Tuple[Any, Any]]:
        if self._lexer is None:
            return None
        return self._lexer, self._shared_parser()

    def _shared_parser(self) -> Parser:
        grammar = self.grammar()
        with self._lock:
            if self._parser is None:
                self._parser = Parser(grammar)
            return self._parser

    def result(self, report: CompilationReport) -> Any:
        if self.result_attribute is None:
            return dict(report.root_attributes)
        return attribute_value(report, self.result_attribute)

    def errors(self, report: CompilationReport) -> Tuple[str, ...]:
        if self.error_attribute is None:
            return ()
        errs = report.root_attributes.get(self.error_attribute)
        return tuple(errs) if errs else ()


# ------------------------------------------------------------------------ registry


class _LanguageRuntime:
    """Per-registration cache: grammar, ordered plan, shared compiler engines.

    One runtime per ``register_language`` call.  ``generation`` is baked into the
    bundle key so that re-registering a name (``replace=True``) never collides with
    payloads an older registration already shipped to pooled workers.
    """

    def __init__(self, language: Language, generation: int):
        self.language = language
        self.generation = generation
        self._lock = threading.Lock()
        self._grammar: Optional[AttributeGrammar] = None
        self._plans: Dict[str, Optional[OrderedEvaluationPlan]] = {}
        self._engines: Dict[str, ParallelCompiler] = {}

    def bundle_key(self, evaluator: str) -> str:
        return f"language:{self.language.name}#{self.generation}/{evaluator}"

    def grammar(self) -> AttributeGrammar:
        """The language's grammar, built once per registration.

        Caching here (not just inside the language) guarantees one grammar object
        per registration even for languages whose ``grammar()`` builds afresh —
        which keeps the name-keyed :class:`SharedBundle` contract honest: one key,
        one payload, forever.
        """
        with self._lock:
            if self._grammar is None:
                self._grammar = self.language.grammar()
            return self._grammar

    def plan(self, evaluator: str) -> Optional[OrderedEvaluationPlan]:
        with self._lock:
            if evaluator not in self._plans:
                plan = None
                if evaluator == "combined":
                    plan = self.language.plan()
                    if plan is None:
                        plan = build_evaluation_plan(self._grammar_locked())
                self._plans[evaluator] = plan
            return self._plans[evaluator]

    def _grammar_locked(self) -> AttributeGrammar:
        """Grammar access for callers already holding ``self._lock``."""
        if self._grammar is None:
            self._grammar = self.language.grammar()
        return self._grammar

    def engine(
        self, evaluator: str, configuration: Optional[CompilerConfiguration]
    ) -> ParallelCompiler:
        """A :class:`ParallelCompiler` with the language's name-keyed bundle.

        Default-configured engines are cached per evaluator kind; a custom
        configuration gets a fresh engine (still sharing the cached grammar, plan and
        bundle key, so pooled workers never see a duplicate grammar shipment).
        """
        if configuration is not None:
            return ParallelCompiler(
                self.grammar(),
                configuration,
                plan=self.plan(configuration.evaluator),
                bundle_key=self.bundle_key(configuration.evaluator),
            )
        with self._lock:
            engine = self._engines.get(evaluator)
        if engine is None:
            engine = ParallelCompiler(
                self.grammar(),
                CompilerConfiguration(evaluator=evaluator),
                plan=self.plan(evaluator),
                bundle_key=self.bundle_key(evaluator),
            )
            with self._lock:
                engine = self._engines.setdefault(evaluator, engine)
        return engine


_REGISTRY: Dict[str, _LanguageRuntime] = {}
_REGISTRY_LOCK = threading.Lock()
_GENERATION = 0


def register_language(language: Language, *, replace: bool = False) -> Language:
    """Add ``language`` to the process-wide registry under ``language.name``.

    Raises :class:`DuplicateLanguageError` if the name is taken, unless
    ``replace=True`` (which supersedes the old registration; compilers already built
    from it keep working but new lookups see the replacement).  Returns the language
    for chaining.
    """
    global _GENERATION
    if not isinstance(language, Language):
        raise LanguageError(
            f"register_language expects a Language instance, got {language!r}"
        )
    if not language.name:
        raise LanguageError("a language needs a non-empty name")
    with _REGISTRY_LOCK:
        if language.name in _REGISTRY and not replace:
            raise DuplicateLanguageError(
                f"a language named {language.name!r} is already registered; "
                "pass replace=True to supersede it"
            )
        _GENERATION += 1
        _REGISTRY[language.name] = _LanguageRuntime(language, _GENERATION)
    return language


def unregister_language(name: str) -> None:
    """Remove a registered language (no-op if absent).  Intended for tests."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


def get_language(language: Union[str, Language]) -> Language:
    """Resolve a registry name to its :class:`Language` (identity on instances)."""
    if isinstance(language, Language):
        return language
    runtime = _runtime(language)
    return runtime.language


def available_languages() -> Tuple[str, ...]:
    """The registered language names, sorted."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def _runtime(language: Union[str, Language]) -> _LanguageRuntime:
    """The registry runtime for a name or a registered Language instance."""
    with _REGISTRY_LOCK:
        if isinstance(language, Language):
            for runtime in _REGISTRY.values():
                if runtime.language is language:
                    return runtime
            raise UnknownLanguageError(
                f"language {language.name!r} is not registered; call register_language"
            )
        runtime = _REGISTRY.get(language)
    if runtime is None:
        raise UnknownLanguageError(
            f"no language named {language!r} is registered; "
            f"available: {', '.join(available_languages()) or '(none)'}"
        )
    return runtime


def parse_for_compile(language: Language, source: str) -> TreeRoot:
    """What a one-shot compile of ``source`` runs on.

    A language with a :meth:`~Language.frontend` is lexed and recognised, and the
    recogniser's post-order records are kept as they are
    (:class:`~repro.tree.spans.PostOrderSpans`): the compile plans over their spans
    and ships each region as a slice of them, so no node is built here.  Any other
    language is parsed into a tree with :meth:`~Language.parse`.  A lexer or parse
    error is the one :meth:`~Language.parse` raises.
    """
    frontend = language.frontend()
    if frontend is None:
        return language.parse(source)
    lexer, parser = frontend
    codes, values = parser.recognise(lexer.tokenize(source))
    return PostOrderSpans(parser.grammar, codes, values).root


def engine_for(
    language: Union[str, Language],
    evaluator: str = "combined",
    configuration: Optional[CompilerConfiguration] = None,
) -> ParallelCompiler:
    """The shared, name-key-bundled :class:`ParallelCompiler` for a language.

    This is the engine behind :class:`repro.api.Compiler` and the service layer's
    ``(language, source)`` jobs; grammar analyses run once per process and the
    grammar+plan bundle ships to each pooled process worker once ever.
    """
    return _runtime(language).engine(evaluator, configuration)
