"""The :class:`Document` session: edit source text, recompile only what changed.

A document is the staged-pipeline counterpart of ``Compiler.compile``: it keeps
every intermediate artifact of the previous build — the rope source, the token
stream with spans, the parse tree, the fingerprint memo and (through the shared
:class:`~repro.incremental.cache.ArtifactCache`) the per-region evaluation
recordings — and reuses each stage across edits::

    from repro import Session

    with Session(backend="processes") as session:
        doc = session.open("pascal", source)
        cold = doc.recompile()                  # full build, artifacts recorded
        doc.edit(start, end, "x := x + 2")      # one keystroke-sized change
        warm = doc.recompile()                  # re-lexes the damage, re-parses one
                                                # subtree, evaluates dirty regions
        print(warm.incremental.summary())

Guarantees:

* ``recompile()`` after any edit sequence returns the same value, errors and
  assembled code as a cold ``Compiler.compile`` of the current text (the artifact
  cache affects time, never results — stale cached inputs are detected by
  hole-signature validation and re-evaluated);
* edits are plain text operations (``edit``/``insert``/``delete``) in current
  document coordinates; the rope representation shares all untouched text.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple, Union

from repro.backends.base import Substrate
from repro.distributed.compiler import CompilerConfiguration
from repro.incremental.cache import ArtifactCache
from repro.incremental.engine import IncrementalCompiler
from repro.incremental.fingerprint import FingerprintMemo
from repro.incremental.frontend import (
    EditEnvelope,
    incremental_reparse,
    incremental_scan,
)
from repro.parsing.lexer import LexerError
from repro.parsing.parser import ParseError
from repro.strings.rope import Rope, rope
from repro.tree.node import ParseTreeNode


class Document:
    """One editable source text bound to a language, a substrate and a cache.

    Usually created via :meth:`repro.api.Session.open`, which supplies the
    session's substrate and its shared artifact cache.
    """

    def __init__(
        self,
        language,
        source: Union[str, Rope],
        *,
        machines: int = 2,
        evaluator: Optional[str] = None,
        configuration: Optional[CompilerConfiguration] = None,
        backend: Optional[str] = None,
        substrate: Optional[Substrate] = None,
        cache: Optional[ArtifactCache] = None,
        store: Any = None,
        root_inherited: Optional[Dict[str, Any]] = None,
    ):
        # Late imports: repro.api builds its Session on top of this module.
        from repro.api.language import engine_for, get_language

        self.language = get_language(language)
        self.machines = machines
        self.backend = backend
        self.substrate = substrate
        if cache is not None and store is not None:
            raise ValueError(
                "pass either cache= (a possibly store-backed ArtifactCache) or "
                "store= (a path/ArtifactStore to mount a fresh cache on), not both"
            )
        #: A cache passed in belongs to its caller; one built here, to this document.
        self._owns_cache = cache is None
        if cache is not None:
            self.cache = cache
        elif store is not None:
            # A persistent tier of its own: artifacts recorded by any earlier
            # process that mounted this store warm-start this document's builds.
            self.cache = ArtifactCache(store=store)
        else:
            self.cache = ArtifactCache()
        self._root_inherited = root_inherited
        self._engine = engine_for(self.language, evaluator or "combined", configuration)
        self._incremental = IncrementalCompiler(self._engine, self.cache)
        self._memo = FingerprintMemo()
        frontend = getattr(self.language, "frontend", None)
        self._frontend: Optional[Tuple[Any, Any]] = frontend() if frontend else None

        self._rope = rope(source)
        self._text: Optional[str] = None
        self._envelope = EditEnvelope()
        self._tokens = None
        self._spans = None
        self._tree: Optional[ParseTreeNode] = None
        self._built_text: Optional[str] = None
        self.last_result = None

    # ------------------------------------------------------------------ editing

    @property
    def text(self) -> str:
        """The current source text (flattened lazily from the rope)."""
        if self._text is None:
            self._text = self._rope.flatten()
        return self._text

    @property
    def source(self) -> Rope:
        """The current source as a rope (untouched stretches shared across edits)."""
        return self._rope

    def edit(self, start: int, end: int, text: str) -> "Document":
        """Replace ``[start, end)`` of the current text with ``text``."""
        self._rope = self._rope.replace(start, end, text)
        self._envelope.record(start, end, len(text))
        self._text = None
        return self

    def insert(self, position: int, text: str) -> "Document":
        return self.edit(position, position, text)

    def delete(self, start: int, end: int) -> "Document":
        return self.edit(start, end, "")

    def __len__(self) -> int:
        return len(self._rope)

    # ---------------------------------------------------------------- compiling

    def recompile(self):
        """Compile the current text, reusing every artifact the edits left intact.

        Returns a :class:`repro.api.CompileResult` whose ``incremental`` field
        reports what was reused: regions replayed vs evaluated, validation rounds
        and the front-end mode (``cold``/``reuse``/``splice``/``full``).
        """
        from repro.api.compiler import CompileResult

        started = time.perf_counter()
        tree, mode = self._front_end()
        wall_parse = time.perf_counter() - started

        report, incremental = self._incremental.compile_tree(
            tree,
            self.machines,
            root_inherited=self._root_inherited,
            backend=self.backend,
            substrate=self.substrate,
            memo=self._memo,
        )
        incremental.frontend = mode
        report.wall_parse_seconds = wall_parse
        result = CompileResult(
            language=self.language.name,
            value=self.language.result(report),
            errors=self.language.errors(report),
            report=report,
            wall_parse_seconds=wall_parse,
            wall_compile_seconds=report.wall_time_seconds,
            incremental=incremental,
        )
        self.last_result = result
        return result

    # ---------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Flush and close the artifact cache this document created (idempotent).

        Its store writer thread exits once every recorded artifact is written.  A
        cache passed in as ``cache=`` is its owner's to close and is left alone.
        """
        if self._owns_cache:
            self.cache.close()

    def __enter__(self) -> "Document":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ---------------------------------------------------------------- internals

    def _front_end(self) -> Tuple[ParseTreeNode, str]:
        """Produce the parse tree for the current text, incrementally if possible."""
        text = self.text
        if self._tree is not None and self._envelope.empty:
            return self._tree, "reuse"

        if self._frontend is None:
            # No lexer/parser pair exposed: full parse; region-level reuse still
            # applies through content-addressed fingerprints.
            mode = "cold" if self._tree is None else "full"
            tree = self.language.parse(text)
            self._commit_front_end(text, None, None, tree)
            return tree, mode

        lexer, parser = self._frontend
        if self._tree is None or self._built_text is None:
            tokens, spans, _ = lexer.scan(text)
            tree = parser.parse(tokens)
            self._commit_front_end(text, tokens, spans, tree)
            return tree, "cold"

        try:
            tokens, spans, first_changed, old_resync, new_resync = incremental_scan(
                lexer, self._tokens, self._spans, self._built_text, text, self._envelope
            )
            tree, mode = incremental_reparse(
                self._engine.grammar,
                parser,
                self._tree,
                tokens,
                first_changed,
                old_resync,
                new_resync,
            )
        except (LexerError, ParseError):
            # Invalid source must surface exactly as it would on a cold compile;
            # rebuilding from scratch also re-validates the splice machinery.
            tokens, spans, _ = lexer.scan(text)
            tree = parser.parse(tokens)
            mode = "full"
        self._commit_front_end(text, tokens, spans, tree)
        return tree, mode

    def _commit_front_end(self, text, tokens, spans, tree) -> None:
        self._built_text = text
        self._tokens = tokens
        self._spans = spans
        self._tree = tree
        self._envelope.reset()

    def __repr__(self) -> str:
        state = "built" if self._tree is not None else "new"
        return (
            f"Document({self.language.name!r}, {len(self._rope)} chars, "
            f"machines={self.machines}, {state})"
        )
