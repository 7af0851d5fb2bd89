"""The unified :class:`Compiler` facade: one ``compile(source)`` for every language.

The facade is parameterised by a registered language and a substrate choice, and
always returns the same :class:`CompileResult` shape::

    from repro import Compiler

    result = Compiler("exprlang").compile("let x = 3 in 1 + 2 * x ni")
    assert result.value == 7

    result = Compiler("pascal", backend="threads", machines=4).compile(source)
    print(result.value[:200])          # generated code text
    print(result.report.summary())     # the full CompilationReport underneath
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.api.language import Language, engine_for, get_language, parse_for_compile
from repro.backends.base import Substrate, compiles_in_flight
from repro.distributed.compiler import (
    CompilationReport,
    CompilerConfiguration,
    ParallelCompiler,
)
from repro.partition.decomposition import TreeRoot
from repro.tree.node import ParseTreeNode


@dataclass
class CompileResult:
    """The uniform outcome of one front-door compilation, on any substrate.

    ``value`` is whatever the language's result hook extracts — generated code text
    for ``pascal``, an integer for ``exprlang`` — and ``report`` is the full
    :class:`CompilationReport` (timings, decomposition, message statistics) for
    callers that want the paper's measurements.  ``wall_parse_seconds`` and
    ``wall_compile_seconds`` decompose the real wall-clock cost by phase on every
    substrate, simulated included.
    """

    language: str
    value: Any
    errors: Tuple[str, ...]
    report: CompilationReport
    wall_parse_seconds: float
    wall_compile_seconds: float
    #: Reuse accounting when this result came from an incremental recompilation
    #: (:class:`repro.incremental.Document`): which regions were replayed from the
    #: artifact cache vs evaluated, validation rounds and the front-end mode.
    #: ``None`` for plain one-shot compilations.
    incremental: Optional["Any"] = None

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def code(self) -> str:
        """The result as text (identical to ``value`` for code-producing languages)."""
        return self.value if isinstance(self.value, str) else str(self.value)

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock cost of this call: parse plus compile."""
        return self.wall_parse_seconds + self.wall_compile_seconds

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.errors)} error(s)"
        return (
            f"{self.language}: {status} on {self.report.machines} machine(s) "
            f"[{self.report.backend}], wall {self.wall_seconds * 1000:.1f}ms "
            f"(parse {self.wall_parse_seconds * 1000:.1f}ms, "
            f"compile {self.wall_compile_seconds * 1000:.1f}ms)"
        )


class Compiler:
    """Compile any registered language on any substrate through one front door.

    :param language: a registered language name (or a registered
        :class:`~repro.api.language.Language` instance).
    :param machines: default machine count per compilation.
    :param evaluator: ``"combined"`` (default) or ``"dynamic"``.
    :param backend: one-shot substrate name (``"simulated"`` when neither ``backend``
        nor ``substrate`` is given).
    :param substrate: a started persistent :class:`Substrate` to borrow — usually
        provided by :class:`repro.api.Session` rather than by hand.
    :param configuration: full :class:`CompilerConfiguration` override for callers
        tuning librarian/priority/cost-model knobs; its ``evaluator`` wins over the
        ``evaluator`` argument.
    """

    def __init__(
        self,
        language: Union[str, Language],
        *,
        machines: int = 2,
        evaluator: Optional[str] = None,
        backend: Optional[str] = None,
        substrate: Optional[Substrate] = None,
        configuration: Optional[CompilerConfiguration] = None,
    ):
        if machines < 1:
            raise ValueError("machines must be at least 1")
        if configuration is not None and evaluator is not None:
            if configuration.evaluator != evaluator:
                raise ValueError(
                    f"evaluator={evaluator!r} conflicts with "
                    f"configuration.evaluator={configuration.evaluator!r}"
                )
        self.language = get_language(language)
        self.machines = machines
        self.backend = backend
        self.substrate = substrate
        self._engine = engine_for(
            self.language, evaluator or "combined", configuration
        )
        if substrate is not None:
            self._engine.prepare(substrate)

    @property
    def engine(self) -> ParallelCompiler:
        """The underlying :class:`ParallelCompiler` (shared across facades)."""
        return self._engine

    def parse(self, source: str) -> ParseTreeNode:
        """Parse ``source`` with the language's front end (no evaluation)."""
        return self.language.parse(source)

    def compile(
        self,
        source: str,
        *,
        machines: Optional[int] = None,
        root_inherited: Optional[Dict[str, Any]] = None,
    ) -> CompileResult:
        """Parse and compile ``source``; returns the uniform :class:`CompileResult`.

        A language with a front end is compiled from its recogniser's records
        (:func:`~repro.api.language.parse_for_compile`): no tree is built here.
        """
        with compiles_in_flight:
            started = time.perf_counter()
            tree = parse_for_compile(self.language, source)
            wall_parse = time.perf_counter() - started
            report = self._engine_compile(tree, machines, root_inherited)
        return self._result(report, wall_parse)

    def compile_tree(
        self,
        tree: ParseTreeNode,
        *,
        machines: Optional[int] = None,
        root_inherited: Optional[Dict[str, Any]] = None,
        wall_parse_seconds: float = 0.0,
    ) -> CompileResult:
        """Compile an already-parsed tree (for machine-count sweeps over one program)."""
        with compiles_in_flight:
            report = self._engine_compile(tree, machines, root_inherited)
        return self._result(report, wall_parse_seconds)

    def _engine_compile(
        self,
        tree: TreeRoot,
        machines: Optional[int],
        root_inherited: Optional[Dict[str, Any]],
    ) -> CompilationReport:
        return self._engine.compile_tree(
            tree,
            machines or self.machines,
            root_inherited=root_inherited,
            backend=self.backend,
            substrate=self.substrate,
        )

    def _result(self, report: CompilationReport, wall_parse_seconds: float) -> CompileResult:
        report.wall_parse_seconds = wall_parse_seconds
        return CompileResult(
            language=self.language.name,
            value=self.language.result(report),
            errors=self.language.errors(report),
            report=report,
            wall_parse_seconds=wall_parse_seconds,
            wall_compile_seconds=report.wall_time_seconds,
        )

    def compile_many(self, sources: Iterable[str]) -> List[CompileResult]:
        """Compile a batch of sources sequentially on this compiler's substrate.

        For concurrent streams, submit :class:`repro.service.CompilationJob`\\ s to a
        :class:`repro.service.CompilationService` (see :meth:`repro.api.Session.service`).
        """
        return [self.compile(source) for source in sources]

    def __repr__(self) -> str:
        where = (
            f"substrate={self.substrate.name!r}"
            if self.substrate is not None
            else f"backend={(self.backend or 'simulated')!r}"
        )
        return f"Compiler({self.language.name!r}, machines={self.machines}, {where})"
