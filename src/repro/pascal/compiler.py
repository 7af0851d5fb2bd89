"""Sequential Pascal compilation; ``repro.api.Compiler("pascal")`` compiles in parallel."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.analysis.visit_sequences import OrderedEvaluationPlan, build_evaluation_plan
from repro.distributed.compiler import CompilerConfiguration
from repro.evaluation.base import EvaluationStatistics
from repro.evaluation.combined import CombinedEvaluator
from repro.evaluation.dynamic import DynamicEvaluator
from repro.evaluation.static import StaticEvaluator
from repro.grammar.grammar import AttributeGrammar
from repro.parsing.parser import Parser
from repro.pascal.grammar import pascal_grammar
from repro.pascal.lexer import tokenize_pascal
from repro.strings.rope import Rope
from repro.tree.node import ParseTreeNode
from repro.tree.stats import tree_statistics


@dataclass
class CompileResult:
    """Outcome of a sequential compilation."""

    code: str
    errors: Tuple[str, ...]
    statistics: EvaluationStatistics
    tree_nodes: int

    @property
    def ok(self) -> bool:
        return not self.errors


@lru_cache(maxsize=None)
def _shared_parser() -> Parser:
    return Parser(pascal_grammar())


@lru_cache(maxsize=None)
def _shared_plan() -> OrderedEvaluationPlan:
    return build_evaluation_plan(pascal_grammar())


class PascalCompiler:
    """Parse and compile Pascal programs with any of the evaluators.

    The grammar, LALR parse table and ordered-evaluation plan are built once per process
    and shared across instances, mirroring the paper's generator which runs the
    grammar-time analyses once.
    """

    def __init__(self, configuration: Optional[CompilerConfiguration] = None):
        self.grammar: AttributeGrammar = pascal_grammar()
        self.parser = _shared_parser()
        self.plan = _shared_plan()
        self.configuration = configuration or CompilerConfiguration()

    # ----------------------------------------------------------------- parsing

    def parse(self, source: str) -> ParseTreeNode:
        """Scan and parse Pascal source into a parse tree."""
        return self.parser.parse(tokenize_pascal(source))

    # -------------------------------------------------------------- sequential

    def compile(self, source: str, evaluator: str = "static") -> CompileResult:
        """Compile sequentially with the chosen evaluator (static/dynamic/combined)."""
        evaluators = {
            "static": StaticEvaluator,
            "dynamic": DynamicEvaluator,
            "combined": CombinedEvaluator,
        }
        if evaluator not in evaluators:
            raise ValueError(f"unknown evaluator {evaluator!r}; choose from {sorted(evaluators)}")
        tree = self.parse(source)
        if evaluator == "dynamic":
            engine = DynamicEvaluator(self.grammar)
        elif evaluator == "combined":
            engine = CombinedEvaluator(self.grammar, plan=self.plan)
        else:
            engine = StaticEvaluator(self.grammar, plan=self.plan)
        statistics = engine.evaluate(tree)
        code_value = tree.get_attribute("code")
        code_text = code_value.flatten() if isinstance(code_value, Rope) else str(code_value)
        return CompileResult(
            code=code_text,
            errors=tuple(tree.get_attribute("errs")),
            statistics=statistics,
            tree_nodes=tree_statistics(tree).node_count,
        )
