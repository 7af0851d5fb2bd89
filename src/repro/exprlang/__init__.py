"""The paper's appendix language: arithmetic expressions with ``let`` bindings.

The appendix of the paper gives a small attribute grammar that "specifies the value of
expressions involving addition and multiplication", with identifiers bound by
``let x = 3 in 1 + 2 * x ni``.  This package reproduces that grammar both through the
programmatic builder (:func:`expression_grammar`) and through the textual specification
format (:data:`EXPRESSION_SPEC` + :func:`expression_grammar_from_spec`), provides a
scanner/parser front end, and is used as the quick-start example and as a small but
complete workload for the evaluators and the distributed runtime.
"""

from repro.exprlang.grammar import (
    expression_grammar,
    expression_grammar_from_spec,
    EXPRESSION_SPEC,
)
from repro.exprlang.frontend import parse_expression, tokenize_expression
from repro.exprlang.evaluator import (
    evaluate_expression,
    random_expression_source,
)

__all__ = [
    "expression_grammar",
    "expression_grammar_from_spec",
    "EXPRESSION_SPEC",
    "parse_expression",
    "tokenize_expression",
    "evaluate_expression",
    "random_expression_source",
]
