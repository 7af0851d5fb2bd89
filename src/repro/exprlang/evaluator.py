"""Convenience evaluation helpers and workload generation for the expression language."""

from __future__ import annotations

import random
from typing import Optional

from repro.evaluation.combined import CombinedEvaluator
from repro.evaluation.dynamic import DynamicEvaluator
from repro.evaluation.static import StaticEvaluator
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.grammar.grammar import AttributeGrammar


_EVALUATORS = {
    "static": StaticEvaluator,
    "dynamic": DynamicEvaluator,
    "combined": CombinedEvaluator,
}


def evaluate_expression(
    source: str,
    evaluator: str = "static",
    grammar: Optional[AttributeGrammar] = None,
) -> int:
    """Parse and evaluate an expression, returning its integer value.

    :param evaluator: ``"static"``, ``"dynamic"`` or ``"combined"`` — all three must
        agree, which the test suite checks extensively.
    """
    if evaluator not in _EVALUATORS:
        raise ValueError(
            f"unknown evaluator {evaluator!r}; choose from {sorted(_EVALUATORS)}"
        )
    grammar = grammar or expression_grammar()
    tree = parse_expression(source, grammar)
    _EVALUATORS[evaluator](grammar).evaluate(tree)
    return tree.get_attribute("value")


def random_expression_source(
    size: int,
    seed: int = 0,
    nesting: int = 3,
) -> str:
    """Generate a pseudo-random expression with roughly ``size`` operators.

    Used by benchmarks and the distributed examples to produce expression trees large
    enough to be split across several evaluators.  ``let`` blocks are emitted with
    probability proportional to ``nesting`` so the tree contains splittable ``block``
    nonterminals.
    """
    rng = random.Random(seed)

    def generate(budget: int, depth: int, bound: list) -> str:
        if budget <= 1:
            if bound and rng.random() < 0.4:
                return rng.choice(bound)
            return str(rng.randint(1, 9))
        if depth < nesting and budget >= 4 and rng.random() < 0.35:
            name = f"v{rng.randint(0, 999)}"
            binding_budget = max(1, budget // 3)
            body_budget = budget - binding_budget - 1
            binding = generate(binding_budget, depth + 1, bound)
            body = generate(body_budget, depth + 1, bound + [name])
            return f"let {name} = {binding} in {body} ni"
        operator = rng.choice(["+", "*"])
        left_budget = rng.randint(1, budget - 1)
        left = generate(left_budget, depth + 1, bound)
        right = generate(budget - left_budget, depth + 1, bound)
        return f"({left} {operator} {right})"

    return generate(max(1, size), 0, [])
