#!/usr/bin/env python3
"""Register your own language: a toy workload through the front door.

The point of the :mod:`repro.api` registry is that a new workload needs *zero*
changes to ``repro`` internals: define an attribute grammar and a tokenizer, wrap
them in a :class:`~repro.GrammarLanguage`, register, and compile on any substrate —
simulated cluster, the in-process wall-clock kernel or forked OS processes — through the same
``Compiler``/``Session`` front door the built-in ``pascal`` and ``exprlang``
languages use.

The toy language here is ``sumlang``: a whitespace-separated list of integers whose
"compilation result" is their sum, with ``neg`` negating the number that follows
(``"1 2 neg 3"`` → 0).  The ``tail`` nonterminal is marked splittable, so long
inputs genuinely decompose across evaluator regions.

Run with::

    PYTHONPATH=src python examples/register_language.py
"""

from __future__ import annotations

import random

from repro import Compiler, GrammarBuilder, GrammarLanguage, Rule, Session, register_language
from repro.parsing import Lexer, TokenSpec


# Semantic functions live at module level so grammar bundles pickle cleanly for the
# pooled processes substrate (the same rule the built-in grammars follow).
def _to_int(text: str) -> int:
    return int(text)


def _neg_int(text: str) -> int:
    return -int(text)


def _add(left: int, right: int) -> int:
    return left + right


def sumlang_grammar():
    builder = GrammarBuilder("sumlang")
    builder.name_terminals("NUMBER", value_attribute="string")
    builder.keywords("NEG")
    builder.nonterminal("program", synthesized=["total"])
    builder.nonterminal("tail", synthesized=["total"], split=True, min_split_size=40)
    builder.nonterminal("item", synthesized=["amount"])
    builder.production(
        "program -> tail",
        Rule("$$.total", ["$1.total"]),
    )
    builder.production(
        "tail -> item",
        Rule("$$.total", ["$1.amount"]),
    )
    builder.production(
        "tail -> tail item",
        Rule("$$.total", ["$1.total", "$2.amount"], _add, name="add"),
    )
    builder.production(
        "item -> NUMBER",
        Rule("$$.amount", ["$1.string"], _to_int, name="to_int"),
    )
    builder.production(
        "item -> NEG NUMBER",
        Rule("$$.amount", ["$2.string"], _neg_int, name="neg_int"),
    )
    return builder.build(start="program")


_TOKENS = [
    TokenSpec("whitespace", r"[ \t\r\n]+", skip=True),
    TokenSpec("NEG", r"neg\b"),
    TokenSpec("NUMBER", r"[0-9]+"),
]


def tokenize_sumlang(source: str):
    return Lexer(_TOKENS).tokenize(source)


def main() -> None:
    language = register_language(
        GrammarLanguage(
            "sumlang",
            sumlang_grammar,
            tokenize=tokenize_sumlang,
            result_attribute="total",
            error_attribute=None,
        ),
        replace=True,  # keep the example re-runnable in one process
    )
    print(f"registered {language.name!r}")

    rng = random.Random(7)
    numbers = [rng.randint(-50, 50) for _ in range(400)]
    source = " ".join(
        f"neg {abs(value)}" if value < 0 else str(value) for value in numbers
    )
    expected = sum(numbers)

    # One-shot on the simulated cluster (deterministic modelled timings).
    result = Compiler("sumlang", machines=4).compile(source)
    print(
        f"simulated: total={result.value} over {result.report.decomposition.region_count} "
        f"regions — {result.summary()}"
    )
    assert result.value == expected, (result.value, expected)

    # The same language on a long-lived threads substrate via the Session front door.
    with Session(backend="threads", machines=4) as session:
        pooled = session.compile("sumlang", source)
        print(f"threads session: total={pooled.value} — {pooled.summary()}")
        assert pooled.value == expected

    print("sumlang compiled identically on both substrates, no repro internals touched")


if __name__ == "__main__":
    main()
