"""The distributed (parallel) evaluator layer.

This package ties together the partitioning layer, the sequential evaluator schedulers
and the simulated cluster into the parallel compiler of the paper:

* a sequential **parser/coordinator** process that decomposes the parse tree and ships
  packed subtrees to the evaluator machines;
* one **evaluator process** per region, running either the purely dynamic or the
  combined scheduler, exchanging region-boundary attribute values as messages;
* a **string librarian** process that receives each evaluator's code fragment once and
  assembles the final code from descriptors (the paper's result-propagation
  optimisation);
* **unique-identifier base values** handed to each evaluator so label generation never
  serialises the evaluation;
* the :class:`~repro.distributed.compiler.ParallelCompiler` driver and its
  :class:`~repro.distributed.compiler.CompilationReport`.
"""

from repro.distributed.protocol import (
    SubtreeMessage,
    AttributeMessage,
    ResultMessage,
    CodeFragmentMessage,
    AssembledCodeMessage,
)
from repro.distributed.unique_ids import UniqueIdGenerator, unique_id_context, next_unique_id
from repro.distributed.librarian import StringLibrarian
from repro.distributed.compiler import (
    ParallelCompiler,
    CompilerConfiguration,
    CompilationReport,
)

__all__ = [
    "SubtreeMessage",
    "AttributeMessage",
    "ResultMessage",
    "CodeFragmentMessage",
    "AssembledCodeMessage",
    "UniqueIdGenerator",
    "unique_id_context",
    "next_unique_id",
    "StringLibrarian",
    "ParallelCompiler",
    "CompilerConfiguration",
    "CompilationReport",
]
