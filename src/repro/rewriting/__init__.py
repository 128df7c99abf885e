"""Query rewriting: the magic-set demand transformation.

:func:`magic_rewrite` turns a
(full program, bound query) pair into a demand-restricted Datalog
program plus seed facts, so the semi-naive engine derives only facts
relevant to the query's constants — the classical optimization the
Vadalog system papers describe for their streaming pipeline.  The
planner applies it as the ``rewrite`` dimension of a
:class:`~repro.api.planner.QueryPlan`.
"""

from .magic import (
    AdornedProgram,
    MagicNotApplicable,
    MagicRewriting,
    adorn_program,
    binding_pattern,
    magic_rewrite,
    query_constants,
)

__all__ = [
    "AdornedProgram",
    "MagicNotApplicable",
    "MagicRewriting",
    "adorn_program",
    "binding_pattern",
    "magic_rewrite",
    "query_constants",
]
