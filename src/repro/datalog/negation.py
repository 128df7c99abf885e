"""Stratified negation — the paper's "very mild and easy to handle
negation" (Section 1.1, key property (2)).

Warded Datalog∃ plus a mild negation captures SPARQL under the OWL 2 QL
direct-semantics entailment regime.  The mild negation in question is
*stratified* negation: a rule may negate a predicate only if that
predicate's value is fully settled before the rule's stratum runs —
negation never wraps around a recursive cycle.

This module is only the evaluator, and it adds no machinery of its own.
Programs come from the one parser
(:func:`repro.lang.parser.parse_program` puts ``not p(X, Y)`` literals
on :attr:`~repro.core.tgd.TGD.negated`); what makes them evaluable is
what the linter checks — every error-severity finding, the same gate
:meth:`Session.plan <repro.api.session.Session.plan>` applies: safety
(E101 — every variable of a negated literal, and of the head of a rule
with negation, occurs in a positive body atom), consistent arities
(E102) and stratifiability (E103 — no negated literal inside its own
strongly connected component of the predicate graph, whose edges
include the negative ones).

* :func:`negation_stratification` — :func:`~repro.datalog.strata.compute_strata`
  of the gated program, dependencies first;
* :func:`stratified_fixpoint` — per stratum, the semi-naive rounds of
  :func:`~repro.datalog.seminaive.delta_rounds`, seeded with the whole
  instance as the first delta.  Within a stratum the negated predicates
  are complete (they belong to strictly lower strata), so each negated
  literal is a static filter on the compiled join
  (:func:`~repro.core.match.rule_heads`) and semi-naive evaluation stays
  sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.instance import Database, Instance
from ..core.match import AtomSet
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..core.tgd import TGD
from ..lint import LintError, run_lint
from .seminaive import _check_datalog, delta_rounds
from .strata import compute_strata

__all__ = [
    "negation_stratification",
    "stratified_fixpoint",
    "stratified_answers",
]


def _gated_strata(
    program: Program, database: Optional[Database] = None
) -> Tuple[Tuple[TGD, ...], ...]:
    _check_datalog(program)
    errors = run_lint(program, facts=database).errors()
    if errors:
        raise LintError(errors, program.name)
    return compute_strata(program).layers


def negation_stratification(program: Program) -> List[Tuple[TGD, ...]]:
    """Partition the rules into strata, dependencies first.

    Rules must be full and single-head (``ValueError`` otherwise); a
    program with error-severity lint findings — unsafe negation (E101),
    arity conflicts (E102), negation through recursion (E103, the
    classic win/move pattern) — raises :class:`~repro.lint.LintError`
    carrying them.  A rule evaluates in the stratum of its head's
    component.
    """
    return list(_gated_strata(program))


# -- evaluation --------------------------------------------------------------------


@dataclass
class StratifiedFixpoint:
    """The perfect model of a stratified program over a database."""

    instance: Instance
    strata: int
    derived: int
    rounds: int  # semi-naive rounds, over all strata

    def evaluate(self, query: ConjunctiveQuery) -> set[tuple[Constant, ...]]:
        return query.evaluate(self.instance)


def stratified_fixpoint(
    database: Database, program: Program
) -> StratifiedFixpoint:
    """Evaluate stratum by stratum to the perfect model.

    The gate of :func:`negation_stratification` also sees *database*,
    so a fact whose arity conflicts with a rule's use of its predicate
    is an E102 error here too.
    """
    strata = _gated_strata(program, database)
    instance = database.to_instance()
    derived = rounds = 0
    for layer in strata:
        for event in delta_rounds(instance, AtomSet(instance), layer):
            rounds += 1
            derived += len(event.staged)
    return StratifiedFixpoint(
        instance=instance,
        strata=len(strata),
        derived=derived,
        rounds=rounds,
    )


def stratified_answers(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
) -> set[tuple[Constant, ...]]:
    """Evaluate a CQ over the perfect model of a stratified program."""
    return stratified_fixpoint(database, program).evaluate(query)
