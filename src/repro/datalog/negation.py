"""Stratified negation — the paper's "very mild and easy to handle
negation" (Section 1.1, key property (2)).

Warded Datalog∃ plus a mild negation captures SPARQL under the OWL 2 QL
direct-semantics entailment regime.  The mild negation in question is
*stratified* negation: a rule may negate a predicate only if that
predicate's value is fully settled before the rule's stratum runs —
negation never wraps around a recursive cycle.

This module is only the evaluator.  Programs come from the one parser
(:func:`repro.lang.parser.parse_program` puts ``not p(X, Y)`` literals
on :attr:`~repro.core.tgd.TGD.negated`), and what makes them evaluable
is what the linter already checks: safety (E101 — every variable of a
negated literal, and of the head of a rule with negation, occurs in a
positive body atom) and stratifiability (E103 — no negated literal
inside its own strongly connected component of the dependency graph,
:attr:`~repro.lint.context.LintContext.dependency_sccs`).

* :func:`negation_stratification` — the rules grouped by the SCC of
  their head predicate, dependencies first;
* :func:`stratified_fixpoint` — evaluates stratum by stratum; within a
  stratum the negated predicates are complete (they belong to strictly
  lower strata), so each negative literal is a static filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.atoms import Atom
from ..core.homomorphism import homomorphisms
from ..core.instance import Database, Instance
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..core.tgd import TGD
from ..lint import LintContext, LintError
from ..lint.passes import check_negation_in_recursion, check_unsafe_rules
from .seminaive import _check_datalog

__all__ = [
    "negation_stratification",
    "stratified_fixpoint",
    "stratified_answers",
]


def negation_stratification(program: Program) -> List[Tuple[TGD, ...]]:
    """Partition the rules into strata, dependencies first.

    Rules must be full and single-head (``ValueError`` otherwise);
    unsafe negation (E101) and negation through recursion (E103 — the
    classic win/move pattern) raise :class:`~repro.lint.LintError`
    carrying the findings.  A rule evaluates in the stratum of its
    head's component.
    """
    _check_datalog(program)
    ctx = LintContext(program)
    errors = [*check_unsafe_rules(ctx), *check_negation_in_recursion(ctx)]
    if errors:
        raise LintError(errors, program.name)
    scc_of = ctx.dependency_sccs
    layered: Dict[int, List[TGD]] = {}
    for tgd in program:
        layered.setdefault(scc_of[tgd.head[0].predicate], []).append(tgd)
    # SCC ids count sinks first, so dependencies carry the higher ids.
    return [tuple(layered[key]) for key in sorted(layered, reverse=True)]


# -- evaluation --------------------------------------------------------------------


@dataclass
class StratifiedFixpoint:
    """The perfect model of a stratified program over a database."""

    instance: Instance
    strata: int
    derived: int
    rounds: int

    def evaluate(self, query: ConjunctiveQuery) -> set[tuple[Constant, ...]]:
        return query.evaluate(self.instance)


def _rule_matches(rule: TGD, instance: Instance):
    """All substitutions matching the positive body and failing every
    negated literal."""
    for hom in homomorphisms(list(rule.body), instance):
        blocked = False
        for negated in rule.negated:
            image = hom.apply_atom(negated)
            if next(iter(instance.matching(image)), None) is not None:
                blocked = True
                break
        if not blocked:
            yield hom


def stratified_fixpoint(
    database: Database, program: Program
) -> StratifiedFixpoint:
    """Evaluate stratum by stratum to the perfect model.

    Within a stratum the rules iterate naively to fixpoint (the strata
    are small by construction; the package's semi-naive engine handles
    the negation-free fast path), while every negated literal refers
    only to strata that are already complete.
    """
    strata = negation_stratification(program)
    instance = database.to_instance()
    derived = 0
    rounds = 0
    for layer in strata:
        changed = True
        while changed:
            rounds += 1
            changed = False
            fresh: List[Atom] = []
            for rule in layer:
                for hom in _rule_matches(rule, instance):
                    fact = hom.apply_atom(rule.head[0])
                    if fact not in instance:
                        fresh.append(fact)
            for fact in fresh:
                if fact not in instance:
                    instance.add(fact)
                    derived += 1
                    changed = True
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
