"""Homomorphism search: matching sets of atoms into instances.

A homomorphism from a set of atoms A into a set of atoms B is a
substitution that is the identity on constants and maps every atom of A
into B.  This is the *reference* matcher: query reads and every rule
join (semi-naive rounds, maintenance waves, the chase's trigger
discovery) run compiled (:mod:`repro.core.match`) and are pinned
against it; it still answers ``holds_in``, negation, naive trigger
discovery and the restricted chase's existential head check.

The search is a standard backtracking join.  Atoms are processed in a
greedy most-selective-first order: at each step the pending atom with the
most bound arguments (under the partial assignment built so far) is
matched next, using the instance's position indexes.
"""

from __future__ import annotations

from typing import Container, Dict, Iterator, Optional, Sequence

from .atoms import Atom
from .instance import Instance
from .substitution import Substitution
from .terms import Term, Variable

__all__ = [
    "homomorphisms",
    "find_homomorphism",
    "most_selective",
]


def most_selective(pending: Sequence[Atom], bound: Container[Variable]) -> int:
    """Index of the atom of *pending* to match next, given the *bound*
    variables: the most ground arguments, then the smallest arity, ties
    broken deterministically by string form.

    The choice depends on *which* variables are bound, never on their
    values: the search below asks per node, :mod:`repro.core.match` once
    per compiled query or rule — through this one function, so the two
    orders cannot drift.
    """
    if len(pending) == 1:
        return 0  # nothing to rank: the common case at the leaves
    def rank(atom: Atom) -> tuple:
        ground = sum(
            1 for t in atom.args if not isinstance(t, Variable) or t in bound
        )
        return ground, -len(atom.args), str(atom)

    return max(range(len(pending)), key=lambda i: rank(pending[i]))


def _resolve(atom: Atom, assignment: Dict[Variable, Term]) -> Atom:
    """Apply the partial assignment to *atom* (unbound variables stay)."""
    return Atom(
        atom.predicate,
        tuple(
            assignment.get(t, t) if isinstance(t, Variable) else t
            for t in atom.args
        ),
    )


def homomorphisms(
    atoms: Sequence[Atom],
    instance: Instance,
    seed: Optional[Dict[Variable, Term]] = None,
) -> Iterator[Substitution]:
    """Yield every homomorphism from *atoms* into *instance*.

    *seed* optionally fixes some variables up front (used by the
    restricted chase to check whether a body match extends to the head).
    Each yielded substitution binds exactly the variables of *atoms*
    (plus the seed variables).
    """
    pending = list(atoms)
    assignment: Dict[Variable, Term] = dict(seed or {})

    def backtrack(remaining: list[Atom]) -> Iterator[Substitution]:
        if not remaining:
            yield Substitution(dict(assignment))
            return
        best_index = most_selective(remaining, assignment)
        chosen = remaining[best_index]
        rest = remaining[:best_index] + remaining[best_index + 1:]
        pattern = _resolve(chosen, assignment)
        for stored in instance.matching(pattern):
            added: list[Variable] = []
            consistent = True
            for p_term, s_term in zip(pattern.args, stored.args):
                if isinstance(p_term, Variable):
                    seen = assignment.get(p_term)
                    if seen is None:
                        assignment[p_term] = s_term
                        added.append(p_term)
                    elif seen != s_term:
                        consistent = False
                        break
            if consistent:
                yield from backtrack(rest)
            for var in added:
                del assignment[var]

    return backtrack(pending)


def find_homomorphism(
    atoms: Sequence[Atom],
    instance: Instance,
    seed: Optional[Dict[Variable, Term]] = None,
) -> Optional[Substitution]:
    """The first homomorphism from *atoms* into *instance*, or None."""
    for hom in homomorphisms(atoms, instance, seed):
        return hom
    return None
