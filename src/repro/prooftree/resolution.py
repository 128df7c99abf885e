"""Chunk-based resolution: σ-resolvents and IDO resolvents (Section 4.1).

Given a CQ q(x̄) and a TGD σ (sharing no variables with q), a
*σ-resolvent* of q is a CQ ``q'(γ(x̄))`` with
``body(q') = γ((atoms(q) \\ S1) ∪ body(σ))`` for an MGCU (S1, S2, γ) of
q with σ (Definition 4.3).  A resolvent is **IDO** if the underlying
MGCU's substitution is the identity on the output variables of q — the
convention that output variables correspond to fixed constant values and
keep their names through resolution.

For IDO resolvents the class representatives of the unifier are
re-targeted so that a class containing an output variable maps onto that
output variable; a class containing two distinct output variables (or an
output variable and a constant) admits no IDO unifier and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Set

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.substitution import Substitution
from ..core.terms import Term, Variable
from ..core.tgd import TGD
from .chunk import ChunkUnifier, chunk_unifiers

__all__ = [
    "Resolvent",
    "ido_resolvents",
    "retarget_for_outputs",
    "rename_apart",
]


@dataclass(frozen=True)
class Resolvent:
    """A σ-resolvent together with the unifier that produced it."""

    query: ConjunctiveQuery
    unifier: ChunkUnifier
    tgd: TGD


def _classes_of(substitution: Substitution) -> Dict[Term, Set[Term]]:
    """Reconstruct the unification classes from an idempotent MGU."""
    classes: Dict[Term, Set[Term]] = {}
    for key in substitution:
        target = substitution[key]
        classes.setdefault(target, {target}).add(key)
    return classes


def retarget_for_outputs(
    substitution: Substitution, outputs: Set[Variable]
) -> Optional[Substitution]:
    """Rewrite class representatives so the MGU fixes output variables.

    Returns None when impossible: a class containing two distinct output
    variables, or an output variable together with a constant, cannot be
    fixed by any choice of representatives.
    """
    mapping: Dict[Term, Term] = {}
    for target, members in _classes_of(substitution).items():
        out_members = [m for m in members if m in outputs]
        rigid = target if not isinstance(target, Variable) else None
        if len(set(out_members)) > 1:
            return None
        if out_members and rigid is not None:
            return None
        representative: Term = out_members[0] if out_members else target
        for member in members:
            if member != representative and isinstance(member, Variable):
                mapping[member] = representative
    return Substitution(mapping)


def _resolvent_body(
    query_atoms: Sequence[Atom],
    unifier: ChunkUnifier,
    tgd: TGD,
    gamma: Substitution,
) -> tuple[Atom, ...]:
    """``γ((atoms(q) \\ S1) ∪ body(σ))`` with set semantics."""
    s1 = set(unifier.s1)
    kept = [a for a in query_atoms if a not in s1]
    raw = gamma.apply_atoms(tuple(kept) + tgd.body)
    return tuple(dict.fromkeys(raw))


def rename_apart(tgd: TGD, query: ConjunctiveQuery, base: str = "r") -> TGD:
    """Rename the TGD's variables away from every variable of *query*.

    Resolution requires q and σ to share no variables; a fixed suffix is
    not enough because chained resolutions re-introduce suffixed names.
    """
    query_names = {v.name for v in query.variables()}
    index = 0
    while True:
        candidate = tgd.rename(f"{base}{index}")
        if not ({v.name for v in candidate.variables()} & query_names):
            return candidate
        index += 1


def ido_resolvents(
    query: ConjunctiveQuery,
    tgd: TGD,
) -> Iterator[Resolvent]:
    """Enumerate the IDO σ-resolvents of *query* (Definition 4.6(2)).

    The unifier is re-targeted to be the identity on output variables;
    unifiers for which that is impossible are skipped.
    """
    renamed = rename_apart(tgd, query)
    outputs = query.output_variables()
    for unifier in chunk_unifiers(query.atoms, outputs, renamed):
        gamma = retarget_for_outputs(unifier.gamma, outputs)
        if gamma is None:
            continue
        body = _resolvent_body(query.atoms, unifier, renamed, gamma)
        if not body:
            continue
        yield Resolvent(
            query=ConjunctiveQuery(
                query.output, body, head_predicate=query.head_predicate
            ),
            unifier=ChunkUnifier(unifier.s1, unifier.s2, gamma),
            tgd=renamed,
        )
