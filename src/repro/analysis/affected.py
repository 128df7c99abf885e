"""Affected positions (Section 3).

The set ``aff(Σ)`` of affected positions of ``sch(Σ)`` is the least set
such that

1. if some TGD has an existentially quantified variable at position π,
   then π ∈ aff(Σ), and
2. if some TGD σ has a frontier variable x occurring in ``body(σ)``
   *only* at affected positions, and x occurs in ``head(σ)`` at position
   π, then π ∈ aff(Σ).

Affected positions over-approximate where labeled nulls can appear during
the chase; they are the foundation of the harmless/harmful/dangerous
variable classification and hence of wardedness.
"""

from __future__ import annotations

from typing import Set

from ..core.atoms import Position
from ..core.program import Program
from ..core.terms import Variable

__all__ = ["affected_positions"]


def affected_positions(program: Program) -> set[Position]:
    """Compute ``aff(Σ)`` by fixpoint iteration of the two rules above."""
    affected: Set[Position] = set()

    # Base case: positions of existentially quantified variables.
    for tgd in program:
        existentials = tgd.existential_variables()
        for atom in tgd.head:
            for position, term in atom.positions():
                if isinstance(term, Variable) and term in existentials:
                    affected.add(position)

    # Propagation: frontier variables occurring in the body only at
    # affected positions push their head positions into the set.
    changed = True
    while changed:
        changed = False
        for tgd in program:
            frontier = tgd.frontier()
            for var in frontier:
                body_positions = {
                    position
                    for atom in tgd.body
                    for position, term in atom.positions()
                    if term == var
                }
                if not body_positions or not body_positions <= affected:
                    continue
                for atom in tgd.head:
                    for position, term in atom.positions():
                        if term == var and position not in affected:
                            affected.add(position)
                            changed = True
    return affected
