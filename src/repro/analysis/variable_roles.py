"""Harmless, harmful, and dangerous body variables (Section 3).

Fix a TGD σ of a set Σ and a variable x occurring in ``body(σ)``:

* x is **harmless** if at least one occurrence of x in the body is at a
  position of ``nonaff(Σ)`` — such a variable can only unify with
  constants during the chase;
* x is **harmful** if it is not harmless — every body occurrence is at
  an affected position, so x may unify with a labeled null;
* x is **dangerous** if it is harmful *and* belongs to the frontier —
  the null it may carry would be propagated to the head.

Constants occurring in bodies (permitted in practical programs) need no
classification: they are their own fixed values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from ..core.atoms import Position
from ..core.terms import Variable
from ..core.tgd import TGD

__all__ = ["VariableRoles", "classify_variables"]


@dataclass(frozen=True)
class VariableRoles:
    """The role partition of one TGD's body variables."""

    harmless: frozenset[Variable]
    harmful: frozenset[Variable]
    dangerous: frozenset[Variable]

    def role_of(self, variable: Variable) -> str:
        """'harmless', 'harmful', or 'dangerous' (dangerous ⊆ harmful)."""
        if variable in self.dangerous:
            return "dangerous"
        if variable in self.harmful:
            return "harmful"
        if variable in self.harmless:
            return "harmless"
        raise KeyError(f"{variable} is not a body variable of this TGD")


def classify_variables(
    tgd: TGD,
    affected: Set[Position],
) -> VariableRoles:
    """Classify the body variables of *tgd* against a precomputed aff(Σ).

    ``dangerous ⊆ harmful`` always holds; ``harmless`` and ``harmful``
    partition the body variables.
    """
    harmless: set[Variable] = set()
    harmful: set[Variable] = set()
    dangerous: set[Variable] = set()
    frontier = tgd.frontier()

    for var in tgd.body_variables():
        occurrences = {
            position
            for atom in tgd.body
            for position, term in atom.positions()
            if term == var
        }
        if any(pos not in affected for pos in occurrences):
            harmless.add(var)
        else:
            harmful.add(var)
            if var in frontier:
                dangerous.add(var)

    return VariableRoles(
        frozenset(harmless), frozenset(harmful), frozenset(dangerous)
    )
