"""Query specialization (Definition 4.5).

A specialization of a CQ q(x̄) with atoms α1, ..., αn is a CQ

    Q(x̄, ȳ) ← ρ_z̄(α1, ..., αn)

where ȳ and z̄ are disjoint tuples of non-output variables of q and ρ_z̄
substitutes each variable of z̄ by a variable of x̄ ∪ ȳ.  In words: some
non-output variables are *promoted* to output variables (keeping their
names), and some others are *collapsed* onto (old or newly promoted)
output variables.

Specialization repairs the two incompletenesses the paper identifies:
(i) two output variables may denote the same constant, and (ii) a
non-output variable may denote a fixed constant — promoting it freezes
its name so a decomposition may split its occurrences.

In the concrete Section 4.3 algorithm, output variables are already
instantiated by constants, so specialization degenerates to substituting
non-output variables with constants of dom(D); that variant lives in
:mod:`repro.reasoning`.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from ..core.query import ConjunctiveQuery
from ..core.substitution import Substitution
from ..core.terms import Variable

__all__ = ["specialize", "enumerate_specializations"]


def specialize(
    query: ConjunctiveQuery,
    promote: Sequence[Variable] = (),
    collapse: Optional[Mapping[Variable, Variable]] = None,
) -> ConjunctiveQuery:
    """Build the specialization Q(x̄, ȳ) ← ρ_z̄(atoms(q)).

    *promote* is ȳ (non-output variables that become outputs, appended
    in the given order); *collapse* is ρ_z̄ (each key a non-output
    variable not in ȳ, each value a variable of x̄ ∪ ȳ).
    """
    collapse = dict(collapse or {})
    outputs = query.output_variables()
    non_outputs = query.existential_variables()

    promote_set = set(promote)
    if len(promote) != len(promote_set):
        raise ValueError("promoted variables must be distinct")
    if not promote_set <= non_outputs:
        raise ValueError("promoted variables must be non-output variables of q")
    if promote_set & set(collapse):
        raise ValueError("ȳ and z̄ must be disjoint")
    for source, target in collapse.items():
        if source not in non_outputs:
            raise ValueError(f"{source} is not a non-output variable of q")
        if target not in outputs and target not in promote_set:
            raise ValueError(
                f"collapse target {target} is not an output or promoted variable"
            )
    rho = Substitution({k: v for k, v in collapse.items()})
    return ConjunctiveQuery(
        tuple(query.output) + tuple(promote),
        rho.apply_atoms(query.atoms),
        head_predicate=query.head_predicate,
    )


def enumerate_specializations(
    query: ConjunctiveQuery,
) -> Iterator[ConjunctiveQuery]:
    """All *single-step* specializations of *query*.

    Arbitrary specializations compose from single steps, each of which
    either promotes one non-output variable or collapses one non-output
    variable onto an existing output.  Enumerating single steps keeps
    the branching factor linear while preserving reachability of every
    specialization, which is what the proof-search algorithms need.
    """
    outputs = query.output
    for var in sorted(query.existential_variables(), key=lambda v: v.name):
        yield specialize(query, promote=(var,))
        for target in dict.fromkeys(outputs):
            yield specialize(query, collapse={var: target})
