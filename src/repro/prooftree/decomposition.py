"""Query decomposition (Definition 4.4).

A decomposition of a CQ q(x̄) is a set of CQs {q1(ȳ1), ..., qn(ȳn)} whose
atoms cover atoms(q), such that each ȳi is the restriction of x̄ to the
variables of qi, and any two atoms sharing a *non-output* variable end
up in the same subquery.  Output variables are "frozen" — they stand
for fixed constants — so their occurrences may be separated across
subqueries without losing the connection.

The finest decomposition groups atoms into connected components of the
"shares a non-output variable" relation; every other decomposition is a
union of such components (possibly overlapping).  The searches and the
Datalog rewriting use the finest one.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..core.atoms import Atom, atoms_variables
from ..core.terms import Variable

__all__ = ["connected_components", "restrict_output"]


def restrict_output(
    output: Sequence[Variable], atoms: Sequence[Atom]
) -> tuple[Variable, ...]:
    """The restriction of the output tuple x̄ to the variables of *atoms*."""
    present = atoms_variables(atoms)
    return tuple(v for v in output if v in present)


def connected_components(
    atoms: Sequence[Atom], output_variables: Set[Variable]
) -> List[List[Atom]]:
    """Partition *atoms* into components connected via non-output variables.

    Two atoms are linked if they share a variable outside
    *output_variables*; components are the equivalence classes of the
    transitive closure of that relation.  Ground atoms (and atoms whose
    variables are all outputs) form singleton components.
    """
    atom_list = list(dict.fromkeys(atoms))
    parent = list(range(len(atom_list)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    by_variable: Dict[Variable, int] = {}
    for index, atom in enumerate(atom_list):
        for var in atom.variables():
            if var in output_variables:
                continue
            if var in by_variable:
                union(by_variable[var], index)
            else:
                by_variable[var] = index

    grouped: Dict[int, List[Atom]] = {}
    for index, atom in enumerate(atom_list):
        grouped.setdefault(find(index), []).append(atom)
    return list(grouped.values())
