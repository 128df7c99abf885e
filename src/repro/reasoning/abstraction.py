"""The star abstraction: a polynomial over-approximation of the chase.

Replacing every existential variable by the reserved constant ``⋆``
turns a set of TGDs into a *full* (Datalog) program whose least fixpoint
over D is a homomorphic image of every chase of D: each chase atom maps
to an abstract atom with its nulls collapsed to ⋆.  The abstract
instance is therefore a sound satisfiability oracle for the
configuration searches of Section 4.3:

* if a configuration p is ever accepted, the Boolean CQ ∃p is certain,
  so every atom of p has a homomorphic match in the chase;
* every chase match of an atom α induces an abstract match where α's
  constants appear *as constants* (nulls abstract to ⋆, constants to
  themselves), so "no abstract match" proves "no chase match";
* matching treats ⋆ as a term that only variables can match — a null
  never equals a constant of the query.

Pruning configurations with an unmatchable atom collapses the negative
search space from "all syntactically reachable CQs" to "CQs the
NLogSpace machine could actually discharge", which is what makes
negative decisions fast (see E2/E4 benchmarks).
"""

from __future__ import annotations


from ..core.atoms import Atom
from ..core.instance import Database, Instance
from ..core.program import Program
from ..core.substitution import Substitution
from ..core.terms import Constant, Term
from ..core.tgd import TGD
from ..datalog.seminaive import seminaive

__all__ = ["STAR", "star_abstraction", "atom_satisfiable"]

STAR = Constant("__star__")


def _abstract_rule(tgd: TGD) -> TGD:
    """Replace the existential variables of a single-head TGD by ⋆."""
    mapping: dict[Term, Term] = {
        var: STAR for var in tgd.existential_variables()
    }
    if not mapping:
        return tgd
    subst = Substitution(mapping)
    return TGD(tgd.body, (subst.apply_atom(tgd.head[0]),), label=tgd.label)


def star_abstraction(database: Database, program: Program) -> Instance:
    """The least fixpoint of the ⋆-abstracted program over *database*.

    *program* must be single-head; the result is an over-approximation
    of every chase of the database: ``abstract ⊇ h(chase)`` where h
    collapses nulls to ⋆.
    """
    if not program.is_single_head():
        raise ValueError("star_abstraction needs a single-head program")
    abstracted = Program([_abstract_rule(t) for t in program])
    # A plain Datalog fixpoint: run it on kernels, then decode into the
    # Instance the searches probe once per generated configuration.
    return Instance(seminaive(database, abstracted, store="columnar").instance)


def atom_satisfiable(atom: Atom, abstract: Instance) -> bool:
    """Could *atom* (constants + variables) have a chase match?

    Checks for an abstract atom agreeing with the pattern: constants
    must match exactly (⋆ does not match a constant — a labeled null is
    never equal to a constant), variables match anything, with repeated
    variables kept consistent.  ``Instance.matching`` implements exactly
    this since ⋆ is an ordinary constant of the abstract instance.
    """
    return next(iter(abstract.matching(atom)), None) is not None
