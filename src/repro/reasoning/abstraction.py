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

The abstraction is held as the columnar fixpoint itself — interned id
rows, a third of the bytes an :class:`~repro.core.instance.Instance`
with its per-(position, term) indexes takes — and the oracle reads it in
id space: ⋆ is one id, and a pattern constant the term table has never
seen matches nothing.

**Exact predicates.**  Call a derived predicate *exact* when no rule of
its dependency cone (the rules heading it or, transitively, a predicate
its rules read) has an existential variable; :func:`exact_predicates`
finds them.  On such a predicate the ⋆-abstraction is exact: the
⋆-program restricted to the cone *is* Σ restricted to the cone, so the
abstraction's relation equals the least model of the cone over D — and
so does every chase's set of atoms of that predicate, since only cone
rules derive them, from cone atoms, none of which ever holds a null (or
⋆).  A chase that reads those rows where the abstraction holds them
and drops the rules that head only exact predicates therefore adds
nothing that is not certain and loses nothing the chase would have
derived; the bounded probe of
:func:`~repro.reasoning.answers.probe_instance` is built that way, and
a query over exact and extensional predicates only is the candidate
set itself.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from ..analysis.predicate_graph import PredicateGraph
from ..core.atoms import Atom
from ..core.instance import Database
from ..core.program import Program
from ..core.store import FactStore
from ..core.substitution import Substitution
from ..core.terms import Constant, Term, Variable
from ..core.tgd import TGD
from ..datalog.seminaive import seminaive

__all__ = ["STAR", "star_abstraction", "exact_predicates", "atom_satisfiable"]

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


def star_abstraction(database: Database, program: Program) -> FactStore:
    """The least fixpoint of the ⋆-abstracted program over *database*,
    as the ``"columnar"`` store its kernels computed it in.

    *program* must be single-head; the result is an over-approximation
    of every chase of the database: ``abstract ⊇ h(chase)`` where h
    collapses nulls to ⋆.
    """
    if not program.is_single_head():
        raise ValueError("star_abstraction needs a single-head program")
    abstracted = Program([_abstract_rule(t) for t in program])
    return seminaive(database, abstracted, store="columnar").instance


def exact_predicates(program: Program) -> FrozenSet[str]:
    """The derived predicates of *program*'s single-head normal form
    whose dependency cone holds no rule with an existential variable —
    those on which :func:`star_abstraction` holds exactly the certain
    atoms (see the module docstring).

    Components of the predicate graph are settled sources first: one is
    exact iff every rule heading it is existential-free and every
    predicate its rules read from outside it is exact or extensional.
    The result may name the auxiliary predicates normalization adds.
    """
    program = program.single_head()
    rules: Dict[str, List[TGD]] = {}
    for tgd in program:
        rules.setdefault(tgd.head[0].predicate, []).append(tgd)
    exact: Set[str] = set()
    for component in PredicateGraph(program).condensation_order():
        if all(
            tgd.is_full()
            and all(
                read in component or read in exact or read not in rules
                for read in tgd.body_predicates() | tgd.negated_predicates()
            )
            for predicate in component
            for tgd in rules.get(predicate, ())
        ):
            exact.update(component.intersection(rules))
    return frozenset(exact)


def atom_satisfiable(atom: Atom, abstract: FactStore) -> bool:
    """Could *atom* (constants + variables) have a chase match?

    Checks, over the id rows of the columnar *abstract*, for an abstract
    atom agreeing with the pattern: constants must match exactly (⋆ is
    one id, which no other constant's id equals — a labeled null is
    never equal to a constant), variables match anything, ⋆ included,
    with repeated variables kept consistent.  A constant the term table
    has never seen occurs in no row, so the atom is dead at once.
    """
    table = abstract.table
    bound: Dict[int, int] = {}
    first: Dict[Variable, int] = {}
    agree: List[Tuple[int, int]] = []
    for position, term in enumerate(atom.args):
        if isinstance(term, Variable):
            earlier = first.setdefault(term, position)
            if earlier != position:
                agree.append((position, earlier))
            continue
        tid = table.id_of(term)
        if tid is None:
            return False
        bound[position] = tid
    return any(
        relation.has_match(bound, agree)
        for _, relation in abstract.parts(atom.predicate, len(atom.args))
    )
