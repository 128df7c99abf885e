"""Checkers for the proof-tree definitions of Section 4, kept as oracles.

Production code builds proof trees out of the steps of
``repro.prooftree`` and never checks one it was handed, so the
validators live here, beside the tests that pin those steps:

* :func:`is_decomposition` — Definition 4.4, the oracle for
  ``connected_components`` / ``restrict_output``, which
  :func:`finest_decomposition` assembles into subqueries as the searches
  and the Datalog rewriting do;
* :func:`is_specialization` — Definition 4.5, the oracle for
  ``specialize`` and ``enumerate_specializations``;
* :func:`mgu` — the simultaneous most general unifier of atom pairs,
  computed the way chunk resolution computes it (one production
  ``UnionFind`` over every argument pair);
* :func:`verify_trace` — Theorem 4.8's "acceptance is a bounded-width
  linear proof tree", checked on the accepting run
  ``decide_pwl_ward(..., trace=True)`` returns.
"""

from typing import Dict, Sequence, Set

from repro.core.atoms import Atom
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable
from repro.core.unification import UnionFind
from repro.prooftree.decomposition import connected_components, restrict_output
from repro.reasoning.state import State, SuccessorGenerator


def finest_decomposition(query: ConjunctiveQuery) -> list:
    """One subquery per connected component of *query*, outputs
    restricted in order."""
    return [
        ConjunctiveQuery(
            restrict_output(query.output, component),
            tuple(component),
            head_predicate=query.head_predicate,
        )
        for component in connected_components(query.atoms, query.output_variables())
    ]


def is_decomposition(
    query: ConjunctiveQuery, children: Sequence[ConjunctiveQuery]
) -> bool:
    """Check Definition 4.4: do *children* form a decomposition of *query*?"""
    if not children:
        return False
    covered: Set[Atom] = set()
    for child in children:
        covered.update(child.atoms)
    if covered != set(query.atoms):
        return False
    outputs = query.output_variables()
    for child in children:
        # (1) the output tuple is the restriction of x̄ to the child's vars
        if child.output != restrict_output(query.output, child.atoms):
            return False
        child_atoms = set(child.atoms)
        # (2) atoms sharing a non-output variable travel together
        for alpha in child.atoms:
            for beta in query.atoms:
                shared = alpha.variables() & beta.variables()
                if shared - outputs and beta not in child_atoms:
                    return False
    return True


def is_specialization(parent: ConjunctiveQuery, child: ConjunctiveQuery) -> bool:
    """Check whether *child* is a specialization of *parent* (Def. 4.5).

    The check reconstructs ȳ from the output tuples and then verifies
    that some substitution of the remaining non-output variables of the
    parent onto x̄ ∪ ȳ maps the parent's atoms onto the child's atoms.
    The reconstruction is syntactic — variable names are preserved by
    specialization, so no renaming search is needed.
    """
    k = len(parent.output)
    if tuple(child.output[:k]) != tuple(parent.output):
        return False
    promoted = tuple(child.output[k:])
    non_outputs = parent.existential_variables()
    if not set(promoted) <= non_outputs:
        return False

    allowed_targets = set(parent.output) | set(promoted)
    candidates = non_outputs - set(promoted)
    # ρ only moves variables of z̄ and fixes everything else, so each
    # parent atom must map to a child atom under one assignment.
    assignment: Dict[Variable, Variable] = {}

    def image(atom):
        return atom.predicate, tuple(
            assignment.get(t, t) if isinstance(t, Variable) else t
            for t in atom.args
        )

    child_atoms = {(a.predicate, a.args) for a in child.atoms}

    def backtrack(index: int) -> bool:
        if index == len(parent.atoms):
            return {image(a) for a in parent.atoms} == child_atoms
        free = [
            t
            for t in parent.atoms[index].args
            if isinstance(t, Variable) and t in candidates and t not in assignment
        ]
        if not free:
            return backtrack(index + 1)
        # try identity first, then each allowed target
        var = free[0]
        for target in [var, *sorted(allowed_targets, key=lambda v: v.name)]:
            assignment[var] = target
            if backtrack(index):
                return True
            del assignment[var]
        return False

    return backtrack(0)


def mgu(pairs):
    """The MGU of every ``(left, right)`` atom pair at once, or None."""
    uf = UnionFind()
    for left, right in pairs:
        if left.predicate != right.predicate or left.arity != right.arity:
            return None
        for s, t in zip(left.args, right.args):
            if not uf.union(s, t):
                return None
    return uf.to_substitution()


class InvalidTrace(ValueError):
    """A trace that is not an accepting run of the linear search."""


def verify_trace(
    trace, query, answer, database, program, *, width_bound, specialization
) -> bool:
    """Check that *trace* is an accepting run for ``c̄ ∈ cert(q, D, Σ)``.

    Rebuilt from (q, c̄, D) alone: the first configuration is
    ``State.make(q(c̄), D)``; every next one is a resolution or
    specialization successor of its predecessor under a fresh,
    oracle-free :class:`SuccessorGenerator` running *specialization*
    (the mode the search ran with); every configuration is within
    *width_bound*; the last one is the empty CQ.  Raises
    :class:`InvalidTrace` naming the first violation.
    """
    if not trace:
        raise InvalidTrace("the trace has no configurations")
    if trace[0] != State.make(query.instantiate(tuple(answer)), database):
        raise InvalidTrace("initial configuration is not the instantiated query")
    for index, state in enumerate(trace):
        if state.width() > width_bound:
            raise InvalidTrace(
                f"configuration {index} exceeds the width bound "
                f"({state.width()} > {width_bound})"
            )
    generator = SuccessorGenerator(
        database, program.single_head(), width_bound,
        specialization=specialization, use_oracle=False,
    )
    for index, (state, successor) in enumerate(zip(trace, trace[1:])):
        if successor not in {*generator.resolutions(state), *generator.specializations(state)}:
            raise InvalidTrace(f"transition {index} is not a successor: {state} → {successor}")
    if not trace[-1].is_accepting():
        raise InvalidTrace("final configuration is not the empty CQ")
    return True
