"""Property tests for the star-abstraction oracle invariant.

The soundness of the dead-state pruning (and of the candidate tuples of
the answer facade) rests on one invariant: the abstraction
over-approximates every chase — collapsing the nulls of any chase atom
to ⋆ must yield an atom of the abstract instance.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.chase import chase
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.terms import Constant, Null
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_program
from repro.reasoning.abstraction import (
    STAR,
    _abstract_rule,
    star_abstraction,
)
from repro.reasoning.answers import candidate_tuples

from .strategies import databases, programs, queries

NODES = 5

edge_lists = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
        lambda p: p[0] != p[1]
    ),
    min_size=1,
    max_size=10,
    unique=True,
)

seeds = st.lists(st.integers(0, NODES - 1), min_size=1, max_size=3,
                 unique=True)


def existential_program():
    program, _ = parse_program("""
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
        mark(X,W) :- t(X,Y).
        seen(X) :- mark(X,W).
    """)
    return program


def build_database(pairs, marked) -> Database:
    database = Database()
    for a, b in pairs:
        database.add(Atom("e", (Constant(f"n{a}"), Constant(f"n{b}"))))
    for node in marked:
        database.add(Atom("p", (Constant(f"n{node}"),)))
    return database


def collapse(atom: Atom) -> Atom:
    return Atom(
        atom.predicate,
        tuple(STAR if isinstance(t, Null) else t for t in atom.args),
    )


@given(edge_lists, seeds)
@settings(max_examples=40, deadline=None)
def test_abstraction_over_approximates_chase(pairs, marked):
    program = existential_program()
    database = build_database(pairs, marked)
    abstract = star_abstraction(database, program.single_head())
    result = chase(database, program, max_atoms=4000)
    assert result.saturated
    for atom in result.instance:
        assert collapse(atom) in abstract, atom


@given(edge_lists, seeds)
@settings(max_examples=25, deadline=None)
def test_abstraction_is_full_datalog_fixpoint(pairs, marked):
    # The abstraction contains no nulls — only constants (incl. ⋆).
    program = existential_program()
    database = build_database(pairs, marked)
    abstract = star_abstraction(database, program.single_head())
    for atom in abstract:
        assert all(isinstance(t, Constant) for t in atom.args)


def interpreted_abstraction(database, program):
    """The abstraction as the per-tuple interpreter computes it — the
    reference for the kernel path ``star_abstraction`` runs on."""
    abstracted = Program([_abstract_rule(t) for t in program])
    return seminaive(database, abstracted, store="instance").instance


@given(programs(), databases())
@settings(max_examples=120, deadline=None)
def test_kernel_path_abstraction_equals_the_interpreter(program, database):
    normalized = program.single_head()
    abstract = star_abstraction(database, normalized)
    assert abstract.backend_name == "sharded" and abstract.num_shards == 1
    assert abstract.atoms() == interpreted_abstraction(database, normalized).atoms()


def test_star_in_the_head_and_repeated_head_variables():
    # ⋆ twice in one head, ⋆ joined on in a body, a head repeating a
    # frontier variable, and a multi-head split through an Aux atom.
    program, database = parse_program("""
        p(a). p(b). e(a,b).
        r(X,W,W) :- p(X).
        s(Y,Y) :- r(X,Y,Z).
        t(X,X) :- e(X,Y).
        u(X,V), m(V,V) :- t(X,X).
    """)
    normalized = program.single_head()
    abstract = star_abstraction(database, normalized)
    assert abstract.atoms() == interpreted_abstraction(database, normalized).atoms()
    assert Atom("r", (Constant("a"), STAR, STAR)) in abstract
    assert Atom("s", (STAR, STAR)) in abstract
    assert Atom("t", (Constant("a"), Constant("a"))) in abstract
    assert Atom("m", (STAR, STAR)) in abstract


def pool_product(query, abstraction):
    """The superset reference: per output variable, the non-⋆ constants
    the abstraction holds at *every* position the variable occupies,
    then the product of those pools (what ``candidate_tuples`` was
    before it became a read of q)."""
    distinct = list(dict.fromkeys(query.output))
    pools = []
    for variable in distinct:
        pool = None
        for atom in query.atoms:
            for index, term in enumerate(atom.args):
                if term != variable:
                    continue
                seen = {
                    stored.args[index]
                    for stored in abstraction.by_predicate(atom.predicate)
                    if stored.args[index] != STAR
                }
                pool = seen if pool is None else pool & seen
        pools.append(sorted(pool, key=str))
    return {
        tuple(dict(zip(distinct, combo))[v] for v in query.output)
        for combo in itertools.product(*pools)
    }


@given(programs(), databases(), queries())
@settings(max_examples=200, deadline=None)
def test_candidates_sit_between_the_certain_answers_and_the_product(
    program, database, query
):
    """``cert(q, D, Σ) ⊆ candidate_tuples(q, A) ⊆ product(q, A)``, ⋆ in
    no candidate.  The chase is the oracle: q over any prefix of it is
    certain, and over a saturated one it *is* cert(q, D, Σ) — random
    rule sets need not terminate, so the prefix is what is always there.
    Boolean queries, repeated output variables and query constants all
    come out of ``queries()``."""
    abstraction = star_abstraction(database, program.single_head())
    candidates = candidate_tuples(query, abstraction)
    result = chase(database, program, max_atoms=400)
    assert query.evaluate(result.instance) <= candidates
    assert candidates <= pool_product(query, abstraction)
    assert all(STAR not in row for row in candidates)
