"""Property tests: compiled kernels ≡ the per-tuple interpreter.

Random stratified (positive, full, single-head) Datalog programs over
random databases, executed through every dispatching surface:

* plain saturation — ``seminaive`` on the columnar and sharded stores
  (which run kernels) versus the plain instance store (which runs the
  interpreter), comparing the fixpoint atom set, the answer digest,
  and the work counters (rounds / derived / considered) exactly;
* magic-rewritten — a bound query forced through ``rewrite="magic"``
  on all three stores, digests compared;
* post-``Session.apply`` — the incremental-maintenance path: saturate,
  apply a random insert batch, re-query; the kernel-maintained session
  must answer digest-equal to a from-scratch interpreter session;
* derived dispatch — over every storage backend, every benchsuite
  generator family and a set of negated programs (stratified negation:
  a negated literal is a membership test on the id row), kernels run
  exactly on the kernel-capable stores and every counter equals the
  ``instance`` run.

The interpreter is the ground-truth oracle; any divergence is a kernel
bug by definition.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.benchsuite import answer_digest, generate_churn, suite_corpus
from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_program, parse_query
from repro.storage import BACKENDS, kernel_capable

NODES = 5

VARS = (Variable("X"), Variable("Y"), Variable("Z"), Variable("W"))
CONSTS = tuple(Constant(f"n{i}") for i in range(NODES))

#: Body atoms draw from the EDB relation and the IDB heads, so
#: recursion (including mutual recursion) arises naturally.
PREDICATES = (("e", 2), ("p", 2), ("r", 1))
IDB_HEADS = (("p", 2), ("r", 1))

#: Every program gets this rule appended: it guarantees the IDB is
#: reachable from the EDB (so fixpoints are non-trivial) and gives the
#: magic-rewritten query a stable goal predicate.
BASE_RULE = TGD(
    body=(Atom("e", (VARS[0], VARS[1])),),
    head=(Atom("p", (VARS[0], VARS[1])),),
)


@st.composite
def body_atoms(draw):
    predicate, arity = draw(st.sampled_from(PREDICATES))
    args = tuple(
        draw(
            st.one_of(
                st.sampled_from(VARS),
                st.sampled_from(CONSTS),
            )
        )
        for _ in range(arity)
    )
    return Atom(predicate, args)


@st.composite
def rules(draw):
    body = tuple(
        draw(body_atoms()) for _ in range(draw(st.integers(1, 3)))
    )
    body_vars = tuple(
        sorted(
            {
                t
                for atom in body
                for t in atom.args
                if isinstance(t, Variable)
            },
            key=lambda v: v.name,
        )
    )
    predicate, arity = draw(st.sampled_from(IDB_HEADS))
    choices = (
        st.one_of(st.sampled_from(body_vars), st.sampled_from(CONSTS))
        if body_vars
        else st.sampled_from(CONSTS)
    )
    head = Atom(predicate, tuple(draw(choices) for _ in range(arity)))
    return TGD(body=body, head=(head,))


@st.composite
def programs(draw):
    extra = draw(st.lists(rules(), min_size=0, max_size=4))
    return Program((BASE_RULE, *extra))


edge_facts = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
    min_size=1,
    max_size=10,
    unique=True,
)

unary_facts = st.lists(
    st.integers(0, NODES - 1), min_size=0, max_size=4, unique=True
)


def build_database(pairs, units):
    atoms = [Atom("e", (CONSTS[i], CONSTS[j])) for i, j in pairs]
    atoms.extend(Atom("r", (CONSTS[i],)) for i in units)
    return atoms


def _digest(instance):
    return answer_digest(
        (atom.predicate, *atom.args) for atom in instance.atoms()
    )


@given(program=programs(), pairs=edge_facts, units=unary_facts)
@settings(max_examples=40, deadline=None)
def test_kernel_fixpoint_matches_interpreter(program, pairs, units):
    database = build_database(pairs, units)
    reference = seminaive(database, program, store="instance")
    assert reference.exec_mode == "interpret"
    for store in ("columnar", "sharded"):
        result = seminaive(database, program, store=store)
        assert result.exec_mode == "kernel"
        assert result.instance.atoms() == reference.instance.atoms()
        assert _digest(result.instance) == _digest(reference.instance)
        # Not just the fixpoint: the round structure and the exact-once
        # match counting must agree with the interpreter row for row.
        assert result.rounds == reference.rounds
        assert result.derived == reference.derived
        assert result.considered == reference.considered
        assert (
            result.per_round_derived == reference.per_round_derived
        )
        assert (
            result.per_round_considered
            == reference.per_round_considered
        )


BOUND_QUERY = parse_query("out(Y) :- p(n0, Y).")


def _session(store, program, database):
    session = Session(store=store)
    session.add_facts(database)
    session.compile(program)
    return session


@given(program=programs(), pairs=edge_facts, units=unary_facts)
@settings(max_examples=25, deadline=None)
def test_kernel_matches_interpreter_under_magic(program, pairs, units):
    database = build_database(pairs, units)
    results = {}
    for store, exec_mode in (
        ("columnar", "kernel"),
        ("sharded", "kernel"),
        ("instance", "interpret"),
    ):
        session = _session(store, program, database)
        stream = session.query(BOUND_QUERY, rewrite="magic")
        answers = stream.to_set()
        assert stream.stats.rewrite == "magic"
        assert stream.stats.exec_mode == exec_mode
        results[(store, exec_mode)] = answer_digest(answers)
    assert len(set(results.values())) == 1, results


@given(
    program=programs(),
    pairs=edge_facts,
    units=unary_facts,
    extra=st.lists(
        st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
        min_size=1,
        max_size=4,
        unique=True,
    ),
)
@settings(max_examples=25, deadline=None)
def test_kernel_matches_interpreter_after_apply(
    program, pairs, units, extra
):
    database = build_database(pairs, units)
    inserts = [Atom("e", (CONSTS[i], CONSTS[j])) for i, j in extra]
    query = parse_query("out(X, Y) :- p(X, Y).")

    maintained = _session("columnar", program, database)
    maintained.query(query).to_set()
    maintained.apply(inserts=inserts)
    kernel_answers = maintained.query(query).to_set()

    scratch = _session("instance", program, database + inserts)
    scratch_answers = scratch.query(query).to_set()

    assert answer_digest(kernel_answers) == answer_digest(scratch_answers)
    assert kernel_answers == scratch_answers


def _family_scenarios(seed):
    """One scenario set per seed from every benchsuite generator
    family, plus the churn family the end-to-end benchmark drives."""
    churn = generate_churn(
        vertices=16, edges=24, clusters=4, steps=0, seed=seed
    ).scenario
    return [*suite_corpus(base_seed=seed), churn]


#: Negated programs over ``e``/``r`` facts: negation below recursion,
#: a negated self-join, a blocked head feeding recursion, and a negated
#: constant no fact carries (it blocks nothing).
NEGATED_PROGRAMS = (
    """p(X,Y) :- e(X,Y).
       p(X,Z) :- e(X,Y), p(Y,Z).
       s(X)   :- r(X), not p(n0,X).""",
    """p(X,Y) :- e(X,Y), not e(Y,X).
       s(X)   :- e(X,Y), not p(X,X), not r(Y).
       w(X)   :- s(X).
       w(Y)   :- w(X), e(X,Y).""",
    """s(X)   :- r(X), not e(X,nowhere).
       p(X,Y) :- e(X,Y), s(X), not s(Y).""",
)


def _negated_scenarios(seed):
    """``(name, program, database, queries)`` per negated program, over
    a random graph and marking drawn from *seed*."""
    rng = random.Random(seed)
    database = build_database(
        {(rng.randrange(NODES), rng.randrange(NODES)) for _ in range(8)},
        {rng.randrange(NODES) for _ in range(3)},
    )
    for index, text in enumerate(NEGATED_PROGRAMS):
        program, _ = parse_program(text)
        queries = [
            parse_query(f"q(X) :- {head}(X)." if head in ("s", "w")
                        else f"q(X,Y) :- {head}(X,Y).")
            for head in sorted(program.head_predicates())
        ]
        yield f"negated-{index}", program, database, queries


@given(seed=st.integers(0, 10**6))
@settings(max_examples=6, deadline=None)
def test_store_alone_decides_dispatch_across_families(seed):
    """How the rounds run is a function of the store, nothing else:
    kernels iff ``kernel_capable(store)``, and either way the same
    rounds, derivations, match counts and digests as the interpreter
    that ``store="instance"`` runs — negated programs, run stratum by
    stratum, included."""
    scenarios = [
        (
            scenario.name,
            # The datalog engine's fragment of each family's program.
            Program(
                tgd for tgd in scenario.program
                if tgd.is_full() and tgd.is_single_head()
            ),
            scenario.database,
            scenario.queries,
        )
        for scenario in _family_scenarios(seed)
    ]
    for name, program, database, queries in (
        scenarios + list(_negated_scenarios(seed))
    ):
        assert len(program) > 0, name
        reference = seminaive(database, program, store="instance")
        assert reference.exec_mode == "interpret" and reference.derived > 0
        for store in BACKENDS:
            expected = "kernel" if kernel_capable(store) else "interpret"
            result = seminaive(database, program, store=store)
            label = (name, store)
            assert result.exec_mode == expected, label
            assert (result.batches > 0) == (expected == "kernel"), label
            assert result.rounds == reference.rounds, label
            assert result.derived == reference.derived, label
            assert result.considered == reference.considered, label
            assert (
                result.per_round_considered == reference.per_round_considered
            ), label
            assert _digest(result.instance) == _digest(reference.instance)

            session = _session(store, program, database)
            for query in queries:
                assert session.plan(query).exec_mode == expected, label
                stream = session.query(query, rewrite="none")
                answers = stream.to_set()
                if stream.stats.from_cache:
                    continue  # an earlier query already saturated
                assert stream.stats.exec_mode == expected, label
                assert stream.stats.rounds == reference.rounds, label
                assert stream.stats.derived == reference.derived, label
                assert answer_digest(answers) == answer_digest(
                    reference.evaluate(query)
                ), label
