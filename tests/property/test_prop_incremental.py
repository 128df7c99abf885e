"""Property tests: incremental maintenance ≡ recomputation from scratch.

The acceptance bar of :mod:`repro.incremental`: for random interleaved
streams of insertions, retractions, and queries driven through
``Session.apply``, every query answer must equal a from-scratch
``certain_answers`` over the EDB as it stands at that point — across
all three storage backends and every plannable engine whose plan caches
a materialization.  Retractions are load-bearing here, not an
afterthought: the op generator plants them at roughly the same rate as
insertions, including retractions of facts of *derived* predicates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.predicate_graph import PredicateGraph
from repro.api import Session, certain_answers
from repro.benchsuite import answer_digest
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import seminaive
from repro.incremental import ChangeSet
from repro.lang.parser import parse_program, parse_query
from repro.storage import BACKENDS

from .strategies import (
    SCHEMA,
    constants,
    databases,
    programs,
    schema_atoms,
    stratified_programs,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

#: Linear TC (a recursive stratum) feeding two non-recursive strata;
#: heads of every stratum are also legal EDB predicates, so retraction
#: of derived-predicate assertions is hit.
PROGRAM = Program(
    [
        TGD((Atom("e", (X, Y)),), (Atom("t", (X, Y)),)),
        TGD((Atom("e", (X, Y)), Atom("t", (Y, Z))), (Atom("t", (X, Z)),)),
        TGD((Atom("t", (X, Y)), Atom("t", (Y, X))), (Atom("m", (X, Y)),)),
        TGD((Atom("t", (X, Y)),), (Atom("r", (X,)),)),
    ],
    name="prop-incremental",
)

QUERY = parse_query("q(X,Y) :- t(X,Y).")
QUERIES = (
    QUERY,
    parse_query("q(X,Y) :- m(X,Y)."),
    parse_query("q(X) :- r(X)."),
)

#: (predicate, arity) pool for generated facts — EDB *and* derived.
PREDICATES = (("e", 2), ("t", 2), ("m", 2), ("r", 1))


@st.composite
def op_streams(draw):
    """A seed database plus a random insert/retract/query interleaving."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(min_value=3, max_value=5))

    def fact(predicate, arity):
        return Atom(
            predicate,
            tuple(Constant(f"n{rng.randrange(n)}") for _ in range(arity)),
        )

    seed = {fact("e", 2) for _ in range(draw(st.integers(1, 6)))}
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = rng.choice(("insert", "retract", "mixed", "query"))
        if kind == "query":
            ops.append(("query", rng.randrange(len(QUERIES))))
            continue
        inserts, retracts = [], []
        if kind in ("insert", "mixed"):
            inserts = [
                fact(*rng.choice(PREDICATES))
                for _ in range(rng.randrange(1, 4))
            ]
        if kind in ("retract", "mixed"):
            retracts = [
                fact(*rng.choice(PREDICATES))
                for _ in range(rng.randrange(1, 4))
            ]
        ops.append(("apply", ChangeSet.of(inserts=inserts, retracts=retracts)))
    ops.append(("query", 0))  # always check the final state
    return Database(seed), ops


def _drive(store: str, method: str, database, ops):
    """Replay *ops* through one session; check every query as it lands."""
    session = Session(store=store)
    session.compile(PROGRAM)
    session.add_facts(database)
    # Warm the materialization so maintenance has something to upgrade.
    session.query(QUERY, method=method).to_set()
    for kind, payload in ops:
        if kind == "apply":
            session.apply(payload)
            continue
        query = QUERIES[payload]
        stream = session.query(query, method=method)
        got = set(stream.to_set())
        expected = certain_answers(
            query, Database(session.edb), PROGRAM, method=method
        )
        assert got == expected, (store, method, query)


@settings(max_examples=30, deadline=None)
@given(op_streams())
def test_session_apply_equals_recompute_datalog_all_backends(data):
    database, ops = data
    for store in BACKENDS:
        _drive(store, "datalog", database, ops)


@settings(max_examples=12, deadline=None)
@given(op_streams())
def test_session_apply_equals_recompute_other_engines(data):
    """chase caches materializations too; its upgraded fixpoints must
    agree with recomputation just the same."""
    database, ops = data
    _drive("instance", "chase", database, ops)


@settings(max_examples=20, deadline=None)
@given(op_streams())
def test_maintained_cache_is_actually_hit(data):
    """After any update stream, the next datalog query must be served
    from the upgraded cache (no silent fall-back to recomputation)."""
    database, ops = data
    session = Session()
    session.compile(PROGRAM)
    session.add_facts(database)
    session.query(QUERY).to_set()
    applied = False
    for kind, payload in ops:
        if kind == "apply":
            report = session.apply(payload)
            assert not report.fallbacks
            applied = True
    stream = session.query(QUERY)
    stream.to_set()
    if applied:
        assert stream.stats.from_cache


@st.composite
def straddling_streams(draw):
    """An :func:`op_streams` draw with "open a stream and pull k" /
    "drain an open stream" ops planted between the applies."""
    database, ops = draw(op_streams())
    rng = random.Random(draw(st.integers(0, 10**6)))
    woven = []
    for op in ops[:-1]:
        if rng.random() < 0.5:
            woven.append(
                ("open", (rng.randrange(len(QUERIES)), rng.randrange(3)))
            )
        woven.append(op)
        if rng.random() < 0.4:
            woven.append(("drain", None))
    woven.append(("drain", None))
    woven.append(ops[-1])
    return database, woven


@settings(max_examples=25, deadline=None)
@given(straddling_streams())
def test_streams_straddling_applies_never_poison_the_cache(data):
    """A stream opened on one EDB state and drained after later applies
    saturates for a state that no longer exists; whatever it registers
    must never be served to a query of the current state."""
    database, ops = data
    for store in BACKENDS:
        session = Session(store=store)
        session.compile(PROGRAM)
        session.add_facts(database)
        open_streams = []
        for kind, payload in ops:
            if kind == "apply":
                session.apply(payload)
            elif kind == "open":
                index, pulled = payload
                stream = session.query(QUERIES[index], rewrite="none")
                stream.first(pulled)
                open_streams.append(stream)
            elif kind == "drain":
                if open_streams:
                    open_streams.pop(0).to_set()
            else:
                query = QUERIES[payload]
                got = set(session.query(query, rewrite="none").to_set())
                expected = certain_answers(
                    query, Database(session.edb), PROGRAM, method="datalog"
                )
                assert got == expected, (store, query)


# -- drawn programs under a non-recursive tower ----------------------------

#: Two non-recursive strata stacked on whatever ``strategies.programs()``
#: drew: ``v`` reads every head predicate of the drawn rules, so it sits
#: above their recursive stratum wherever that is, and ``w`` reads ``v``
#: — each with two ways to derive a fact.
TOWER = (
    TGD((Atom("t", (X, Y)),), (Atom("v", (X,)),)),
    TGD((Atom("u", (X,)),), (Atom("v", (X,)),)),
    TGD((Atom("r", (X, Y)),), (Atom("v", (Y,)),)),
    TGD((Atom("v", (X,)), Atom("p", (X,))), (Atom("w", (X,)),)),
    TGD((Atom("v", (X,)), Atom("e", (X, Y))), (Atom("w", (Y,)),)),
)


def _has_recursive_stratum(rules) -> bool:
    graph = PredicateGraph(Program(rules))
    return any(
        graph.is_recursive_predicate(tgd.head[0].predicate) for tgd in rules
    )


def towered_programs():
    """The full rules of a ``programs()`` draw that recurse (one rule
    per head atom), under :data:`TOWER`: ≥ 2 non-recursive strata above
    a recursive one."""
    return (
        programs()
        .map(lambda program: [
            TGD(tgd.body, (head,))
            for tgd in program if tgd.is_full() for head in tgd.head
        ])
        .filter(_has_recursive_stratum)
        .map(lambda rules: Program(rules + list(TOWER), name="towered"))
    )


def _facts():
    """Ground facts of every predicate — EDB, drawn heads and tower."""
    tower = st.builds(
        lambda predicate, value: Atom(predicate, (value,)),
        st.sampled_from(["v", "w"]), constants(),
    )
    return st.one_of(schema_atoms(list(SCHEMA), constants()), tower)


_batches = st.lists(
    st.builds(
        lambda inserts, retracts: ChangeSet.of(
            inserts=inserts, retracts=retracts
        ),
        st.lists(_facts(), max_size=3), st.lists(_facts(), max_size=3),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=25, deadline=None)
@given(towered_programs(), databases(), _batches)
def test_whole_fixpoint_equals_recompute_under_a_nonrecursive_tower(
    program, database, batches
):
    """After every batch the maintained store *is* the from-scratch
    least fixpoint — every stratum, not just a query's slice of it."""
    warm = parse_query("q(X) :- w(X).")
    for store in BACKENDS:
        session = Session(store=store)
        compiled = session.compile(program)
        session.add_facts(database)
        plan = session.plan(warm, rewrite="none")
        session.query(warm, rewrite="none").to_set()
        for batch in batches:
            report = session.apply(batch)
            assert not report.fallbacks
            maintained = session.cache.get_fixpoint(plan)
            scratch = seminaive(
                Database(session.edb), compiled.analysis.normalized
            ).instance
            assert set(maintained) == set(scratch), (store, batch)


# -- stratified negation ----------------------------------------------------
#
# A negated literal turns a change below into its opposite above: an
# insertion blocks heads (they must go), a retraction unblocks them
# (they must come).  The maintainer handles both inside DRed.


def _negation_facts():
    """Facts of every schema predicate and of ``g``, which the drawn
    programs only ever negate."""
    return st.one_of(
        schema_atoms(list(SCHEMA), constants()),
        constants().map(lambda value: Atom("g", (value,))),
    )


_negation_batches = st.lists(
    st.builds(
        lambda inserts, retracts: ChangeSet.of(
            inserts=inserts, retracts=retracts
        ),
        st.lists(_negation_facts(), max_size=3),
        st.lists(_negation_facts(), max_size=3),
    ),
    min_size=1, max_size=5,
)


def _digest(store):
    return answer_digest((atom.predicate, *atom.args) for atom in store)


def _assert_maintained_equals_scratch(program, database, batches, warm):
    for store in BACKENDS:
        session = Session(store=store)
        session.compile(program)
        session.add_facts(database)
        plan = session.plan(warm, rewrite="none")
        session.query(warm, rewrite="none").to_set()
        for batch in batches:
            report = session.apply(batch)
            assert not report.fallbacks
            maintained = session.cache.get_fixpoint(plan)
            assert maintained is not None, (store, batch)
            scratch = seminaive(Database(session.edb), program).instance
            assert _digest(maintained) == _digest(scratch), (
                store, batch,
            )
            assert session.query(warm).to_set() == warm.evaluate(scratch)


@settings(max_examples=30, deadline=None)
@given(stratified_programs(), databases(), _negation_batches)
def test_negated_programs_maintained_equal_recompute(program, database, batches):
    """After every batch the maintained perfect model *is* the
    from-scratch one, on every store."""
    _assert_maintained_equals_scratch(
        program, database, batches, parse_query("q(X,Y) :- r(X,Y).")
    )


#: ``u`` negates the closure ``t`` of ``e`` from ``a``; ``s`` is the
#: recursion a ``u`` fact feeds.
NEGATED = """
    e(a,b). e(b,c). p(a). p(b). p(c). r(c,d).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
    u(X)   :- p(X), not t(a,X).
    s(X,X) :- u(X).
    s(X,Z) :- s(X,Y), r(Y,Z).
"""


def _atom(text):
    (atom,) = parse_program(text)[1]
    return atom


@pytest.mark.parametrize(
    "batches",
    [
        # A retraction that unblocks heads: u(b), u(c) and s(c,d) come.
        [ChangeSet.of(retracts=[_atom("e(a,b).")])],
        # An insertion that blocks one: u(a) goes once t(a,a) holds.
        [ChangeSet.of(inserts=[_atom("e(b,a).")])],
        # A blocked head that feeds recursion: u(c) unblocked, then
        # blocked again, and s(c,c), s(c,d) with it.
        [
            ChangeSet.of(retracts=[_atom("e(b,c).")]),
            ChangeSet.of(inserts=[_atom("e(a,c).")]),
            ChangeSet.of(
                inserts=[_atom("e(b,c).")], retracts=[_atom("e(a,c).")]
            ),
        ],
    ],
    ids=["retraction-unblocks", "insertion-blocks", "blocked-head-feeds-recursion"],
)
def test_negation_flips_the_direction_of_a_change(batches):
    program, database = parse_program(NEGATED)
    _assert_maintained_equals_scratch(
        program, database, batches, parse_query("q(X,Y) :- s(X,Y).")
    )
