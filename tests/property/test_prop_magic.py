"""Property tests: magic-rewritten answers ≡ unrewritten certain answers.

The acceptance bar of the demand transformation: for *random* full
programs × random binding patterns × all three storage backends, the
magic plan's answer set must equal the ground-truth semi-naive fixpoint
answers — before and after ``Session.apply`` update batches (where the
demand-specific materialization must fall back to recomputation with a
recorded reason, never silently serve stale or demand-mismatched
facts).  And the other side of ``rewrite="auto"``'s run-time choice: on
a version that holds the full fixpoint, the ``auto`` read served from it
≡ the forced demand program ≡ ground truth, across update batches.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import datalog_answers
from repro.incremental import ChangeSet
from repro.rewriting import magic_rewrite
from repro.storage import BACKENDS

#: Fixed-arity vocabulary (Program.schema rejects mixed arities).
PREDICATES = {"e": 2, "t": 2, "s": 1}
IDB = ("t", "s")
VARIABLES = tuple(Variable(n) for n in ("X", "Y", "Z"))
CONSTANTS = tuple(Constant(f"n{i}") for i in range(4))


@st.composite
def full_programs(draw):
    """A random full, single-head program over the small vocabulary.

    Head arguments are drawn from the body's variables (plus the odd
    constant), so every rule is full by construction; bodies mix EDB
    and IDB atoms, giving recursion, mutual recursion, constants in
    rule heads and bodies, and rules that share no variables at all.
    """
    rng = random.Random(draw(st.integers(0, 10**6)))
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        body = []
        for _ in range(rng.randrange(1, 3)):
            predicate = rng.choice(tuple(PREDICATES))
            args = tuple(
                rng.choice(VARIABLES + CONSTANTS[:1])
                for _ in range(PREDICATES[predicate])
            )
            body.append(Atom(predicate, args))
        body_vars = sorted(
            {t for a in body for t in a.args if isinstance(t, Variable)},
            key=str,
        )
        head_pool = tuple(body_vars) + CONSTANTS[:2]
        head_pred = rng.choice(IDB)
        head = Atom(
            head_pred,
            tuple(
                rng.choice(head_pool)
                for _ in range(PREDICATES[head_pred])
            ),
        )
        rules.append(TGD(tuple(body), (head,)))
    return Program(rules, name="prop-magic")


def _random_fact(rng):
    predicate = rng.choice(tuple(PREDICATES))
    return Atom(
        predicate,
        tuple(
            rng.choice(CONSTANTS) for _ in range(PREDICATES[predicate])
        ),
    )


@st.composite
def databases(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    return Database(
        {_random_fact(rng) for _ in range(draw(st.integers(1, 8)))}
    )


@st.composite
def bound_queries(draw):
    """A random query with a random binding pattern (0–2 constants)."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    atoms = []
    bound_vars = []
    for _ in range(rng.randrange(1, 3)):
        predicate = rng.choice(IDB + ("e",))
        args = []
        for _ in range(PREDICATES[predicate]):
            roll = rng.random()
            if roll < 0.4:
                args.append(rng.choice(CONSTANTS))
            else:
                var = rng.choice(VARIABLES)
                args.append(var)
                bound_vars.append(var)
        atoms.append(Atom(predicate, tuple(args)))
    outputs = tuple(
        v for v in dict.fromkeys(bound_vars)
        if rng.random() < 0.7
    )
    return ConjunctiveQuery(outputs, tuple(atoms))


@st.composite
def change_sets(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    inserts = [_random_fact(rng) for _ in range(rng.randrange(0, 4))]
    retracts = [_random_fact(rng) for _ in range(rng.randrange(0, 4))]
    return ChangeSet.of(inserts=inserts, retracts=retracts)


@settings(max_examples=60, deadline=None)
@given(full_programs(), databases(), bound_queries())
def test_magic_rewrite_equals_ground_truth(program, database, query):
    """The rewriting itself, no session: rewritten program + seeds run
    through the bare semi-naive engine ≡ the unrewritten fixpoint."""
    from repro.datalog.seminaive import seminaive

    rewriting = magic_rewrite(program, query)
    assert rewriting.program.is_full()
    assert rewriting.program.is_single_head()
    seeded = list(database) + list(rewriting.seed)
    got = seminaive(seeded, rewriting.program).evaluate(rewriting.query)
    assert got == datalog_answers(query, database, program)


@settings(max_examples=25, deadline=None)
@given(full_programs(), databases(), bound_queries())
def test_magic_plan_equals_ground_truth_all_backends(
    program, database, query
):
    """Through the session layer, forced magic, across all backends."""
    expected = datalog_answers(query, database, program)
    for backend in BACKENDS:
        session = Session(store=backend)
        session.compile(program)
        session.add_facts(database)
        stream = session.query(query, rewrite="magic", method="datalog")
        assert set(stream.to_set()) == expected, backend
        assert stream.stats.rewrite == "magic"
        # The demand-specific fixpoint is cached and replayed exactly.
        again = session.query(query, rewrite="magic", method="datalog")
        assert set(again.to_set()) == expected, backend
        assert again.stats.from_cache, backend


@settings(max_examples=25, deadline=None)
@given(
    full_programs(),
    databases(),
    bound_queries(),
    st.lists(change_sets(), min_size=1, max_size=3),
)
def test_magic_stays_exact_across_session_apply(
    program, database, query, updates
):
    """Post-``Session.apply`` states: the magic plan must recompute
    against the new EDB (with the fallback recorded whenever a magic
    fixpoint was cached), never serve the stale demand fixpoint."""
    session = Session()
    session.compile(program)
    session.add_facts(database)
    # Warm a magic materialization so apply() has something to drop.
    session.query(query, rewrite="magic", method="datalog").to_set()
    for changes in updates:
        report = session.apply(changes)
        effective = report.added or report.dropped
        if effective:
            assert any(
                "demand-specific" in reason
                for _, reason in report.fallbacks
            ), "apply must record the magic fallback"
        stream = session.query(query, rewrite="magic", method="datalog")
        got = set(stream.to_set())
        expected = datalog_answers(
            query, Database(session.edb), program
        )
        assert got == expected
        if effective:
            assert not stream.stats.from_cache


@settings(max_examples=25, deadline=None)
@given(
    full_programs(),
    databases(),
    bound_queries(),
    st.lists(change_sets(), min_size=1, max_size=3),
)
def test_warm_auto_equals_forced_magic_equals_ground_truth(
    program, database, query, updates
):
    """``rewrite="auto"`` on a session that holds the full fixpoint
    reads it — a cache hit, no demand program run — and agrees with the
    forced demand program and the from-scratch answers before and after
    every batch, on all three backends."""
    for backend in BACKENDS:
        session = Session(store=backend)
        session.compile(program)
        session.add_facts(database)
        # Any unrewritten read leaves the full fixpoint in the cache.
        session.query(query, rewrite="none", method="datalog").to_set()
        for changes in (None, *updates):
            if changes is not None:
                session.apply(changes)
            expected = datalog_answers(
                query, Database(session.edb), program
            )
            warm = session.query(query, method="datalog")
            assert set(warm.to_set()) == expected, backend
            assert warm.stats.from_cache, backend
            assert warm.stats.rewrite == "none", backend
            assert warm.stats.derived == 0, backend
            forced = session.query(query, rewrite="magic", method="datalog")
            assert set(forced.to_set()) == expected, backend
            assert forced.stats.rewrite == "magic", backend
