"""Property tests: a CQ read off id rows ≡ the interpreter's evaluation.

Random conjunctive queries — Boolean ones, repeated output variables
and body constants included — over random fixpoints on the
kernel-capable stores (columnar, sharded), read both ways:

* the full read (:func:`repro.kernels.query_answers`, the query's pin
  plans with every row as delta) equals
  :meth:`~repro.core.query.ConjunctiveQuery.evaluate`;
* each round's delta read (the query's pin plans over the round's row
  ranges) equals :meth:`~repro.core.query.ConjunctiveQuery.evaluate_delta`
  over the round's decoded ``staged`` facts;
* the answer stream of a kernel saturation
  (:func:`repro.datalog.seminaive.stream_datalog_answers`) is the
  interpreter's, block for block, answer for answer and in the same
  order — each block in ``str`` order;
* a pin with nothing to join (a single-atom rule or query) projects the
  stored rows themselves, and still counts what the interpreter counts.
"""

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Null
from repro.core.tgd import TGD
from repro.datalog.seminaive import (
    seminaive,
    seminaive_rounds,
    stream_datalog_answers,
)
from repro.kernels import KernelEvaluator, ordered_answers, query_answers
from repro.lang.parser import parse_program, parse_query
from repro.storage import make_store

from .test_prop_kernels import (
    BASE_RULE,
    CONSTS,
    VARS,
    body_atoms,
    build_database,
    edge_facts,
    programs,
    rules,
    unary_facts,
)

KERNEL_STORES = ("columnar", "sharded")


@st.composite
def queries(draw):
    atoms = tuple(draw(body_atoms()) for _ in range(draw(st.integers(1, 3))))
    body_vars = sorted(
        {t for atom in atoms for t in atom.args if t in VARS},
        key=lambda v: v.name,
    )
    output = ()
    if body_vars:
        # Possibly empty (a Boolean query), possibly repeating a variable.
        output = tuple(
            draw(st.lists(st.sampled_from(body_vars), max_size=3))
        )
    return ConjunctiveQuery(output, atoms)


def _delta_reader(query, store):
    """The query as a rule over *store*, read round by round."""
    rule = TGD(body=query.atoms, head=(Atom("answer", query.output),))
    return KernelEvaluator(store, Program((rule,)))


@given(program=programs(), pairs=edge_facts, units=unary_facts,
       query=queries())
@settings(max_examples=40, deadline=None)
def test_full_read_equals_evaluate(program, pairs, units, query):
    database = build_database(pairs, units)
    for store in KERNEL_STORES:
        fixpoint = seminaive(database, program, store=store).instance
        assert query_answers(query, fixpoint) == query.evaluate(fixpoint)


@given(program=programs(), pairs=edge_facts, units=unary_facts,
       query=queries())
@settings(max_examples=40, deadline=None)
def test_round_delta_reads_equal_evaluate_delta(program, pairs, units, query):
    database = build_database(pairs, units)
    predicates = query.predicates()
    for store in KERNEL_STORES:
        reader = None
        for event in seminaive_rounds(database, program, store=store):
            if event.index == 0:
                reader = _delta_reader(query, event.instance)
                continue
            table = event.instance.table
            read = {
                tuple(map(table.term, row))
                for row in reader.answer_rows(event.ranges)
            }
            relevant = [a for a in event.staged if a.predicate in predicates]
            assert read == query.evaluate_delta(event.instance, relevant), (
                store, event.index,
            )


@given(program=programs(), pairs=edge_facts, units=unary_facts,
       query=queries())
@settings(max_examples=40, deadline=None)
def test_answer_stream_is_the_interpreters(program, pairs, units, query):
    database = build_database(pairs, units)
    reference = list(
        stream_datalog_answers(query, database, program, store="instance")
    )
    answers = list(chain.from_iterable(reference))
    assert len(answers) == len(set(answers))
    for block in reference:
        assert block and block == sorted(block, key=str)
    for store in KERNEL_STORES:
        streamed = list(
            stream_datalog_answers(query, database, program, store=store)
        )
        assert streamed == reference, store


@given(
    extra=st.lists(
        rules().filter(lambda rule: len(rule.body) == 1), max_size=4
    ),
    pairs=edge_facts,
    units=unary_facts,
)
@settings(max_examples=40, deadline=None)
def test_projecting_rounds_count_what_the_interpreter_counts(
    extra, pairs, units
):
    """Single-atom rules run as row projections: per round, the same
    ``considered`` and staged facts as the interpreter, and one batch
    per rule whose body relation had delta rows."""
    program = Program((BASE_RULE, *extra))
    database = build_database(pairs, units)
    reference = list(seminaive_rounds(database, program, store="instance"))
    expected_batches = []
    for before in reference[:-1]:
        grew = {(atom.predicate, atom.arity) for atom in before.staged}
        expected_batches.append(sum(
            (rule.body[0].predicate, rule.body[0].arity) in grew
            for rule in program
        ))
    for store in KERNEL_STORES:
        events = list(seminaive_rounds(database, program, store=store))
        assert len(events) == len(reference), store
        for event, interpreted, batches in zip(
            events[1:], reference[1:], expected_batches
        ):
            assert event.considered == interpreted.considered
            assert set(event.staged) == set(interpreted.staged)
            assert event.batches == batches, (store, event.index)


def test_boolean_and_constant_queries_by_hand():
    e = lambda x, y: Atom("e", (x, y))  # noqa: E731
    X, Y = VARS[0], VARS[1]
    database = build_database([(0, 1), (1, 2), (2, 2)], [])
    program = Program(())
    fixpoint = seminaive(database, program, store="columnar").instance
    n0, n2, n4 = CONSTS[0], CONSTS[2], CONSTS[4]
    cases = {
        ConjunctiveQuery((), (e(X, Y),)): {()},
        ConjunctiveQuery((), (e(n4, Y),)): set(),
        ConjunctiveQuery((X, X), (e(X, X),)): {(n2, n2)},
        ConjunctiveQuery((Y,), (e(n0, X), e(X, Y))): {(n2,)},
    }
    for query, expected in cases.items():
        assert query.evaluate(fixpoint) == expected
        assert query_answers(query, fixpoint) == expected


def test_single_atom_queries_project_stored_rows():
    """A permuted head, a projection, a repeated variable, a constant
    and a row holding a null, each read as ``evaluate`` reads it."""
    e = lambda x, y: Atom("e", (x, y))  # noqa: E731
    X, Y = VARS[0], VARS[1]
    n0, n1, n2, n3 = CONSTS[:4]
    null = Null(1)
    facts = [e(n0, null), e(n1, n2), e(n3, n3), e(n2, n1)]
    fixpoint = make_store("columnar", facts)
    cases = {
        ConjunctiveQuery((Y, X), (e(X, Y),)):
            {(n2, n1), (n3, n3), (n1, n2)},
        ConjunctiveQuery((X,), (e(X, Y),)): {(n0,), (n1,), (n2,), (n3,)},
        ConjunctiveQuery((X, X), (e(X, X),)): {(n3, n3)},
        ConjunctiveQuery((Y,), (e(n1, Y),)): {(n2,)},
        ConjunctiveQuery((Y,), (e(n0, Y),)): set(),
        ConjunctiveQuery((X, Y), (e(X, Y),)):
            {(n1, n2), (n3, n3), (n2, n1)},
    }
    for query, expected in cases.items():
        assert query.evaluate(fixpoint) == expected, query
        assert query_answers(query, fixpoint) == expected, query
        assert ordered_answers(query, fixpoint) == sorted(expected, key=str)
    # The head lists the body's variables in order: the stored rows of
    # the head relation are the body relation's own tuples.
    closure = seminaive(
        build_database([(0, 1), (1, 2)], []), Program((BASE_RULE,)),
        store="columnar",
    ).instance
    (_, edges), = closure.parts("e", 2)
    (_, heads), = closure.parts("p", 2)
    assert all(a is b for a, b in zip(edges.rows, heads.rows))


PINNED_PROGRAM = """
    e(n10,n2). e(n2,b). e(b,"A b"). e("A b",n10). e(n2, 7).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""

#: The drained sequence of ``q(Y,X) :- t(X,Y)``: one block of five per
#: round, each in ``str`` order — the ``repr`` of a constant decides
#: (``Constant(7)`` sorts after every quoted name).
PINNED_SEQUENCE = [
    ("A b", "b"), ("b", "n2"), ("n10", "A b"), ("n2", "n10"), (7, "n2"),
    ("A b", "n2"), ("b", "n10"), ("n10", "b"), ("n2", "A b"), (7, "n10"),
    ("A b", "n10"), ("b", "A b"), ("n10", "n2"), ("n2", "b"), (7, "A b"),
    ("A b", "A b"), ("b", "b"), ("n10", "n10"), ("n2", "n2"), (7, "b"),
]


@pytest.mark.parametrize("store", ["instance", "columnar"])
def test_drained_sequence_is_pinned(store):
    """The order ``first(k)`` and the server rely on: rounds in order,
    each round's block in ``str`` order."""
    program, database = parse_program(PINNED_PROGRAM)
    query = parse_query("q(Y,X) :- t(X,Y).")
    blocks = list(stream_datalog_answers(query, database, program, store=store))
    assert [len(block) for block in blocks] == [5, 5, 5, 5]
    for block in blocks:
        assert block == sorted(block, key=str)
    session = Session(store=store)
    session.add_facts(database)
    session.compile(program)
    stream = session.query(query)
    expected = [tuple(map(Constant, answer)) for answer in PINNED_SEQUENCE]
    assert list(stream) == list(chain.from_iterable(blocks)) == expected
    assert stream.stats.rounds == 5

