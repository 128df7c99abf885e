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
  interpreter's, answer for answer and in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.query import ConjunctiveQuery
from repro.core.tgd import TGD
from repro.datalog.seminaive import (
    seminaive,
    seminaive_rounds,
    stream_datalog_answers,
)
from repro.kernels import KernelEvaluator, query_answers

from .test_prop_kernels import (
    CONSTS,
    VARS,
    body_atoms,
    build_database,
    edge_facts,
    programs,
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
    assert len(reference) == len(set(reference))
    for store in KERNEL_STORES:
        streamed = list(
            stream_datalog_answers(query, database, program, store=store)
        )
        assert streamed == reference, store


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
