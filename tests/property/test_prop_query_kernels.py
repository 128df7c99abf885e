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
  stored rows themselves, and still counts what the interpreter counts;
  so do join pins of every shape — one keyed step, two steps, a scan, a
  negated literal, key and head constants, a nullary member step,
  member steps over rows past their watermark — batch for batch, on a
  budgeted store that evicts mid-round as well.
"""

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core.atoms import Atom
from repro.core.match import selective_order
from repro.core.program import Program
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Null, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import (
    seminaive,
    seminaive_rounds,
    stream_datalog_answers,
)
from repro.datalog.strata import compute_strata
from repro.kernels import KernelEvaluator, ordered_answers, query_answers
from repro.kernels.query import _block
from repro.lang.parser import parse_program, parse_query
from repro.storage import make_store, sharded_store_factory

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


def _extend(atom, fact, binding):
    """*binding* extended to map *atom* onto *fact*, or None when
    *fact* does not carry *atom*'s predicate, constants and repeats."""
    if (fact.predicate, fact.arity) != (atom.predicate, atom.arity):
        return None
    extended = dict(binding)
    for term, value in zip(atom.args, fact.args):
        if isinstance(term, Variable):
            if extended.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return extended


def _pin_batches(rule, delta, old, full):
    """The batches one round of *rule* counts: per pin whose relation
    has *delta* facts, one; then one per join step — in the compiler's
    order, against *old* facts before the pin and *full* ones after it
    — that the pin's matches so far reach; then one per negated literal
    (none of which carries a constant) when matches remain."""
    batches = 0
    for pin, atom in enumerate(rule.body):
        if not any((f.predicate, f.arity) == (atom.predicate, atom.arity)
                   for f in delta):
            continue
        batches += 1
        matches = [
            binding for fact in delta
            if (binding := _extend(atom, fact, {})) is not None
        ]
        for at in selective_order(rule.body, pin)[1:]:
            if not matches:
                break
            batches += 1
            facts = old if at < pin else full
            matches = [
                extended for binding in matches for fact in facts
                if (extended := _extend(rule.body[at], fact, binding))
                is not None
            ]
        if matches:
            batches += len(rule.negated)
    return batches


def _assert_rounds_count_what_the_interpreter_counts(
    program, database, stores=KERNEL_STORES
):
    """Per round, the kernels' ``considered``, staged facts and batches
    on each of *stores* are the interpreter's (batches as
    :func:`_pin_batches` counts them), stratum by stratum: a stratum's
    first round takes every stored fact as delta."""
    reference = list(seminaive_rounds(database, program, store="instance"))
    layers = (
        compute_strata(program).layers if program.has_negation()
        else (program,)
    )
    staged = iter(reference[1:])
    full = set(reference[0].staged)
    expected_batches = []
    for layer in layers:
        delta, old = set(full), set()
        while delta:
            expected_batches.append(sum(
                _pin_batches(rule, delta, old, full) for rule in layer
            ))
            delta = set(next(staged).staged)
            old = set(full)
            full |= delta
    assert len(expected_batches) == len(reference) - 1
    for store in stores:
        events = list(seminaive_rounds(database, program, store=store))
        assert len(events) == len(reference), store
        for event, interpreted, batches in zip(
            events[1:], reference[1:], expected_batches
        ):
            assert event.considered == interpreted.considered
            assert set(event.staged) == set(interpreted.staged)
            assert event.batches == batches, (store, event.index)


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
    _assert_rounds_count_what_the_interpreter_counts(
        Program((BASE_RULE, *extra)), build_database(pairs, units)
    )


@given(
    extra=st.lists(
        rules().filter(lambda rule: len(rule.body) == 2), min_size=1,
        max_size=4,
    ),
    pairs=edge_facts,
    units=unary_facts,
)
@settings(max_examples=60, deadline=None)
def test_joining_rounds_count_what_the_interpreter_counts(
    extra, pairs, units
):
    """Two-atom rules — keyed probes, membership steps, scans, old-only
    steps, body and head constants — run their one step per pin: the
    keyed ones on rows, with no binding.  Per round, the interpreter's
    ``considered`` and staged facts, and one batch per pin with delta
    rows plus one per step those rows reach."""
    _assert_rounds_count_what_the_interpreter_counts(
        Program((BASE_RULE, *extra)), build_database(pairs, units)
    )


#: Pin shapes beyond one keyed step, each added to :data:`BASE_RULE`.
MULTI_STEP_RULES = {
    # two steps per pin, an old-only one among them
    "three-atom": "p(X,W) :- e(X,Y), p(Y,Z), e(Z,W).",
    # no key: a cartesian scan step
    "scan": "p(X,Y) :- r(X), r(Y).",
    # a membership test on the whole match row after the join
    "negated-join": "p(X,Z) :- e(X,Y), p(Y,Z), not r(Y).",
    # a membership step, a constant-keyed probe and a head constant
    "constants": "p(X,n0) :- r(X), e(X,n1), p(n1,Y).",
    # a nullary atom: pinned (then e is a scan) and as a member step
    "nullary-member": "s() :- r(X).\n p(X,Y) :- s(), e(Y,X).",
    # member steps on a relation holding rows they must not see: this
    # round's appends (the closure rule runs first), and for the
    # old-only step of the second pin the delta as well
    "member-above-limit": (
        "p(X,Z) :- e(X,Y), p(Y,Z).\n r(X) :- p(X,Y), p(Y,X)."
    ),
}

#: A byte budget that evicts shards mid-round: a part paged back in
#: rebuilds its dedup map from its rows.
EVICTING = sharded_store_factory(512, num_shards=4)


@pytest.mark.parametrize(
    "text", MULTI_STEP_RULES.values(), ids=list(MULTI_STEP_RULES)
)
@given(pairs=edge_facts, units=unary_facts)
@settings(max_examples=25, deadline=None)
def test_multi_step_rounds_count_what_the_interpreter_counts(
    text, pairs, units
):
    """Pins with two steps, a scan step, a negated literal, key and head
    constants across two steps, a nullary member step, or member steps
    over a relation with rows past their watermark run on rows like the
    rest.  Per round, the interpreter's ``considered`` and staged facts,
    and the batches its matches predict — also on a budgeted store that
    evicts and reloads parts mid-round."""
    rules_, _ = parse_program(text)
    _assert_rounds_count_what_the_interpreter_counts(
        Program((BASE_RULE, *rules_)), build_database(pairs, units),
        (*KERNEL_STORES, EVICTING),
    )


class _Spelled:
    """A constant's value with a chosen ``repr``: spellings that are
    prefixes of one another, which no parsed constant has."""

    def __init__(self, spelling):
        self.spelling = spelling

    def __repr__(self):
        return self.spelling

    def __eq__(self, other):
        return isinstance(other, _Spelled) and other.spelling == self.spelling

    def __hash__(self):
        return hash(self.spelling)


class _Table:
    """The two reads :func:`_block` makes of a term table."""

    def __init__(self, terms):
        self.terms = terms

    def term(self, tid):
        return self.terms[tid]

    def decode(self, row):
        return tuple(map(self.terms.__getitem__, row))


TERM_VALUES = (
    "a", "ab", "a b", "A b", "b'", 'b"', "n1", "n10", "n2", 7, 70, -7,
    _Spelled("x"), _Spelled("x)"), _Spelled("x), Constant(y"), _Spelled("y"),
    _Spelled("z"),
)


@st.composite
def id_blocks(draw):
    """A term table (constants, a labelled null) and distinct id rows
    of one arity over it."""
    values = draw(st.lists(
        st.sampled_from(TERM_VALUES), min_size=1, max_size=8, unique=True,
    ))
    terms = [Constant(value) for value in values]
    if draw(st.booleans()):
        terms.append(Null(3))
    arity = draw(st.integers(0, 3))
    row = st.tuples(*[st.integers(0, len(terms) - 1)] * arity)
    return terms, draw(st.lists(row, max_size=30, unique=True))


@given(id_blocks())
@settings(max_examples=200, deadline=None)
def test_block_order_is_the_str_order_of_the_decoded_answers(drawn):
    """Rank keys when no spelling is a prefix of another, the string key
    otherwise: either way the order ``sorted(..., key=str)`` gives."""
    terms, rows = drawn
    table = _Table(terms)
    expected = sorted(
        (answer for answer in map(table.decode, rows)
         if all(isinstance(term, Constant) for term in answer)),
        key=str,
    )
    assert _block(table, set(rows)) == expected
    assert _block(table, list(rows)) == expected


def test_block_falls_back_on_prefix_spellings():
    # ``Constant(x)`` is a prefix of ``Constant(x), Constant(y)``: ranked
    # by spelling, (x, z) would come first; as strings, the row of the
    # longer spelling does.
    x, x_y, z = (
        Constant(_Spelled(spelling))
        for spelling in ("x", "x), Constant(y", "z")
    )
    table = _Table([x, x_y, z])
    expected = [(x_y, z), (x, z)]
    assert sorted(expected, key=str) == expected
    assert _block(table, [(0, 2), (1, 2)]) == expected


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

