"""Unit tests for the columnar batch-kernel subsystem.

Covers the three layers the kernels cut across: the compiler
(``repro.kernels.compiler`` — lowering rules to pin plans with the
first-pin old/full discipline), the runtime
(``repro.kernels.runtime`` — batch execution over interned id rows,
parity with the per-tuple interpreter that ``store="instance"`` runs),
and what reports the store-derived dispatch (``exec_mode`` on
``seminaive`` results, the plan, and ``StreamStats``/server stats),
plus ``intern_many``.  The
relation primitive the kernels join in place is covered by
``test_relation.py``.
"""

import gc
import sys
import threading
import tracemalloc

import pytest

from repro.api import Session
from repro.core.instance import Instance
from repro.core.terms import Constant, Variable
from repro.datalog.seminaive import seminaive, seminaive_rounds
from repro.kernels import (
    KernelEvaluator,
    compile_kernels,
    compile_rule,
    kernel_capable,
    ordered_answers,
    query_answers,
)
from repro.kernels.compiler import CONST, MATCHED, PINNED, ROW
from repro.lang.parser import parse_program, parse_query
from repro.server.service import ReasoningService
from repro.storage import (
    ShardedStore,
    TermTable,
    make_store,
    sharded_store_factory,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")

TC_SOURCE = """
    e(a,b). e(b,c). e(c,d).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""


#: The churn family's program: a recursive closure, a fully bound
#: self-join over it and a projection, all in one stratum.
MUTUAL_RULES = """
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
    mutual(X,Y) :- t(X,Y), t(Y,X).
    reach(X) :- t(X,Y).
"""
MUTUAL_SOURCE = "e(a,b). e(b,a). e(b,c). e(c,d). e(d,b).\n" + MUTUAL_RULES


def _rule(text):
    program, _ = parse_program(text)
    return list(program)[0]


class TestCompiler:
    def test_tc_rule_layout(self):
        kernel = compile_rule(_rule("t(X,Z) :- e(X,Y), t(Y,Z)."))
        assert kernel.head_predicate == "t"
        assert kernel.head_arity == 2
        # One pin plan per body position, each with one join step for
        # the other atom.
        assert len(kernel.pins) == 2
        for pin in kernel.pins:
            assert len(pin.steps) == 1
        # The match row is the pinned row, then the matched row; the
        # step keys on the shared variable Y where the pinned row has
        # it, and the head reads each variable at its first position.
        pin0, pin1 = kernel.pins
        assert pin0.steps[0].key == ((0, (ROW, 1)),)  # t(Y,Z) on e's Y
        assert pin0.head == ((ROW, 0), (ROW, 3))  # e's X, t's Z
        assert pin1.steps[0].key == ((1, (ROW, 0)),)  # e(X,Y) on t's Y
        assert pin1.head == ((ROW, 2), (ROW, 1))  # e's X, t's Z

    def test_first_pin_old_full_discipline(self):
        kernel = compile_rule(_rule("t(X,Z) :- e(X,Y), t(Y,Z)."))
        pin0, pin1 = kernel.pins
        # Pin 0: the other atom sits at a later body position — full.
        assert pin0.pin_index == 0
        assert pin0.steps[0].predicate == "t"
        assert not pin0.steps[0].old_only
        # Pin 1: the other atom sits earlier — old rows only, so a
        # match whose first delta position is 1 surfaces exactly once.
        assert pin1.pin_index == 1
        assert pin1.steps[0].predicate == "e"
        assert pin1.steps[0].old_only

    def test_bound_join_key_covers_shared_variables(self):
        kernel = compile_rule(_rule("p(X) :- e(X,Y), e(Y,X)."))
        pin = kernel.pins[0]
        step = pin.steps[0]
        # After pinning e(X,Y) both X and Y are read, so the second
        # atom keys on both positions, off the pinned row, and the
        # head reads nothing of the matched row.
        assert step.key == ((0, (ROW, 1)), (1, (ROW, 0)))
        assert step.member
        assert pin.head == ((ROW, 0),)

    def test_within_atom_repeat(self):
        kernel = compile_rule(_rule("r(X) :- e(X,X)."))
        pin = kernel.pins[0]
        assert pin.repeats == ((1, 0),)
        # X is read at its first occurrence only.
        assert pin.head == ((ROW, 0),)

    def test_constants_land_in_consts_and_keys(self):
        kernel = compile_rule(_rule("r(Y) :- e(a,Y), t(Y,b)."))
        pin0 = kernel.pins[0]
        assert pin0.consts == ((0, a),)
        step = pin0.steps[0]
        kinds = {kind for _, (kind, _) in step.key}
        # t(Y, b): Y is read off the pinned row, b is a constant key
        # source.
        assert kinds == {ROW, CONST}
        assert step.key == ((0, (ROW, 1)), (1, (CONST, b)))

    def test_head_constants(self):
        (pin,) = compile_rule(_rule("r(X,c) :- e(X,Y).")).pins
        assert pin.head == ((ROW, 0), (CONST, c))
        assert pin.shares is None

    def test_rejects_existential_rule(self):
        with pytest.raises(ValueError, match="full single-head"):
            compile_rule(_rule("r(X,K) :- p(X)."))

    def test_rejects_multi_head_rule(self):
        with pytest.raises(ValueError, match="full single-head"):
            compile_rule(_rule("r(X), s(X) :- p(X)."))

    def test_describe_is_stable_and_informative(self):
        program, _ = parse_program(TC_SOURCE)
        text = compile_kernels(program).describe()
        assert "kernel program: 2 rule(s)" in text
        assert "pin 0" in text and "pin 1" in text
        assert "probe[e/2|old]" in text  # the old-only recursive pin
        assert "probe[t/2]" in text

    def test_describe_names_fully_bound_steps_member(self):
        program, _ = parse_program(MUTUAL_SOURCE)
        text = compile_kernels(program).describe()
        # mutual(X,Y) :- t(X,Y), t(Y,X): after either pin both variables
        # are bound, so the other atom is a dedup-map lookup — full
        # rows under pin 0, old rows only under pin 1.
        assert "member[t/2]" in text
        assert "member[t/2|old]" in text
        assert "probe[t/2]" in text  # the recursive rule still probes
        pin0, pin1 = compile_rule(_rule("m(X,Y) :- t(X,Y), t(Y,X).")).pins
        for pin in (pin0, pin1):
            (step,) = pin.steps
            assert step.member and step.repeats == ()
            # Every key cell reads the pinned row: the matched row adds
            # nothing the head needs.
            assert step.key == ((0, (ROW, 1)), (1, (ROW, 0)))
        # ... and the head is one of the two stored rows.
        assert (pin0.shares, pin1.shares) == (PINNED, MATCHED)

    def test_describe_names_what_each_head_is(self):
        program, _ = parse_program(MUTUAL_SOURCE)
        lines = compile_kernels(program).describe().splitlines()
        assert "slot" not in "\n".join(lines)
        assert lines[1:] == [
            "  e(X,Y) → t(X,Y): 1 pin(s)",
            "    pin 0 (e/2): project; head = pinned row",
            "  e(X,Y), t(Y,Z) → t(X,Z): 2 pin(s)",
            "    pin 0 (e/2): probe[t/2]; head = (#0, #3)",
            "    pin 1 (t/2): probe[e/2|old]; head = (#2, #1)",
            "  t(X,Y), t(Y,X) → mutual(X,Y): 2 pin(s)",
            "    pin 0 (t/2): member[t/2]; head = pinned row",
            "    pin 1 (t/2): member[t/2|old]; head = matched row",
            "  t(X,Y) → reach(X): 1 pin(s)",
            "    pin 0 (t/2): project; head = (#0)",
        ]
        text = compile_kernels(parse_program(
            "tagged(X,marked) :- e(X,Y), f(Y,Z)."
        )[0]).describe()
        assert "probe[f/2]; head = (#0, marked)" in text


class TestBulkInterning:
    """Satellite: ``TermTable.intern_many`` ≡ the per-term loop."""

    def test_intern_many_matches_intern_loop(self):
        terms = [a, b, a, c, b, Constant("fresh"), a]
        bulk = TermTable()
        loop = TermTable()
        assert bulk.intern_many(terms) == [loop.intern(t) for t in terms]
        assert len(bulk) == len(loop) == 4

    def test_intern_many_reuses_existing_ids(self):
        table = TermTable()
        first = table.intern(a)
        ids = table.intern_many([b, a, b])
        assert ids[1] == first
        assert ids[0] == ids[2]
        assert table.term(ids[0]) == b

    def test_intern_many_empty(self):
        table = TermTable()
        assert table.intern_many([]) == []
        assert len(table) == 0


def _parity(source, store):
    """Kernel result on *store* vs the interpreter on ``instance``."""
    program, database = parse_program(source)
    kernel = seminaive(database, program, store=store)
    interp = seminaive(database, program, store="instance")
    assert kernel.instance.atoms() == interp.instance.atoms()
    assert kernel.rounds == interp.rounds
    assert kernel.derived == interp.derived
    assert kernel.considered == interp.considered
    assert kernel.per_round_considered == interp.per_round_considered
    assert kernel.per_round_derived == interp.per_round_derived
    assert kernel.exec_mode == "kernel"
    assert interp.exec_mode == "interpret"
    assert interp.batches == 0
    return kernel, interp


class TestRuntimeParity:
    """Kernel execution ≡ the interpreter, counts and all."""

    @pytest.mark.parametrize("store", ["columnar", "sharded"])
    def test_transitive_closure(self, store):
        kernel, _ = _parity(TC_SOURCE, store)
        assert kernel.derived == 6
        assert kernel.batches > 0

    def test_body_constants(self):
        _parity(
            """
            e(a,b). e(b,c). e(c,d).
            from_a(Y) :- e(a,Y).
            from_a(Z) :- from_a(Y), e(Y,Z).
            """,
            "columnar",
        )

    def test_repeated_head_variable(self):
        _parity(
            """
            e(a,b). e(b,a). e(b,c).
            loop(X,X) :- e(X,Y), e(Y,X).
            """,
            "columnar",
        )

    def test_within_atom_repeat_and_head_constant(self):
        _parity(
            """
            e(a,a). e(a,b). e(c,c).
            diag(X,marked) :- e(X,X).
            """,
            "columnar",
        )

    def test_cartesian_scan_step(self):
        # No shared variable between the body atoms: the second step
        # has an empty key and runs as a scan (cartesian extension).
        _parity(
            """
            p(a). p(b). q(c). q(d).
            pair(X,Y) :- p(X), q(Y).
            """,
            "columnar",
        )

    def test_mutual_recursion(self):
        _parity(
            """
            start(a). e(a,b). e(b,c). e(c,d).
            even(X) :- start(X).
            odd(Y) :- even(X), e(X,Y).
            even(Y) :- odd(X), e(X,Y).
            """,
            "columnar",
        )

    def test_rule_that_never_fires_interns_no_constants(self):
        program, database = parse_program(
            """
            e(a,b).
            t(X,Y) :- e(X,Y).
            ghost(phantom) :- missing(X).
            """
        )
        result = seminaive(database, program, store="columnar")
        # The interpreter never materializes heads of rules without a
        # body match; the kernel must not intern their constants either.
        assert result.instance.table.id_of(Constant("phantom")) is None

    def test_round_events_match_interpreter(self):
        program, database = parse_program(TC_SOURCE)
        kernel_events = list(
            seminaive_rounds(database, program, store="columnar")
        )
        interp_events = list(
            seminaive_rounds(database, program, store="instance")
        )
        assert len(kernel_events) == len(interp_events)
        for kev, iev in zip(kernel_events, interp_events):
            assert kev.index == iev.index
            assert set(kev.staged) == set(iev.staged)
            assert kev.considered == iev.considered
        assert all(e.exec_mode == "kernel" for e in kernel_events)
        assert all(e.batches > 0 for e in kernel_events[1:])


def _event_parity(source):
    """Per round, the kernels on columnar and sharded ≡ the interpreter:
    staged sets and ``considered``; batches equal across the two
    kernel stores."""
    program, database = parse_program(source)
    reference = list(seminaive_rounds(database, program, store="instance"))
    batches = set()
    for store in ("columnar", "sharded"):
        events = list(seminaive_rounds(database, program, store=store))
        assert len(events) == len(reference), store
        for kev, iev in zip(events, reference):
            assert kev.index == iev.index
            assert set(kev.staged) == set(iev.staged), (store, kev.index)
            assert kev.derived == iev.derived == len(kev.staged)
            assert kev.considered == iev.considered, (store, kev.index)
        batches.add(tuple(event.batches for event in events))
    assert len(batches) == 1 and sum(next(iter(batches))) > 0
    return program


class TestFullyBoundSteps:
    """A step whose key covers every position is a ``members`` lookup
    and answers like the hash probe it replaces."""

    @pytest.mark.parametrize("source, needle", [
        # arity 1
        ("r(a). r(b). s(b). s(c).\n both(X) :- r(X), s(X).",
         "member[s/1]"),
        # a rule constant in the key
        ("e(a,b). e(b,c). e(c,b).\n into_b(X) :- e(X,Y), e(Y,b).",
         "member[e/2]"),
        # a constant no fact carries: never interned, the step is empty
        ("e(a,b). r(a).\n q(X) :- r(X), e(X,nowhere).",
         "member[e/2]"),
        # a repeated variable in the fully bound atom
        ("e(a,b). e(b,b). e(c,a).\n loop_next(X) :- e(X,Y), e(Y,Y).",
         "member[e/2]"),
        # the old-only fully bound step: mutual's second pin, over a
        # relation that grows every round
        (MUTUAL_SOURCE, "member[t/2|old]"),
    ], ids=["arity-1", "rule-constant", "constant-never-interned",
            "repeated-variable", "old-only"])
    def test_parity_with_the_interpreter(self, source, needle):
        program = _event_parity(source)
        assert needle in compile_kernels(program).describe()

    def test_constant_never_interned_matches_nothing(self):
        program, database = parse_program(
            "e(a,b). r(a).\n q(X) :- r(X), e(X,nowhere)."
        )
        result = seminaive(database, program, store="columnar")
        assert result.instance.count("q") == 0
        assert result.instance.table.id_of(Constant("nowhere")) is None

    def test_no_relation_indexes_all_its_positions(self):
        program, database = parse_program(MUTUAL_SOURCE)
        seen = 0
        for event in seminaive_rounds(database, program, store="columnar"):
            store = event.instance
            for predicate, arity in (("e", 2), ("t", 2), ("mutual", 2),
                                     ("reach", 1)):
                for _, part in store.parts(predicate, arity):
                    seen += len(part.indexes)
                    assert all(
                        len(positions) < arity for positions in part.indexes
                    ), (event.index, predicate, sorted(part.indexes))
        assert seen > 0  # the closure's own probes did build indexes
        assert store.count("mutual") > 0


class TestRowJoins:
    """Every pin joins rows: its head rows are built from (row, matched
    row), with no binding, and count what the interpreter counts."""

    @pytest.mark.parametrize("source", [
        TC_SOURCE,
        MUTUAL_SOURCE,
        # a head constant, interned on the rule's first fire
        "e(a,b). e(b,c).\n tagged(X,marked) :- e(X,Y), e(Y,Z).",
        # the head is the pinned row, once per match
        "e(a,b). e(b,c). e(b,d).\n p(X,Y) :- e(X,Y), e(Y,Z).",
        # the head is read off the matched row only
        "r(a). r(b). e(a,c). e(b,d).\n q(Z) :- r(X), e(X,Z).",
        # a membership step under a permuting head
        "e(a,b). e(b,a). e(b,c).\n back(Y,X) :- e(X,Y), e(Y,X).",
        # a repeat inside the matched atom
        "r(a). f(a,b,b). f(a,c,d).\n s(X,Y) :- r(X), f(X,Y,Y).",
        # a key constant in the probe
        "e(a,b). e(b,c). g(b,k,c).\n h(X,Z) :- e(X,Y), g(Y,k,Z).",
    ], ids=["tc", "mutual", "head-constant", "pinned-row", "matched-row",
            "member", "matched-repeat", "key-constant"])
    def test_parity_with_the_interpreter(self, source):
        _event_parity(source)

    def test_unfired_join_interns_no_head_constant(self):
        program, database = parse_program(
            "e(a,b). f(c,d).\n ghost(X,phantom) :- e(X,Y), f(Y,Z)."
        )
        result = seminaive(database, program, store="columnar")
        assert result.instance.count("ghost") == 0
        assert result.instance.table.id_of(Constant("phantom")) is None

    def test_a_head_that_is_a_body_row_shares_its_tuple(self):
        program, database = parse_program(MUTUAL_SOURCE)
        store = seminaive(database, program, store="columnar").instance
        ((_, closure),) = store.parts("t", 2)
        ((_, mutual),) = store.parts("mutual", 2)
        assert mutual.rows
        assert all(row is closure.members[row] for row in mutual.rows)

    def test_a_two_step_head_that_is_the_last_atom_shares_its_tuple(self):
        program, database = parse_program(
            "a(b). a(c). e(b,c). e(c,d). f(c,x). f(d,y). f(d,z).\n"
            "last(Y,Z) :- a(X), e(X,Y), f(Y,Z)."
        )
        # Pin 0 joins e, then f: its head is f's matched row.
        pin = compile_rule(list(program)[0]).pins[0]
        assert [step.predicate for step in pin.steps] == ["e", "f"]
        assert pin.shares == MATCHED
        store = seminaive(database, program, store="columnar").instance
        ((_, f),) = store.parts("f", 2)
        ((_, last),) = store.parts("last", 2)
        assert len(last.rows) == 3
        assert all(row is f.members[row] for row in last.rows)

    def test_no_index_on_a_part_with_no_visible_row(self):
        """Round 1 of the closure probes ``t`` from ``e``'s pin while
        every ``t`` row is this round's own: nothing is visible, so no
        index on ``t`` is built (and kept up by every later append)."""
        program, database = parse_program(TC_SOURCE)
        store = make_store("columnar", database)
        rounds = KernelEvaluator(store, program).rounds()
        try:
            for index, _, _, _ in rounds:
                for _, part in store.parts("t", 2):
                    assert (0,) not in part.indexes, index
        finally:
            rounds.close()
        assert store.count("t") == 6


class TestQueryRead:
    """A CQ on a kernel-capable store reads id rows."""

    QUERIES = (
        "q(X,Z) :- e(X,Y), t(Y,Z).",
        "q(X) :- e(X,Y), t(Z,Y).",
        "q(Y) :- e(X,Y), t(Y,X).",
        "q(X) :- mutual(X,X).",
        "q() :- t(X,Y), t(Y,X).",
    )

    def test_cached_read_equals_the_interpreter(self):
        for store in ("columnar", "sharded"):
            session = Session(store=store)
            session.load(MUTUAL_SOURCE)
            session.query("q(X,Y) :- t(X,Y).").to_set()
            reference = Session(store="instance")
            reference.load(MUTUAL_SOURCE)
            for text in self.QUERIES:
                stream = session.query(text, rewrite="none")
                answers = list(stream)
                assert stream.stats.from_cache, (store, text)
                assert answers == sorted(answers, key=str)
                assert set(answers) == reference.query(text).to_set()

    def test_concurrent_reads_of_one_frozen_fixpoint(self):
        # A cycle with chords: a closure of a few thousand rows, so a
        # cold index build spans many thread switches.
        edges = [(i, (i + 1) % 48) for i in range(48)]
        edges += [(i, (i * 7 + 3) % 48) for i in range(0, 48, 5)]
        program, database = parse_program(
            " ".join(f"e(n{x},n{y})." for x, y in edges) + MUTUAL_RULES
        )
        fixpoint = seminaive(database, program, store="columnar").instance
        fixpoint.freeze()
        queries = [parse_query(text) for text in self.QUERIES]
        expected = [query.evaluate(fixpoint) for query in queries]
        readers = 8
        # Between steps, with every reader parked, the indexes go: each
        # step's readers race the same cold builds.
        barrier = threading.Barrier(readers, action=fixpoint.release_indexes)
        errors = []

        def reader():
            try:
                for step in range(40):
                    barrier.wait(timeout=60)
                    at = step % len(queries)
                    assert query_answers(queries[at], fixpoint) == expected[at]
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestRowMemory:
    """Memory gates: a stored row costs its tuple and its dedup-map
    entry, and sorting an answer block makes no object per row."""

    #: The closure of a path of 120 vertices: 7 260 ``t`` rows.
    PATH = TC_SOURCE.split("\n", 2)[2] + " ".join(
        f"e(n{i}, n{i + 1})." for i in range(120)
    )

    def test_a_saturated_closure_stores_no_object_per_row_but_its_tuple(
        self,
    ):
        program, database = parse_program(self.PATH)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = seminaive(database, program, store="columnar").instance
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = len(store)
        assert rows == 120 + 121 * 120 // 2
        # Measured 106 B a row (the terms and row lists included): the
        # tuple, 56 B, and its share of the dedup map, which holds the
        # tuple as key and value.  A boxed row number per row, as the
        # map once held, measured 132 B.
        assert grown <= 120 * rows, grown / rows

    def test_ordered_answers_sort_with_no_key_object_per_answer(self):
        program, database = parse_program(self.PATH)
        store = seminaive(database, program, store="columnar").instance
        query = parse_query("q(X,Y) :- t(X,Y).")
        ordered_answers(query, store)  # compiles nothing the trace sees
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            block = ordered_answers(query, store)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        answers = len(block)
        assert answers == 121 * 120 // 2
        assert block == sorted(block, key=str)
        # Above the block: the sort's key array, one pointer an answer,
        # and its merge buffer — measured 17 B an answer.  An ``int``
        # key made per row measured 49 B.
        assert peak - after <= 24 * answers, (peak - after) / answers
        assert after - before <= 12 * answers  # the block's row list

class TestDerivedDispatch:
    def test_store_decides_how_rounds_run(self):
        program, database = parse_program(TC_SOURCE)
        for store, ran in (
            ("columnar", "kernel"),
            ("sharded", "kernel"),
            ("instance", "interpret"),
        ):
            assert seminaive(database, program, store=store).exec_mode == ran

    def test_kernel_capable_probe(self):
        # One declaration — the backend class attribute — read through
        # every form a ``store=`` argument takes.
        assert ShardedStore.kernel_capable
        assert not Instance.kernel_capable
        for capable in ("columnar", "sharded", make_store("columnar"),
                        ShardedStore(), sharded_store_factory(1 << 16)):
            assert kernel_capable(capable)
        for incapable in ("instance", Instance()):
            assert not kernel_capable(incapable)
        with pytest.raises(ValueError, match="unknown storage backend"):
            kernel_capable("parquet")

    def test_evaluator_rejects_incapable_store(self):
        program, _ = parse_program(TC_SOURCE)
        with pytest.raises(ValueError, match="interned"):
            KernelEvaluator(Instance(), program)


class TestPlanReportsExec:
    def test_columnar_plans_kernels(self):
        session = Session(store="columnar")
        session.load(TC_SOURCE)
        plan = session.plan("q(X,Y) :- t(X,Y).")
        assert plan.exec_mode == "kernel"
        assert "interned id arrays" in plan.exec_note
        assert "exec    : kernel" in plan.explain()

    def test_instance_plans_the_interpreter(self):
        session = Session(store="instance")
        session.load(TC_SOURCE)
        plan = session.plan("q(X,Y) :- t(X,Y).")
        assert plan.exec_mode == "interpret"
        assert "no interned id-array surface" in plan.exec_note

    def test_non_datalog_engine_interprets_on_any_store(self):
        session = Session(store="columnar")
        session.load(
            """
            person(a).
            knows(X,K) :- person(X).
            """
        )
        plan = session.plan("q(X) :- person(X).")
        assert plan.exec_mode == "interpret"
        assert "no compiled kernel path" in plan.exec_note


class TestStatsEcho:
    """Satellite: exec observability through stream stats + server."""

    def test_stream_stats_report_kernel_dispatch(self):
        session = Session(store="columnar")
        session.load(TC_SOURCE)
        stream = session.query("q(X,Y) :- t(X,Y).")
        answers = stream.to_set()
        assert len(answers) == 6
        assert stream.stats.exec_mode == "kernel"
        assert stream.stats.kernel_batches > 0

    def test_interpreter_reports_zero_batches(self):
        session = Session(store="instance")
        session.load(TC_SOURCE)
        stream = session.query("q(X,Y) :- t(X,Y).")
        stream.to_set()
        assert stream.stats.exec_mode == "interpret"
        assert stream.stats.kernel_batches == 0

    def test_cache_hit_reports_no_exec_mode(self):
        session = Session(store="columnar")
        session.load(TC_SOURCE)
        session.query("q(X,Y) :- t(X,Y).").to_set()
        cached = session.query("q(X,Y) :- t(X,Y).")
        cached.to_set()
        # A reused materialization ran no engine at all — neither core
        # can claim it.
        assert cached.stats.from_cache
        assert cached.stats.exec_mode == ""

    def test_server_echoes_exec_mode(self):
        service = ReasoningService(TC_SOURCE, store="columnar")
        result = service.query("q(X,Y) :- t(X,Y).")
        assert result.stats["exec_mode"] == "kernel"
        assert result.stats["kernel_batches"] > 0
        again = service.query("q(X,Y) :- t(X,Y).")
        assert again.stats["from_cache"]
        assert again.stats["exec_mode"] == ""
