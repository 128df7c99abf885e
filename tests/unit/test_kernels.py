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
)
from repro.kernels.compiler import CONST, SLOT
from repro.lang.parser import parse_program
from repro.server.service import ReasoningService
from repro.storage import (
    ColumnarStore,
    DeltaOverlay,
    ShardedStore,
    TermTable,
    sharded_store_factory,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")

TC_SOURCE = """
    e(a,b). e(b,c). e(c,d).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""


def _rule(text):
    program, _ = parse_program(text)
    return list(program)[0]


class TestCompiler:
    def test_tc_rule_layout(self):
        kernel = compile_rule(_rule("t(X,Z) :- e(X,Y), t(Y,Z)."))
        assert kernel.num_slots == 3
        assert kernel.head_predicate == "t"
        assert kernel.head_arity == 2
        assert all(kind == SLOT for kind, _ in kernel.head)
        # One pin plan per body position, each with one join step for
        # the other atom.
        assert len(kernel.pins) == 2
        for pin in kernel.pins:
            assert len(pin.steps) == 1

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
        step = kernel.pins[0].steps[0]
        # After pinning e(X,Y) both X and Y are bound, so the second
        # atom probes on both positions and binds nothing new.
        assert len(step.key) == 2
        assert step.binds == ()
        assert all(kind == SLOT for _, (kind, _) in step.key)

    def test_within_atom_repeat(self):
        kernel = compile_rule(_rule("r(X) :- e(X,X)."))
        pin = kernel.pins[0]
        assert pin.repeats == ((1, 0),)
        assert len(pin.binds) == 1

    def test_constants_land_in_consts_and_keys(self):
        kernel = compile_rule(_rule("r(Y) :- e(a,Y), t(Y,b)."))
        pin0 = kernel.pins[0]
        assert pin0.consts == ((0, a),)
        step = pin0.steps[0]
        kinds = {kind for _, (kind, _) in step.key}
        # t(Y, b): Y is bound (slot), b is a constant key source.
        assert kinds == {SLOT, CONST}

    def test_head_constants(self):
        kernel = compile_rule(_rule("r(X,c) :- e(X,Y)."))
        assert kernel.head[0][0] == SLOT
        assert kernel.head[1] == (CONST, c)

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
        assert ColumnarStore.kernel_capable and ShardedStore.kernel_capable
        assert not Instance.kernel_capable
        assert not DeltaOverlay.kernel_capable
        for capable in ("columnar", "sharded", ColumnarStore(),
                        ShardedStore(), sharded_store_factory(1 << 16)):
            assert kernel_capable(capable)
        for incapable in ("instance", Instance(),
                          DeltaOverlay(ColumnarStore())):
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
