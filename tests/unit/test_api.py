"""Unit tests for the ``repro.api`` session layer."""

import pytest

import repro.api.program as program_module
from repro.api import (
    AnswerStream,
    CompiledProgram,
    Planner,
    Session,
    certain_answers,
    compile_program,
    execute_plan,
)
from repro.core.terms import Constant
from repro.lang.parser import parse_program, parse_query
from repro.reasoning.answers import UnsupportedProgramError

a, b, c = Constant("a"), Constant("b"), Constant("c")

TC_SOURCE = """
    e(a,b). e(b,c).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""

EXISTENTIAL_SOURCE = """
    p(c).
    r(X,Z) :- p(X).
    p(Y) :- r(X,Y).
"""

TC_ANSWERS = {(a, b), (b, c), (a, c)}


class TestCompiledProgram:
    def test_analysis_runs_exactly_once(self):
        program, _ = parse_program(TC_SOURCE)
        compiled = CompiledProgram(program)
        assert compiled.analysis_runs == 0
        for _ in range(5):
            _ = compiled.analysis
        assert compiled.analysis_runs == 1

    def test_analysis_matches_direct_calls(self):
        program, _ = parse_program(EXISTENTIAL_SOURCE)
        analysis = CompiledProgram(program).analysis
        assert analysis.warded
        assert analysis.piecewise_linear
        assert not analysis.full
        assert analysis.program_class == "WARD ∩ PWL"

    def test_compile_once_across_ten_queries(self, monkeypatch):
        """≥10 session queries classify/stratify exactly once (the
        acceptance criterion of the api_redesign issue)."""
        calls = {"warded": 0, "strata": 0}
        real_warded = program_module.is_warded
        real_strata = program_module.compute_strata

        def counting_warded(program):
            calls["warded"] += 1
            return real_warded(program)

        def counting_strata(program):
            calls["strata"] += 1
            return real_strata(program)

        monkeypatch.setattr(program_module, "is_warded", counting_warded)
        monkeypatch.setattr(program_module, "compute_strata", counting_strata)

        session = Session()
        compiled = session.load(TC_SOURCE)
        queries = [
            "q(X,Y) :- t(X,Y).",
            "q(X) :- t(a,X).",
            "q(X) :- t(X,c).",
            "q() :- t(a,c).",
            "q(X,Y) :- e(X,Y).",
            "q(X) :- e(X,Y), t(Y,Z).",
            "q(X,Z) :- t(X,Y), t(Y,Z).",
            "q(Y) :- t(a,Y), e(Y,Z).",
            "q() :- e(a,b).",
            "q(X) :- t(X,X).",
            "q(X,Y) :- t(X,Y), e(X,Y).",
        ]
        assert len(queries) >= 10
        for text in queries:
            session.query(text).to_set()
        assert compiled.analysis_runs == 1
        assert calls["warded"] == 1
        assert calls["strata"] == 1

    def test_compile_program_idempotent(self):
        program, _ = parse_program(TC_SOURCE)
        compiled = compile_program(program)
        assert compile_program(compiled) is compiled


class TestPlanner:
    def test_auto_dispatch_matches_legacy_routes(self):
        planner = Planner()
        for source, expected in (
            (TC_SOURCE, "datalog"),
            (EXISTENTIAL_SOURCE, "pwl"),
        ):
            program, _ = parse_program(source)
            method, _ = planner.resolve(compile_program(program))
            assert method == expected

    def test_unknown_method_rejected(self):
        program, _ = parse_program(TC_SOURCE)
        with pytest.raises(ValueError, match="unknown method"):
            Planner().plan(
                compile_program(program),
                parse_query("q(X,Y) :- t(X,Y)."),
                method="bogus",
            )

    def test_unknown_store_rejected_with_choices(self):
        program, _ = parse_program(TC_SOURCE)
        with pytest.raises(ValueError, match="instance, columnar, sharded"):
            Planner().plan(
                compile_program(program),
                parse_query("q(X,Y) :- t(X,Y)."),
                store="bogus",
            )

    def test_explain_is_stable(self):
        """Same inputs → byte-identical explain(), across planner and
        session instances."""
        query_text = "q(X,Y) :- t(X,Y)."
        renderings = set()
        for _ in range(3):
            session = Session(store="columnar")
            session.load(TC_SOURCE, name="tc")
            renderings.add(session.explain(query_text))
        assert len(renderings) == 1
        text = renderings.pop()
        assert "engine  : datalog" in text
        assert "store   : columnar" in text
        assert "class Datalog" in text
        assert "why:" in text and "pipeline:" in text

    def test_explain_repeated_on_same_plan(self):
        session = Session()
        session.load(TC_SOURCE)
        plan = session.plan("q(X,Y) :- t(X,Y).")
        assert plan.explain() == plan.explain()
        assert str(plan) == plan.explain()


class TestAnswerStream:
    def test_lazy_until_pulled(self):
        session = Session()
        session.load(TC_SOURCE)
        stream = session.query("q(X,Y) :- t(X,Y).")
        assert not stream.started
        assert not stream.exhausted

    def test_first_does_not_exhaust(self):
        session = Session()
        session.load(TC_SOURCE)
        stream = session.query("q(X,Y) :- t(X,Y).")
        first = stream.first(1)
        assert len(first) == 1
        assert first[0] in TC_ANSWERS
        assert stream.started and not stream.exhausted

    def test_replayable_iteration(self):
        session = Session()
        session.load(TC_SOURCE)
        stream = session.query("q(X,Y) :- t(X,Y).")
        assert list(stream) == list(stream)
        assert set(stream.to_set()) == TC_ANSWERS

    def test_partial_then_full_agree(self):
        session = Session()
        session.load(TC_SOURCE)
        stream = session.query("q(X,Y) :- t(X,Y).")
        head = stream.first(2)
        full = stream.to_sorted()
        assert full[: len(head)] != [] and set(head) <= set(full)
        assert stream.exhausted

    def test_strict_chase_raises_at_stream_end(self):
        program, database = parse_program("""
            p(a).
            r(X,K) :- p(X).
            s(Y,X) :- r(X,Y).
            t(Y,W) :- s(Y,X), r(X,W).
            p(W) :- t(Y,W), t(W,Y).
        """)
        # not warded and (with tiny limits) non-terminating: the stream
        # must raise on exhaustion, not silently truncate.
        session = Session()
        compiled = session.compile(program)
        session.add_facts(database)
        stream = session.query(
            "q() :- t(X,W).", program=compiled,
            method="chase", max_atoms=3,
        )
        with pytest.raises(UnsupportedProgramError):
            stream.to_set()

    def test_strict_chase_outside_ward_says_so(self):
        program, database = parse_program("""
            p(a).
            r(X,K) :- p(X).
            s(Y,X) :- r(X,Y).
            t(Y,W) :- s(Y,X), r(X,W).
            p(W) :- t(Y,W), t(W,Y).
        """)
        session = Session()
        session.compile(program)
        session.add_facts(database)
        stream = session.query("q() :- t(X,W).", method="chase", max_atoms=3)
        with pytest.raises(UnsupportedProgramError, match="outside WARD"):
            stream.to_set()

    def test_strict_chase_inside_ward_names_the_limit(self):
        # A warded program forced onto the chase: the message names the
        # limit the run hit, not a class the program is in.
        session = Session()
        session.load(EXISTENTIAL_SOURCE)
        for limit, value in (("max_atoms", 5), ("max_steps", 4)):
            stream = session.query(
                "q(X) :- r(X,Y).", method="chase", **{limit: value}
            )
            with pytest.raises(UnsupportedProgramError) as raised:
                stream.to_set()
            message = str(raised.value)
            assert f"{limit}={value}" in message
            assert "outside WARD" not in message

    def test_chase_at_a_limit_with_nothing_left_to_fire_answers(self):
        # The only trigger's head already holds: stopping at max_atoms
        # leaves nothing the chase could fire, so the run saturated.
        session = Session()
        session.load("a(c). r(c,d). r(X,Z) :- a(X).")
        stream = session.query(
            "q(X,Y) :- r(X,Y).", method="chase", max_atoms=2
        )
        assert stream.to_set() == {(c, Constant("d"))}
        assert stream.stats.saturated


class TestSession:
    def test_query_equals_legacy_certain_answers(self):
        session = Session()
        session.load(TC_SOURCE)
        program, database = parse_program(TC_SOURCE)
        query = parse_query("q(X,Y) :- t(X,Y).")
        assert set(session.query(query).to_set()) == certain_answers(
            query, database, program
        )

    def test_fixpoint_reused_across_queries(self):
        session = Session()
        session.load(TC_SOURCE)
        first = session.query("q(X,Y) :- t(X,Y).")
        first.to_set()
        assert not first.stats.from_cache
        # With the demand rewrite disabled, the bound query reuses the
        # unbound query's saturated materialization.
        second = session.query("q(X) :- t(a,X).", rewrite="none")
        assert second.to_set() == frozenset({(b,), (c,)})
        assert second.stats.from_cache
        # Under rewrite=auto the same bound query is *planned* with a
        # magic rewriting, but this version already holds the full
        # fixpoint: the read is served from it and no demand fixpoint
        # is built.  stats.rewrite reports what ran.
        third = session.query("q(X) :- t(a,X).")
        assert third.to_set() == frozenset({(b,), (c,)})
        assert third.plan.rewrite == "magic" and third.plan.auto_rewrite
        assert third.stats.rewrite == "none"
        assert third.stats.from_cache and third.stats.exec_mode == ""
        assert third.stats.derived == 0 and third.stats.rounds == 0
        assert session.cache.stats()["fixpoints"] == 1

    def test_add_facts_upgrades_cached_fixpoint(self):
        """EDB updates no longer destroy saturated materializations:
        the cached fixpoint is maintained in place (repro.incremental)
        and the next query is a cache hit with the *new* answers."""
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(X,Y) :- t(X,Y).").to_set()
        _, extra = parse_program("e(c,d).")
        session.add_facts(extra)
        stream = session.query("q(X,Y) :- t(X,Y).")
        answers = stream.to_set()
        assert stream.stats.from_cache  # upgraded, not recomputed
        d = Constant("d")
        assert (c, d) in answers and (a, d) in answers

    def test_retraction_maintains_cached_fixpoint(self):
        session = Session()
        session.load(TC_SOURCE)
        assert session.answers("q(X,Y) :- t(X,Y).") == TC_ANSWERS
        _, gone = parse_program("e(b,c).")
        report = session.apply(retracts=list(gone))
        assert report.dropped == 1
        assert report.maintained and not report.fallbacks
        stream = session.query("q(X,Y) :- t(X,Y).")
        assert stream.to_set() == frozenset({(a, b)})
        assert stream.stats.from_cache

    def test_existential_program_falls_back_on_update(self):
        session = Session()
        # Existential but terminating: the chase saturates and caches
        # its materialization, which is outside the maintainable
        # fragment (nulls have no recorded provenance).
        session.load("""
            p(a). p(b).
            r(X,K) :- p(X).
        """)
        session.query("q(X) :- r(X,Y).", method="chase").to_set()
        _, extra = parse_program("p(zz).")
        report = session.apply(inserts=list(extra))
        assert report.fallbacks and not report.maintained
        assert "existential" in report.fallbacks[0][1]
        stream = session.query("q(X) :- r(X,Y).", method="chase")
        answers = stream.to_set()
        assert not stream.stats.from_cache  # recomputed, by design
        assert (Constant("zz"),) in answers

    def test_abstraction_cached_for_proof_tree_engines(self):
        session = Session()
        compiled = session.load(EXISTENTIAL_SOURCE)
        before = session.abstraction_for(compiled)
        session.query("q(X) :- r(X,Y).", method="pwl").to_set()
        assert session.abstraction_for(compiled) is before

    def test_proof_tree_path_pays_per_program_and_per_version_once(
        self, monkeypatch
    ):
        """Two queries of the e2e ``pwl_reason`` shape on one session:
        what depends only on Σ or on (D, Σ) is computed once, and an
        update recomputes exactly the (D, Σ) part."""
        import repro.reasoning.abstraction as abstraction_module
        import repro.reasoning.answers as answers_module
        import repro.reasoning.pwl_ward as pwl_module
        from repro.benchsuite import generate_iwarded

        calls = {}

        def count(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(answers_module, "probe_instance")
        count(abstraction_module, "star_abstraction")
        count(pwl_module, "is_warded")
        count(pwl_module, "is_piecewise_linear")

        scenario = generate_iwarded(
            seed=7, flavour="pwl", vertices=8, edges=12
        )
        session = Session()
        compiled = session.compile(scenario.program)
        session.add_facts(scenario.database)
        queries = ("q(X,Y) :- iw_t(X,Y).", "q(X) :- iw_P(X).")

        def run():
            # probe_atoms=0: the probe settles nothing, so every row of q
            # over the abstraction goes to the proof-tree search
            streams = [
                session.query(q, method="pwl", probe_atoms=0)
                for q in queries
            ]
            return [len(stream.to_set()) for stream in streams], streams

        counts, streams = run()
        assert streams[0].stats.probe_answers == 0
        assert streams[0].stats.decided_tuples >= counts[0] > 1
        assert compiled.analysis_runs == 1
        assert calls == {
            "probe_instance": 1, "star_abstraction": 1,
            "is_warded": 2, "is_piecewise_linear": 2,  # once per stream
        }
        assert session.cache.stats()["probes"] == 1

        (fact,) = parse_program("iw_e(zz0, zz1).")[1]
        assert session.apply(inserts=[fact]).inserted == (fact,)
        after, _ = run()
        assert after[0] == counts[0] + 1
        assert calls["probe_instance"] == 2
        assert calls["star_abstraction"] == 2
        assert compiled.analysis_runs == 1

    def test_requires_a_program(self):
        with pytest.raises(ValueError, match="no program loaded"):
            Session().query("q(X) :- t(X,Y).")

    def test_store_validated(self):
        with pytest.raises(ValueError, match="instance, columnar, sharded"):
            Session(store="bogus")

    def test_answers_convenience(self):
        session = Session(store="columnar")
        session.load(TC_SOURCE)
        assert session.answers("q(X,Y) :- t(X,Y).") == TC_ANSWERS

    def test_rejects_shared_factstore_instance(self):
        from repro.storage import make_store

        with pytest.raises(ValueError, match="backend name or a factory"):
            Session(store=make_store("columnar"))

    def test_policy_suppressed_chase_does_not_poison_cache(self):
        """A run altered by a live collaborator (termination policy)
        must neither be served from nor stored into the fixpoint cache
        (regression: it used to be cached as saturated, making a later
        plain query return the EDB-only answers)."""
        from repro.chase.termination import TerminationPolicy

        class SuppressAll(TerminationPolicy):
            def should_fire(self, trigger, produced, instance):
                return False

        session = Session()
        session.load(TC_SOURCE)
        suppressed = session.query(
            "q(X,Y) :- t(X,Y).",
            method="chase", policy=SuppressAll(), strict=False,
        )
        assert suppressed.to_set() == frozenset()
        plain = session.query("q(X,Y) :- t(X,Y).", method="chase")
        assert set(plain.to_set()) == TC_ANSWERS
        assert not plain.stats.from_cache


class TestExecutePlan:
    def test_execute_without_session(self):
        program, database = parse_program(TC_SOURCE)
        plan = Planner().plan(
            compile_program(program), parse_query("q(X,Y) :- t(X,Y).")
        )
        stream = execute_plan(plan, database)
        assert isinstance(stream, AnswerStream)
        assert set(stream.to_set()) == TC_ANSWERS

    def test_proof_tree_stats_populated(self):
        program, database = parse_program(TC_SOURCE)
        plan = Planner().plan(
            compile_program(program),
            parse_query("q(X,Y) :- t(X,Y)."),
            method="pwl",
            probe_depth=5,
        )
        stream = execute_plan(plan, database)
        assert set(stream.to_set()) == TC_ANSWERS
        assert stream.stats.probe_answers == 3

    def test_rounds_and_events_populated(self):
        program, database = parse_program(TC_SOURCE)
        compiled = compile_program(program)

        datalog = execute_plan(
            Planner().plan(
                compiled, parse_query("q(X,Y) :- t(X,Y)."), method="datalog"
            ),
            database,
        )
        assert set(datalog.to_set()) == TC_ANSWERS
        # Chain a→b→c closes in 2 staging rounds plus the empty round
        # that witnesses the fixpoint.
        assert datalog.stats.rounds == 3

        chase_stream = execute_plan(
            Planner().plan(
                compiled, parse_query("q(X,Y) :- t(X,Y)."), method="chase"
            ),
            database,
        )
        assert set(chase_stream.to_set()) == TC_ANSWERS
        assert chase_stream.stats.events == 3  # one firing per t-fact


class TestTopLevelExports:
    """The public surface is reachable from the package root."""

    def test_session_layer_surfaces_at_root(self):
        import repro

        assert repro.Session is Session
        from repro.api import AnswerStream
        assert repro.AnswerStream is AnswerStream

    def test_incremental_layer_surfaces_at_root(self):
        import repro
        from repro.incremental import ChangeSet

        assert repro.ChangeSet is ChangeSet

    def test_dir_lists_lazy_names(self):
        import repro

        listed = dir(repro)
        for name in ("Session", "AnswerStream", "ChangeSet", "api",
                     "incremental"):
            assert name in listed, name

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError, match="frobnicate"):
            repro.frobnicate
