"""Unit tests for :class:`repro.api.cache.FixpointCache` — the one
fixpoint cache `Session` and the server's snapshot versions share."""

from repro.api import Session
from repro.api.cache import MAGIC_FIXPOINT_LIMIT, FixpointCache
from repro.api.execution import execute_plan
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant

TC_SOURCE = """
    e(a,b). e(b,c).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""
FULL = "q(X,Y) :- t(X,Y)."


def f(predicate, *names):
    return Atom(predicate, tuple(Constant(n) for n in names))


def answers(plan, edb, cache):
    """Run *plan* over *edb* with *cache*; (answer strings, from_cache)."""
    stream = execute_plan(plan, edb, cache=cache)
    rows = {tuple(map(str, row)) for row in stream.to_set()}
    return rows, stream.stats.from_cache


def warm(source=TC_SOURCE, query=FULL, **plan_kwargs):
    """A planning session, a plan, and a standalone cache holding the
    plan's fixpoint over a private copy of the EDB."""
    session = Session()
    session.load(source)
    plan = session.plan(query, **plan_kwargs)
    edb = Database(session.edb)
    cache = FixpointCache(edb)
    rows, from_cache = answers(plan, edb, cache)
    assert not from_cache
    return session, plan, edb, cache, rows


class TestMagicBound:
    def _point_plans(self, count):
        session = Session()
        facts = " ".join(f"e(n{i},m{i})." for i in range(count))
        session.load(facts + "\nt(X,Y) :- e(X,Y).")
        plans = [
            session.plan(f"q(Y) :- t(n{i},Y).") for i in range(count)
        ]
        assert all(plan.rewrite == "magic" for plan in plans)
        return session, plans

    def test_reread_entry_survives_a_full_turnover(self):
        session, plans = self._point_plans(MAGIC_FIXPOINT_LIMIT + 2)
        cache = session.cache
        kept, dropped, *newer = plans
        for plan in (kept, dropped):
            answers(plan, session.edb, cache)
        for plan in newer:  # exactly MAGIC_FIXPOINT_LIMIT newer entries
            assert cache.get_fixpoint(kept) is not None  # refresh on hit
            answers(plan, session.edb, cache)
        assert cache.stats()["fixpoints"] == MAGIC_FIXPOINT_LIMIT
        assert cache.get_fixpoint(kept) is not None
        assert cache.get_fixpoint(dropped) is None

    def test_unrewritten_entries_do_not_count_against_the_bound(self):
        session, plans = self._point_plans(MAGIC_FIXPOINT_LIMIT + 1)
        full = session.plan("q(X,Y) :- t(X,Y).", rewrite="none")
        answers(full, session.edb, session.cache)
        # With the full fixpoint held, ``auto`` plans read it: no demand
        # fixpoint is ever built beside it.
        for plan in plans:
            assert answers(plan, session.edb, session.cache)[1]
        assert session.cache.stats()["fixpoints"] == 1
        # Forced magic still builds one per seed, bounded beside it.
        for plan in plans:
            forced = session.plan(plan.query, rewrite="magic")
            assert not answers(forced, session.edb, session.cache)[1]
        assert session.cache.get_fixpoint(full) is not None
        assert session.cache.stats()["fixpoints"] == MAGIC_FIXPOINT_LIMIT + 1

    def test_hits_and_misses_are_counted(self):
        _, plan, _, cache, _ = warm()
        assert cache.stats() == {
            "fixpoints": 1, "abstractions": 0, "probes": 0,
            "hits": 0, "misses": 1,
        }
        cache.get_fixpoint(plan)
        assert cache.stats()["hits"] == 1


class TestAutoReadsWhatTheVersionHolds:
    """``rewrite="auto"`` plans demand; whether it *runs* is decided per
    version by what the cache it is handed already holds."""

    BOUND = "q(Y) :- t(a,Y)."
    ROWS = {("b",), ("c",)}

    def _run(self, session, cache, **plan_kwargs):
        plan = session.plan(self.BOUND, **plan_kwargs)
        stream = execute_plan(plan, cache.edb, cache=cache)
        rows = {tuple(map(str, row)) for row in stream.to_set()}
        assert rows == self.ROWS
        return plan, stream.stats

    def test_cold_auto_runs_magic_and_caches_under_its_token(self):
        session = Session()
        session.load(TC_SOURCE)
        cache = FixpointCache(Database(session.edb))
        plan, stats = self._run(session, cache)
        assert plan.rewrite == "magic" and plan.auto_rewrite
        assert stats.rewrite == "magic" and not stats.from_cache
        assert stats.derived > 0 and stats.exec_mode == "interpret"
        assert cache.stats()["fixpoints"] == 1
        assert cache.get_fixpoint(plan) is not None  # under the magic key
        assert cache.get_fixpoint(plan, unrewritten=True) is None
        # The repeat is a hit on that demand fixpoint.
        _, again = self._run(session, cache)
        assert again.rewrite == "magic" and again.from_cache
        # ... which an update drops with the one recorded wording.
        _, _, fallbacks = cache.advance((), (), cache.edb)
        ((label, reason),) = fallbacks
        assert "×magic fixpoint" in label and "demand-specific" in reason

    def test_warm_auto_reads_the_full_fixpoint(self):
        session, full, _, cache, _ = warm()
        plan, stats = self._run(session, cache)
        assert plan.rewrite == "magic" and plan.auto_rewrite
        assert stats.rewrite == "none" and stats.from_cache
        assert stats.exec_mode == "" and stats.derived == 0
        assert stats.saturated
        assert cache.stats()["fixpoints"] == 1  # no demand fixpoint built
        held = cache.get_fixpoint(plan, unrewritten=True)
        assert held is cache.get_fixpoint(full)

    def test_forced_magic_never_consults_the_full_fixpoint(self):
        session, _, _, cache, _ = warm()
        before = cache.stats()
        plan, stats = self._run(session, cache, rewrite="magic")
        assert plan.rewrite == "magic" and not plan.auto_rewrite
        assert stats.rewrite == "magic" and not stats.from_cache
        assert stats.derived > 0
        after = cache.stats()
        assert after["fixpoints"] == 2
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"] + 1,
        )

    def test_each_read_counts_once(self):
        session = Session()
        session.load(TC_SOURCE)
        cache = FixpointCache(Database(session.edb))

        def counts():
            stats = cache.stats()
            return stats["hits"], stats["misses"]

        self._run(session, cache)  # cold auto: one miss, not two
        assert counts() == (0, 1)
        self._run(session, cache)  # its demand fixpoint: one hit
        assert counts() == (1, 1)
        answers(session.plan(FULL), cache.edb, cache)  # full: one miss
        assert counts() == (1, 2)
        self._run(session, cache)  # warm auto: one hit, no miss
        assert counts() == (2, 2)

    def test_uncacheable_plans_are_left_alone(self):
        """A live collaborator keeps a plan out of the cache both ways."""
        session, _, _, cache, _ = warm()
        plan = session.plan(self.BOUND, guide=None)
        assert plan.auto_rewrite
        assert cache.get_fixpoint(plan, unrewritten=True) is None


class TestAdvance:
    def test_copy_leaves_the_old_state_exact(self):
        _, plan, edb, cache, before = warm()
        old_store = cache.get_fixpoint(plan)
        old_atoms = set(old_store)
        new_edb = Database(edb)
        new_edb.add(f("e", "c", "d"))
        successor, maintained, fallbacks = cache.advance(
            (f("e", "c", "d"),), (), new_edb
        )
        assert len(maintained) == 1 and not fallbacks
        # The old object still answers the old state, from cache.
        assert cache.get_fixpoint(plan) is old_store
        assert set(old_store) == old_atoms
        assert answers(plan, edb, cache) == (before, True)
        # The new object answers the new state, from its own store.
        assert successor is not cache and successor.edb is new_edb
        assert successor.get_fixpoint(plan) is not old_store
        after, from_cache = answers(plan, new_edb, successor)
        assert from_cache
        assert after == before | {("a", "d"), ("b", "d"), ("c", "d")}

    def test_in_place_hands_over_the_store(self):
        _, plan, edb, cache, before = warm()
        store = cache.get_fixpoint(plan)
        edb.add(f("e", "c", "d"))
        second, maintained, _ = cache.advance(
            (f("e", "c", "d"),), (), edb
        )
        assert len(maintained) == 1
        assert second.get_fixpoint(plan) is store
        assert f("t", "a", "d") in store
        assert cache.stats()["fixpoints"] == 0  # handed over, not shared
        edb.discard(f("e", "a", "b"))
        third, maintained, _ = second.advance(
            (), (f("e", "a", "b"),), edb
        )
        assert len(maintained) == 1
        assert third.get_fixpoint(plan) is store
        assert second.stats()["fixpoints"] == 0
        rows, from_cache = answers(plan, edb, third)
        assert from_cache
        assert rows == {("b", "c"), ("c", "d"), ("b", "d")}

    def test_magic_fixpoint_is_dropped_with_the_one_wording(self):
        _, plan, edb, cache, _ = warm(query="q(Y) :- t(a,Y).")
        assert plan.rewrite == "magic"
        edb.add(f("e", "c", "d"))
        successor, maintained, fallbacks = cache.advance(
            (f("e", "c", "d"),), (), edb
        )
        assert not maintained
        ((label, reason),) = fallbacks
        assert "×magic fixpoint" in label
        assert "demand-specific" in reason
        assert successor.get_fixpoint(plan) is None

    def test_unmaintainable_fixpoint_carries_the_analysis_reason(self):
        from repro.incremental import unmaintainable_reason

        session, plan, edb, cache, _ = warm(
            source="p(a). r(X,Z) :- p(X).",
            query="q(X) :- r(X,Y).",
            method="chase",
        )
        edb.add(f("p", "b"))
        successor, maintained, fallbacks = cache.advance(
            (f("p", "b"),), (), edb
        )
        assert not maintained
        ((label, reason),) = fallbacks
        assert label.startswith("chase×instance fixpoint")
        assert reason == unmaintainable_reason(plan.program.analysis)
        assert successor.get_fixpoint(plan) is None

    def test_abstractions_are_not_carried(self):
        session, plan, edb, cache, _ = warm()
        first = cache.abstraction_for(plan.program)
        assert cache.abstraction_for(plan.program) is first
        successor, _, _ = cache.advance((), (), edb)
        assert successor.stats()["abstractions"] == 0


class TestProbes:
    """``probe_for``: one chase probe per program, for one EDB state."""

    def test_same_setting_is_one_object(self):
        _, plan, _, cache, _ = warm()
        probe = cache.probe_for(plan.program, 3, 20000)
        assert cache.probe_for(plan.program, 3, 20000) is probe
        assert f("t", "a", "c") in probe

    def test_a_new_setting_replaces_the_previous(self):
        _, plan, _, cache, _ = warm()
        probes = [
            cache.probe_for(plan.program, depth, atoms)
            for depth, atoms in ((3, 20000), (2, 20000), (3, 3))
        ]
        assert cache.stats()["probes"] == 1
        assert len(probes[2]) == 3 < len(probes[0])  # the budget took
        assert cache.probe_for(plan.program, 3, 3) is probes[2]
        assert cache.probe_for(plan.program, 3, 20000) is not probes[0]

    def test_advance_drops_it_and_leaves_the_predecessor_exact(self):
        _, plan, edb, cache, _ = warm()
        probe = cache.probe_for(plan.program, 3, 20000)
        before = set(probe)
        new_edb = Database(edb)
        new_edb.add(f("e", "c", "d"))
        successor, _, _ = cache.advance(
            (f("e", "c", "d"),), (), new_edb
        )
        assert successor.stats()["probes"] == 0
        # A reader admitted under the old version keeps an exact probe.
        assert cache.probe_for(plan.program, 3, 20000) is probe
        assert set(probe) == before
        assert f("t", "a", "d") in successor.probe_for(plan.program, 3, 20000)

    def test_two_programs_keep_a_slot_each(self):
        from repro.api import compile_program
        from repro.lang.parser import parse_program

        _, plan, _, cache, _ = warm()
        other = compile_program(parse_program("s(X) :- e(X,Y).")[0])
        first = cache.probe_for(plan.program, 3, 20000)
        second = cache.probe_for(other, 3, 20000)
        assert cache.stats()["probes"] == 2
        assert cache.probe_for(plan.program, 3, 20000) is first
        assert cache.probe_for(other, 3, 20000) is second

    def test_racing_first_calls_get_one_object(self):
        import sys
        import threading

        _, plan, _, cache, _ = warm()
        barrier = threading.Barrier(8)
        got = []

        def call():
            barrier.wait(timeout=10)
            got.append(cache.probe_for(plan.program, 3, 20000))

        threads = [threading.Thread(target=call) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8 and all(probe is got[0] for probe in got)
        assert cache.stats()["probes"] == 1


class TestCheckpointRoundTrip:
    def test_restored_cache_answers_its_first_query_from_cache(self):
        _, plan, edb, cache, before = warm()
        records = cache.records()
        assert [r.method for r in records] == ["datalog"]
        assert set(records[0].atoms) == set(cache.get_fixpoint(plan))

        restarted = Session()
        restarted.load(TC_SOURCE)
        fresh_plan = restarted.plan(FULL)
        fresh = FixpointCache(restarted.edb)
        fresh.restore(records, fresh_plan.program, "instance")
        assert answers(fresh_plan, restarted.edb, fresh) == (before, True)

    def test_magic_entries_are_not_persisted(self):
        _, _, _, cache, _ = warm(query="q(Y) :- t(a,Y).")
        assert cache.stats()["fixpoints"] == 1
        assert cache.records() == []

    def test_other_store_choice_is_skipped(self):
        _, plan, _, cache, _ = warm()
        fresh = FixpointCache(Database())
        fresh.restore(cache.records(), plan.program, "columnar")
        assert fresh.stats()["fixpoints"] == 0


class TestIgnoredOptionsDoNotSplitTheFixpoint:
    """A ``datalog`` plan keeps only what its engine receives — nothing
    — so a budget the engine never sees cannot key a second copy."""

    def test_four_budgets_one_fixpoint_three_hits(self):
        session = Session()
        session.load(TC_SOURCE)
        rounds = []
        for budget in (1, 2, 3, 4):
            stream = session.query(FULL, max_steps=budget)
            assert len(stream.to_set()) == 3
            rounds.append((stream.stats.rounds, stream.stats.from_cache))
        assert rounds[0][0] > 1 and not rounds[0][1]  # ran to its fixpoint
        assert rounds[1:] == [(0, True)] * 3
        assert session.cache.stats() == {
            "fixpoints": 1, "abstractions": 0, "probes": 0,
            "hits": 3, "misses": 1,
        }

    def test_service_maintains_one_copy_across_an_update(self):
        from repro.server import ReasoningService

        service = ReasoningService(TC_SOURCE)
        for budget in (1, 2, 3, 4, 5):
            service.query(FULL, rewrite="none", max_atoms=budget)
        assert service.stats()["head_caches"]["fixpoints"] == 1
        update = service.apply("+e(c,d).")
        assert update.migrated == 1 and not update.fallbacks
        assert service.stats()["head_caches"]["fixpoints"] == 1
        result = service.query(FULL, rewrite="none", max_atoms=6)
        assert result.stats["from_cache"] and len(result.answers) == 6

    def test_explain_names_the_ignored_options(self):
        session = Session()
        session.load(TC_SOURCE)
        plan = session.plan(FULL, max_steps=2, max_atoms=9)
        assert plan.method == "datalog" and plan.engine_kwargs == {}
        (line,) = [
            line for line in plan.explain().splitlines() if "ignored" in line
        ]
        assert line.endswith(
            "datalog engine takes no such option): max_atoms, max_steps"
        )
        assert "ignored" not in session.explain(FULL)
        # Other engines receive theirs, untouched.
        chase = session.plan(FULL, method="chase", max_atoms=9)
        assert chase.engine_kwargs == {"max_atoms": 9}
        assert "ignored" not in chase.explain()

