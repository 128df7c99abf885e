"""Unit tests for the incremental view-maintenance subsystem."""

import pytest

from repro.api import Session
from repro.api.program import compile_program
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant, Variable
from repro.datalog.seminaive import seminaive
from repro.incremental import (
    ChangeSet,
    FixpointMaintainer,
    unmaintainable_reason,
)
from repro.lang.parser import parse_program
from repro.storage import BACKENDS

X, Y = Variable("X"), Variable("Y")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def f(predicate, *names):
    return Atom(predicate, tuple(Constant(n) for n in names))


TC_SOURCE = """
    e(a,b). e(b,c).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""

#: Adds a non-recursive stratum on top of the recursive one.
LAYERED_SOURCE = TC_SOURCE + """
    reach(X) :- t(X,Y).
"""


class TestChangeSet:
    def test_net_last_wins(self):
        changes = ChangeSet.of(inserts=[f("e", "a", "b")]) \
            .ops + ChangeSet.retracting([f("e", "a", "b")]).ops
        net_in, net_out = ChangeSet(changes).net()
        assert net_in == ()
        assert net_out == (f("e", "a", "b"),)

    def test_parse_signs_comments_and_bare_atoms(self):
        changes = ChangeSet.parse(
            "# comment\n+e(a,b).\n- e(b,c).\ne(c,d)\n\n"
        )
        assert changes.inserts == (f("e", "a", "b"), f("e", "c", "d"))
        assert changes.retracts == (f("e", "b", "c"),)

    def test_parse_rejects_non_ground(self):
        with pytest.raises(ValueError, match="line 1.*ground"):
            ChangeSet.parse("+e(X,b).")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            ChangeSet.parse("+e(a,b).\n+e(a,.\n")

    def test_bool_and_describe(self):
        assert not ChangeSet()
        changes = ChangeSet.of(
            inserts=[f("e", "a", "b")], retracts=[f("e", "b", "c")]
        )
        assert changes and len(changes) == 2
        assert changes.describe() == "ChangeSet(+1, -1)"


class TestFixpointMaintainer:
    def _maintainer(self, source, store="instance"):
        program, database = parse_program(source)
        compiled = compile_program(program)
        fixpoint = seminaive(
            database, compiled.analysis.normalized, store=store
        ).instance
        return compiled, database, fixpoint, FixpointMaintainer(
            compiled, fixpoint
        )

    def test_rejects_existential_programs(self):
        program, _ = parse_program("p(a). r(X,Z) :- p(X).")
        compiled = compile_program(program)
        assert unmaintainable_reason(compiled.analysis) is not None
        with pytest.raises(ValueError, match="not maintainable"):
            FixpointMaintainer(compiled, Database())

    @pytest.mark.parametrize("store", BACKENDS)
    def test_insert_fast_path(self, store):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            TC_SOURCE, store
        )
        edb.add(f("e", "c", "d"))
        stats = maintainer.apply([f("e", "c", "d")], [], edb=edb)
        assert f("t", "a", "d") in fixpoint
        assert stats.derived_added == 3  # t(c,d), t(b,d), t(a,d)
        assert stats.removed == 0

    @pytest.mark.parametrize("store", BACKENDS)
    def test_retract_dred(self, store):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            TC_SOURCE, store
        )
        edb.discard(f("e", "b", "c"))
        stats = maintainer.apply([], [f("e", "b", "c")], edb=edb)
        assert set(fixpoint) == {f("e", "a", "b"), f("t", "a", "b")}
        assert stats.overdeleted == 2  # t(b,c), t(a,c)
        assert stats.removed == 3      # plus the EDB fact itself
        assert stats.strata_maintained >= 1

    def test_rederivation_keeps_alternative_proofs(self):
        compiled, edb, fixpoint, maintainer = self._maintainer("""
            e(a,b). g(a,b).
            t(X,Y) :- e(X,Y).
            t(X,Y) :- g(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        edb.discard(f("e", "a", "b"))
        stats = maintainer.apply([], [f("e", "a", "b")], edb=edb)
        assert f("t", "a", "b") in fixpoint
        assert stats.rederived >= 1

    def test_nonrecursive_stratum_drops_unsupported(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            LAYERED_SOURCE
        )
        edb.discard(f("e", "b", "c"))
        stats = maintainer.apply([], [f("e", "b", "c")], edb=edb)
        assert f("reach", "b") not in fixpoint
        assert f("reach", "a") in fixpoint  # t(a,b) still supports it
        # e's removal reaches both strata: t, then reach on top of it.
        assert stats.strata_maintained == 2
        # reach(a) and reach(b) were both candidates; one came back.
        assert stats.overdeleted == 4 and stats.rederived == 1

    def test_nonrecursive_fact_keeps_second_derivation(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            LAYERED_SOURCE
        )
        # reach(a) is supported by t(a,b) and t(a,c); killing one
        # support must not delete it.
        edb.add(f("e", "a", "c"))
        maintainer.apply([f("e", "a", "c")], [], edb=edb)
        edb.discard(f("e", "a", "b"))
        maintainer.apply([], [f("e", "a", "b")], edb=edb)
        assert f("reach", "a") in fixpoint
        assert f("t", "a", "c") in fixpoint
        edb.discard(f("e", "a", "c"))
        maintainer.apply([], [f("e", "a", "c")], edb=edb)
        assert f("reach", "a") not in fixpoint

    def test_nonrecursive_fact_asserted_and_derived(self):
        """A fact of a derived predicate that is also EDB-asserted
        survives losing its rule support, and survives losing the
        assertion while a rule still derives it."""
        compiled, edb, fixpoint, maintainer = self._maintainer(
            LAYERED_SOURCE + "reach(b)."
        )
        edb.discard(f("e", "b", "c"))
        maintainer.apply([], [f("e", "b", "c")], edb=edb)
        assert f("t", "b", "c") not in fixpoint
        assert f("reach", "b") in fixpoint  # still asserted
        edb.add(f("e", "b", "c"))
        maintainer.apply([f("e", "b", "c")], [], edb=edb)
        edb.discard(f("reach", "b"))
        stats = maintainer.apply([], [f("reach", "b")], edb=edb)
        assert f("reach", "b") in fixpoint  # still derived from t(b,c)
        assert stats.removed == 0 and stats.rederived == 1
        edb.discard(f("e", "b", "c"))
        maintainer.apply([], [f("e", "b", "c")], edb=edb)
        assert f("reach", "b") not in fixpoint

    def test_edb_assertion_of_derived_predicate(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(TC_SOURCE)
        # assert t(c,a) directly, then retract it again
        edb.add(f("t", "c", "a"))
        maintainer.apply([f("t", "c", "a")], [], edb=edb)
        assert f("t", "a", "a") in fixpoint  # derived through the cycle
        edb.discard(f("t", "c", "a"))
        maintainer.apply([], [f("t", "c", "a")], edb=edb)
        program, database = parse_program(TC_SOURCE)
        assert set(fixpoint) == set(seminaive(database, program).instance)

    def test_mixed_batch_is_one_pass(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            LAYERED_SOURCE
        )
        edb.discard(f("e", "a", "b"))
        edb.add(f("e", "a", "c"))
        stats = maintainer.apply(
            [f("e", "a", "c")], [f("e", "a", "b")], edb=edb
        )
        expected, _ = parse_program(
            "e(a,c). e(b,c)." + TC_SOURCE.split(".", 2)[2]
        )
        assert stats.edb_inserted == 1 and stats.edb_retracted == 1
        assert f("t", "a", "c") in fixpoint
        assert f("t", "a", "b") not in fixpoint
        assert f("reach", "a") in fixpoint


class TestSessionApply:
    def test_watermark_bumps_once_per_effective_batch(self):
        session = Session()
        session.load(TC_SOURCE)
        version = session.edb_version
        report = session.apply(
            ChangeSet.of(inserts=[f("e", "c", "d")],
                         retracts=[f("e", "a", "b")])
        )
        assert session.edb_version == version + 1
        assert report.version == session.edb_version

    def test_noop_batch_does_not_bump(self):
        session = Session()
        session.load(TC_SOURCE)
        version = session.edb_version
        report = session.apply(
            ChangeSet.of(inserts=[f("e", "a", "b")],   # already present
                         retracts=[f("e", "z", "z")])  # never present
        )
        assert session.edb_version == version
        assert not report.maintained and not report.fallbacks

    def test_cancelling_ops_are_noop(self):
        session = Session()
        session.load(TC_SOURCE)
        version = session.edb_version
        session.apply(ChangeSet((("+", f("e", "c", "d")),
                                 ("-", f("e", "c", "d")))))
        assert session.edb_version == version

    def test_retract_facts_convenience(self):
        session = Session()
        session.load(TC_SOURCE)
        assert session.retract_facts([f("e", "b", "c")]) == 1
        assert session.answers("q(X,Y) :- t(X,Y).") == {(a, b)}

    def test_consecutive_batches_keep_maintaining(self):
        """An entry carried across one batch is carried across the
        next one too (insert then retract), and still serves reads."""
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(X,Y) :- t(X,Y).").to_set()
        report = session.apply(inserts=[f("e", "c", "d")])
        assert report.maintained
        second = session.apply(retracts=[f("e", "a", "b")])
        assert second.maintained
        stream = session.query("q(X,Y) :- t(X,Y).")
        assert stream.to_set() == frozenset(
            {(b, c), (c, d), (b, d)}
        )
        assert stream.stats.from_cache

    @pytest.mark.parametrize(
        "change, expected",
        [
            ({"inserts": [f("e", "d", "z")]}, 10),
            ({"retracts": [f("e", "c", "d")]}, 3),
        ],
    )
    def test_stream_straddling_apply_cannot_poison_cache(
        self, change, expected
    ):
        """A stream opened before an update and drained after it holds
        a fixpoint of the *old* EDB; it must not be filed under the new
        one and served to later queries."""
        session = Session()
        session.load(TC_SOURCE + "e(c,d).")
        query = "q(X,Y) :- t(X,Y)."
        stream = session.query(query, rewrite="none")
        stream.first(1)
        session.apply(**change)
        stream.to_set()  # saturates for the pre-update EDB
        fresh = session.query(query, rewrite="none")
        scratch = Session()
        scratch.compile(session.programs[0].program)
        scratch.add_facts(session.edb)
        assert fresh.to_set() == scratch.query(query).to_set()
        assert fresh.count() == expected
        again = session.query(query, rewrite="none")
        assert again.to_set() == fresh.to_set()
        assert again.stats.from_cache

    def test_per_store_and_method_entries_all_maintained(self):
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(X,Y) :- t(X,Y).", method="datalog").to_set()
        session.query("q(X,Y) :- t(X,Y).", method="network").to_set()
        report = session.apply(inserts=[f("e", "c", "d")])
        assert len(report.maintained) == 2
        for method in ("datalog", "network"):
            stream = session.query("q(X,Y) :- t(X,Y).", method=method)
            assert (a, d) in stream.to_set()
            assert stream.stats.from_cache

    def test_plan_reports_maintainability(self):
        session = Session()
        session.load(TC_SOURCE)
        plan = session.plan("q(X,Y) :- t(X,Y).")
        assert plan.maintainable
        assert "incremental" in plan.explain()
        existential = Session()
        existential.load("p(a). r(X,Z) :- p(X).")
        plan = existential.plan("q(X) :- r(X,Y).", method="chase")
        assert not plan.maintainable
        assert "recompute on EDB change" in plan.explain()

    def test_report_describe_mentions_strata(self):
        session = Session()
        session.load(LAYERED_SOURCE)
        session.query("q(X) :- reach(X).").to_set()
        report = session.apply(retracts=[f("e", "b", "c")])
        text = report.describe()
        assert "maintained datalog×instance fixpoint" in text
        assert "DRed over 2 stratum/strata" in text
