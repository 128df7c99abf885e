"""Unit tests for the certain-answer facade."""

from itertools import chain

import pytest

from repro.analysis import is_warded
from repro.api import Session, certain_answers
from repro.core.terms import Constant
from repro.lang.parser import parse_program, parse_query
from repro.reasoning.answers import (
    UnsupportedProgramError,
    is_certain_answer,
    proof_tree_method,
    stream_proof_tree_answers,
)

a, b, c = Constant("a"), Constant("b"), Constant("c")


def run(query, database, program, **options):
    """The answer set plus the run's ``StreamStats`` — how it was
    obtained (``method``, ``probe_answers``, ``decided_tuples``)."""
    session = Session()
    session.add_facts(database)
    stream = session.query(query, program=program, **options)
    return set(stream.to_set()), stream.stats


class TestAutoDispatch:
    def test_datalog_route(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        answers, stats = run(query, database, program)
        assert stats.method == "datalog"
        assert answers == {(a, b), (b, c), (a, c)}

    def test_pwl_route(self):
        program, database = parse_program("""
            p(c).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        query = parse_query("q(X) :- r(X,Y).")
        answers, stats = run(query, database, program)
        assert stats.method == "pwl"
        assert answers == {(c,)}

    def test_ward_route(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            s(X) :- p(X).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
            t(X,K) :- s(X).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        answers, stats = run(query, database, program)
        assert stats.method == "ward"
        assert answers == {(a, b), (b, c), (a, c)}

    def test_chase_route_for_non_warded_terminating(self):
        # Two dangerous variables in different body atoms (no ward), but
        # the chase terminates: answers are exact via the chase route.
        program, database = parse_program("""
            p(a).
            r(X,K) :- p(X).
            s(Y,X) :- r(X,Y).
            t(Y,W) :- s(Y,X), r(X,W).
        """)
        assert not is_warded(program)
        query = parse_query("q() :- t(X,W).")
        answers, stats = run(query, database, program)
        assert stats.method == "chase"
        assert answers == {()}


class TestMethodSelection:
    def test_unknown_method(self):
        program, database = parse_program("e(a,b). t(X,Y) :- e(X,Y).")
        query = parse_query("q(X,Y) :- t(X,Y).")
        with pytest.raises(ValueError, match="unknown method"):
            certain_answers(query, database, program, method="bogus")

    def test_explicit_pwl_on_datalog(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        datalog = certain_answers(query, database, program, method="datalog")
        pwl = certain_answers(query, database, program, method="pwl")
        assert datalog == pwl


class TestIsCertainAnswer:
    def test_positive_and_negative(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        assert is_certain_answer(query, (a, c), database, program)
        assert not is_certain_answer(query, (c, a), database, program)

    def test_outside_ward_raises(self):
        from repro.tiling.reduction import tiling_program

        program = tiling_program()
        _, database = parse_program("tile(t1).")
        query = parse_query("q(X) :- tile(X).")
        with pytest.raises(UnsupportedProgramError):
            is_certain_answer(query, (Constant("t1"),), database, program)


class TestPerTupleDriver:
    """``stream_proof_tree_answers``, the one per-tuple driver, called
    directly rather than through a plan."""

    def test_public_hooks_are_exported(self):
        # The probe/candidate split is a public, stable contract.
        from repro.reasoning.abstraction import star_abstraction
        from repro.reasoning.answers import candidate_tuples, probe_instance

        program, database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        probe = probe_instance(database, program)
        assert query.evaluate(probe)  # the probe settles the positives

        abstraction = star_abstraction(database, program.single_head())
        pool = candidate_tuples(query, abstraction)
        assert certain_answers(query, database, program) <= pool

    def test_ward_method_on_non_pwl(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        method = proof_tree_method(program)
        assert method == "ward"
        blocks = list(stream_proof_tree_answers(
            query, database, program, method=method, probe_atoms=0
        ))
        # Nothing settled: every answer is decided, a block of one each.
        assert all(len(block) == 1 for block in blocks)
        assert set(chain.from_iterable(blocks)) == {(a, b), (b, c), (a, c)}

    def test_rejects_unwarded(self):
        from repro.tiling.reduction import tiling_program

        program = tiling_program()
        _, database = parse_program("tile(t1).")
        query = parse_query("q(X) :- tile(X).")
        with pytest.raises(UnsupportedProgramError, match="warded"):
            proof_tree_method(program)
        with pytest.raises(ValueError, match="warded"):
            list(stream_proof_tree_answers(
                query, database, program, method="pwl"
            ))


class TestProbeInteraction:
    def test_probe_settles_positives(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        answers, stats = run(
            query, database, program, method="pwl", probe_depth=5
        )
        # the terminating restricted chase finds all three answers —
        # every row of q over the abstraction — so no decision runs.
        assert stats.probe_answers == 3
        assert stats.decided_tuples == 0
        assert answers == {(a, b), (b, c), (a, c)}

    def test_boolean_query_answers(self):
        program, database = parse_program("""
            p(c).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        query = parse_query("q() :- r(X,Y), p(Y).")
        assert certain_answers(query, database, program, method="pwl") == {()}


def exact(text):
    from repro.reasoning.abstraction import exact_predicates

    return exact_predicates(parse_program(text)[0])


class TestExactPredicates:
    """``exact_predicates``: the derived predicates no existential rule
    reaches, on which the star abstraction holds the certain atoms."""

    def test_an_edb_only_predicate_is_read_not_returned(self):
        assert exact("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z).") == {"t"}

    def test_recursion_through_an_existential_is_not_exact(self):
        assert exact("""
            r(X,W) :- p(X).
            p(Y) :- r(X,Y).
            t(X,Y) :- e(X,Y).
        """) == {"t"}

    def test_a_full_rule_reading_an_invented_predicate_is_not_exact(self):
        assert exact("""
            s(X,W) :- e(X,Y).
            h(X,Y) :- e(X,Y).
            t(X,Z) :- s(X,Y), h(Y,Z).
        """) == {"h"}

    def test_multi_head_rules_are_judged_on_the_normal_form(self):
        # The full multi-head rule is split through Aux_0, which is
        # exact with both heads; the existential one's Aux_1 is not, so
        # neither of its heads is — not even u, which holds no null.
        assert exact("t(X,Y), u(X) :- e(X,Y).") == {"t", "u", "Aux_0"}
        assert exact("""
            t(X,Y), u(X) :- e(X,Y).
            r(X,W), s(X) :- e(X,Y).
        """) == {"t", "u", "Aux_0"}


class TestSeededProbe:
    """The probe starts from D plus the abstraction's exact rows and
    chases only the rest of Σ, within the same atom budget."""

    SOURCE = """
        e(a,b). e(b,c). p(a).
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
        r(X,W) :- p(X).
        p(Y) :- r(X,Y).
    """

    def test_zero_budget_sends_every_candidate_to_a_decision(self):
        program, database = parse_program(self.SOURCE)
        query = parse_query("q(X,Y) :- t(X,Y).")
        answers, stats = run(
            query, database, program, method="pwl", probe_atoms=0
        )
        assert answers == {(a, b), (b, c), (a, c)}
        assert stats.probe_answers == 0
        assert stats.decided_tuples == 3

    def test_the_seed_settles_an_exact_query(self):
        program, database = parse_program(self.SOURCE)
        query = parse_query("q(X,Y) :- t(X,Y).")
        answers, stats = run(query, database, program, method="pwl")
        assert answers == {(a, b), (b, c), (a, c)}
        assert (stats.probe_answers, stats.decided_tuples) == (3, 0)

    def test_the_seed_never_takes_the_probe_past_the_budget(self):
        from repro.reasoning.answers import probe_instance

        program, database = parse_program(self.SOURCE)
        assert program.is_single_head()  # no firing adds two atoms
        sizes = []
        for budget in range(12):
            probe = probe_instance(database, program, 3, budget)
            assert set(database) <= set(probe)
            assert len(probe) <= max(len(database), budget), budget
            sizes.append(len(probe))
        # D, then the seed's three t rows, then the chase of r/p.
        assert sizes[:6] == [3, 3, 3, 3, 4, 5]
        assert sizes[-1] > 6

    def test_an_exact_query_is_read_off_the_abstraction(self):
        from repro.reasoning.abstraction import STAR
        from repro.reasoning.answers import probe_instance

        program, database = parse_program(self.SOURCE)
        probe = probe_instance(database, program)
        # No chased rule reads t: its rows stay in the abstraction, and
        # the probe still answers for them.
        assert probe.store.count("t") == 0
        assert {(x.value, y.value) for x, y in (
            atom.args for atom in probe if atom.predicate == "t"
        )} == {("a", "b"), ("b", "c"), ("a", "c")}
        assert probe.predicates == {"t"}
        assert not any(STAR in atom.args for atom in probe)
        query = parse_query("q(X,Y) :- t(X,Y).")
        answers, stats = run(query, database, program, method="pwl")
        assert answers == {(a, b), (b, c), (a, c)}
        assert (stats.probe_answers, stats.decided_tuples) == (3, 0)

    #: ``SOURCE`` plus an existential rule — a chased one — reading t.
    READER = SOURCE + "u(Y,W) :- t(X,Y)."

    def test_a_mixed_query_settles_as_before(self):
        # (answers, probe_answers, decided_tuples) as measured before
        # the exact rows were read in place, at both budgets.
        program, database = parse_program(self.READER)
        query = parse_query("q(X) :- p(X), t(X,Y).")
        for budget, settled in ((20000, (1, 0)), (0, (0, 1))):
            answers, stats = run(
                query, database, program, method="pwl", probe_atoms=budget
            )
            assert answers == {(a,)}
            assert (stats.probe_answers, stats.decided_tuples) == settled

    def test_a_chased_rule_reading_an_exact_predicate_still_sees_it(self):
        from repro.chase import chase
        from repro.chase.termination import DepthPolicy
        from repro.reasoning.answers import probe_instance

        program, database = parse_program(self.READER)
        probe = probe_instance(database, program)
        assert probe.count("t") == 3  # seeded: u's rule reads it
        query = parse_query("q(X) :- u(X,W).")
        plain = chase(
            database, program, variant="restricted",
            policy=DepthPolicy(3), max_atoms=20000,
        )
        assert query.evaluate(probe) == query.evaluate(plain.instance)
        assert query.evaluate(probe) == {(b,), (c,)}
        answers, stats = run(query, database, program, method="pwl")
        assert answers == {(b,), (c,)}
        assert (stats.probe_answers, stats.decided_tuples) == (2, 0)


class TestCandidateCompleteness:
    """The candidates are q over the star abstraction, so the answer
    set must be complete for *any* probe budget (regression: candidates
    drawn from a truncated probe silently dropped answers)."""

    def setup_method(self):
        self.program, self.database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        self.query = parse_query("q(X,Y) :- t(X,Y).")
        self.truth = {
            (a, b), (b, c), (a, c),
            (Constant("c"), Constant("d")),
            (b, Constant("d")), (a, Constant("d")),
        }

    def test_zero_probe_budget_still_complete(self):
        answers = certain_answers(
            self.query, self.database, self.program,
            method="pwl", probe_atoms=0,
        )
        assert answers == self.truth

    def test_tiny_probe_budget_still_complete(self):
        for probe_atoms in (1, 4, 7):
            answers = certain_answers(
                self.query, self.database, self.program,
                method="pwl", probe_atoms=probe_atoms,
            )
            assert answers == self.truth, probe_atoms

    def test_ward_engine_same_guarantee(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        answers = certain_answers(
            query, database, program, method="ward", probe_atoms=0,
        )
        assert answers == {(a, b), (b, c), (a, c)}

    def test_star_constant_never_a_candidate(self):
        # Value invention puts ⋆ into the abstraction at r[1]; it must
        # never surface as an answer candidate.
        program, database = parse_program("""
            p(c).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        query = parse_query("q(Y) :- r(X,Y).")
        answers = certain_answers(
            query, database, program, method="pwl", probe_atoms=0,
        )
        assert answers == set()


class TestForcedMethodOutsideItsClass:
    """A forced method's class check is a property of Σ: it fires once,
    before the first answer, whatever the data (regression: the check
    ran inside the first per-tuple decision, so a probe that settled
    every candidate returned answers with no error, and otherwise the
    error arrived after the probe's rows had streamed out)."""

    CLOSURE = "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z)."  # warded, not PWL
    QUERY = "q(X,Y) :- t(X,Y)."

    def stream(self, facts, rules=CLOSURE, query=QUERY, **options):
        session = Session()
        session.load(facts + rules)
        return session.query(query, **options)

    @pytest.mark.parametrize(
        "facts",
        ["e(a,b). e(b,c). e(c,a).",  # the probe settles all 9 candidates
         "e(a,b). e(b,c)."],         # 3 probe answers, then a decision
        ids=["probe-settles-all", "probe-then-decision"],
    )
    def test_pwl_on_non_pwl_raises_before_any_row(self, facts):
        rows = []
        with pytest.raises(ValueError, match="not piece-wise linear"):
            for row in self.stream(facts, method="pwl"):
                rows.append(row)
        assert rows == []

    def test_first_one_raises(self):
        with pytest.raises(ValueError, match="not piece-wise linear"):
            self.stream("e(a,b). e(b,c). e(c,a).", method="pwl").first(1)

    def test_ward_on_non_warded_raises_before_any_row(self):
        rules = "r(X,K) :- p(X). s(Y,X) :- r(X,Y). t(Y,W) :- s(Y,X), r(X,W)."
        rows = []
        with pytest.raises(ValueError, match="not warded"):
            for row in self.stream(
                "p(a).", rules, "q(X) :- p(X).", method="ward"
            ):
                rows.append(row)
        assert rows == []

    def test_check_membership_false_still_streams(self):
        stream = self.stream(
            "e(a,b). e(b,c).", method="pwl", check_membership=False
        )
        assert set(stream.to_set()) >= {(a, b), (b, c), (a, c)}
