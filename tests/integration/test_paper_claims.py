"""The paper's headline claims, as executable assertions.

One test per claim, so a failed reproduction points at the exact claim
it breaks.  EXPERIMENTS.md references these tests as the per-claim
verification index.
"""


from repro.analysis.levels import node_width_bound_pwl
from repro.analysis.linearization import linearize
from repro.analysis.piecewise import is_piecewise_linear
from repro.analysis.wardedness import is_warded
from repro.benchsuite import classify_corpus, default_corpus
from repro.core.terms import Constant
from repro.lang.parser import parse_program, parse_query
from repro.reasoning.pwl_ward import decide_pwl_ward
from repro.tiling.reduction import reduction_class_profile, reduction_holds_within
from repro.tiling.system import TilingSystem


class TestSection12Claims:
    def test_tc_linearization_example(self):
        # The paper's own example of eliminating non-linear recursion.
        program, _ = parse_program("""
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        result = linearize(program)
        assert result.piecewise_linear
        bodies = sorted(
            tuple(sorted(a.predicate for a in t.body)) for t in result.program
        )
        assert bodies == [("e",), ("e", "t")]

    def test_recursion_statistics_bands(self):
        stats = classify_corpus(default_corpus(scale=2))
        assert 0.55 <= stats.pwl_fraction <= 0.85     # paper: ~70%
        assert stats.direct_fraction >= 0.40          # paper: ~55%
        assert stats.linearizable_fraction >= 0.05    # paper: ~15%


class TestTheorem42:
    def test_linear_proof_trees_bounded_by_f(self):
        # Accepting runs never exceed the node-width polynomial.
        program, database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        bound = node_width_bound_pwl(query, program.single_head())
        decision = decide_pwl_ward(
            query, (Constant("a"), Constant("d")), database, program
        )
        assert decision.accepted
        assert decision.stats.max_width <= max(bound, query.width())


class TestTheorem51:
    def test_reduction_is_pwl_not_warded(self):
        pwl, warded = reduction_class_profile()
        assert pwl is True
        assert warded is False

    def test_reduction_faithful_on_bounded_instances(self):
        solvable = TilingSystem.make(
            tiles={"a", "b", "r"}, left={"a", "b"}, right={"r"},
            horizontal={("a", "r"), ("b", "r")},
            vertical={("a", "b"), ("r", "r"), ("a", "a"), ("b", "b")},
            start="a", finish="b",
        )
        unsolvable = TilingSystem.make(
            tiles={"a", "b", "r"}, left={"a", "b"}, right={"r"},
            horizontal={("a", "r"), ("b", "r")},
            vertical={("a", "a"), ("r", "r")},
            start="a", finish="b",
        )
        assert reduction_holds_within(solvable, 3, 3) == (True, True)
        assert reduction_holds_within(unsolvable, 3, 4) == (False, False)


class TestTheorem63:
    def test_pwl_ward_equals_pwl_datalog_on_example(self):
        from repro.datalog.seminaive import datalog_answers
        from repro.expressiveness.translation import pwl_to_datalog

        program, database = parse_program("""
            e(a,b). e(b,c). e(c,a).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = pwl_to_datalog(query, program, width_bound=3)
        assert rewriting.program.is_full()
        assert is_piecewise_linear(rewriting.program)
        from repro.api import certain_answers

        assert datalog_answers(
            rewriting.query, database, rewriting.program
        ) == certain_answers(query, database, program, method="pwl")


class TestTheorem66:
    def test_program_expressiveness_separation(self):
        from repro.expressiveness.separation import separation_witness
        from repro.api import certain_answers

        witness = separation_witness()
        q1_answers = certain_answers(
            witness.q1, witness.database, witness.program, method="pwl"
        )
        q2_answers = certain_answers(
            witness.q2, witness.database, witness.program, method="pwl"
        )
        assert q1_answers == {()} and q2_answers == set()


class TestExample33:
    def test_class_membership(self):
        from repro.benchsuite.dbpedia import example_33_program

        program = example_33_program()
        assert is_warded(program)
        assert is_piecewise_linear(program)
