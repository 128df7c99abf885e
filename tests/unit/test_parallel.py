"""Unit tests for the parallel execution layer (Section 7, future work (1))."""

import pytest

from repro.api import certain_answers
from repro.core.terms import Constant
from repro.lang.parser import parse_program, parse_query
from repro.parallel import (
    greedy_makespan,
    parallel_certain_answers,
    round_work_span,
    speedup_curve,
)

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


class TestGreedyMakespan:
    def test_single_worker_sums(self):
        assert greedy_makespan([3, 1, 2], 1) == 6

    def test_enough_workers_gives_max(self):
        assert greedy_makespan([3, 1, 2], 3) == 3
        assert greedy_makespan([3, 1, 2], 10) == 3

    def test_two_workers_balance(self):
        # LPT: 5 | 4+2 → makespan 6
        assert greedy_makespan([5, 4, 2], 2) == 6

    def test_empty_costs(self):
        assert greedy_makespan([], 4) == 0.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="positive"):
            greedy_makespan([1], 0)


class TestSpeedupCurve:
    def test_monotone_speedup(self):
        costs = [1] * 16
        points = speedup_curve(costs, (1, 2, 4, 8))
        speedups = [p.speedup for p in points]
        assert speedups == sorted(speedups)
        assert points[0].speedup == 1.0
        assert points[-1].speedup == pytest.approx(8.0)

    def test_saturation_at_span(self):
        # One giant task dominates: speedup caps at work / span = 2.
        costs = [10, 5, 5]
        points = speedup_curve(costs, (1, 2, 100))
        assert points[-1].speedup == pytest.approx(2.0)

    def test_efficiency_at_one_worker(self):
        points = speedup_curve([2, 2], (1,))
        assert points[0].efficiency == 1.0


class TestRoundWorkSpan:
    def test_work_and_span(self):
        work, span = round_work_span([[3, 1], [2, 2, 2]])
        assert work == 10
        assert span == 5  # 3 + 2

    def test_empty_rounds_skipped(self):
        work, span = round_work_span([[], [4]])
        assert (work, span) == (4, 4)


def tc_setup():
    program, database = parse_program("""
        e(a,b). e(b,c). e(c,d).
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)
    query = parse_query("q(X,Y) :- t(X,Y).")
    return program, database, query


class TestParallelCertainAnswers:
    def test_public_hooks_are_exported(self):
        # The executor must not reach into answers-module internals: the
        # probe/candidate split is a public, stable contract.
        from repro.reasoning.answers import candidate_tuples, probe_instance

        program, database, query = tc_setup()
        probe = probe_instance(database, program)
        assert query.evaluate(probe)  # the probe settles the positives

        from repro.reasoning.abstraction import star_abstraction

        abstraction = star_abstraction(database, program.single_head())
        pool = candidate_tuples(query, abstraction)
        assert certain_answers(query, database, program) <= pool

    def test_equals_certain_answers_across_backends(self):
        # parallel_certain_answers ≡ certain_answers, whatever storage
        # backend the sequential facade materializes with.
        from repro.storage import BACKENDS

        program, database, query = tc_setup()
        parallel = parallel_certain_answers(
            query, database, program, workers=3
        )
        for store in BACKENDS:
            for method in ("auto", "pwl", "ward"):
                assert parallel == certain_answers(
                    query, database, program, method=method, store=store
                ), (store, method)

    def test_equals_sequential_facade(self):
        program, database, query = tc_setup()
        sequential = certain_answers(query, database, program, method="pwl")
        for workers in (1, 2, 4):
            parallel = parallel_certain_answers(
                query, database, program, workers=workers
            )
            assert parallel == sequential

    def test_report_profile(self):
        program, database, query = tc_setup()
        report = parallel_certain_answers(
            query, database, program, workers=2, report=True
        )
        assert report.method == "pwl"
        assert report.workers == 2
        assert report.answers == certain_answers(
            query, database, program, method="pwl"
        )
        assert report.total_work >= report.span >= 0

    def test_ward_method_on_non_pwl(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        parallel = parallel_certain_answers(
            query, database, program, workers=3
        )
        assert parallel == {(a, b), (b, c), (a, c)}

    def test_rejects_unwarded(self):
        from repro.tiling.reduction import tiling_program

        program = tiling_program()
        _, database = parse_program("tile(t1).")
        query = parse_query("q(X) :- tile(X).")
        with pytest.raises(ValueError, match="warded"):
            parallel_certain_answers(query, database, program)

    def test_rejects_bad_worker_count(self):
        program, database, query = tc_setup()
        with pytest.raises(ValueError, match="positive"):
            parallel_certain_answers(query, database, program, workers=0)
