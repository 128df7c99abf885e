"""Unit tests for the work/span model (Section 7, future work (1))."""

import pytest

from repro.parallel import greedy_makespan, round_work_span, speedup_curve


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
