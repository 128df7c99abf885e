"""Unit tests for :class:`repro.api.stream.AnswerStream` driven by hand-
made engines: bulk drains and per-item pulls keep one contract."""

import dataclasses

import pytest

from repro.api.stream import AnswerStream, StreamStats
from repro.core.terms import Constant


def rows(n):
    return [(Constant(i),) for i in range(n)]


class Engine:
    """A generator factory that counts what it handed out and may fail
    after *fail_after* rows."""

    def __init__(self, n, fail_after=None):
        self.n = n
        self.fail_after = fail_after
        self.pulled = 0
        self.closed = False

    def __call__(self):
        try:
            for index, row in enumerate(rows(self.n)):
                if index == self.fail_after:
                    raise RuntimeError("engine broke")
                self.pulled += 1
                yield row
        finally:
            self.closed = True


def stream_over(engine):
    stream = AnswerStream(None, engine, StreamStats(method="test"))
    released = []
    stream.on_release(lambda: released.append(True))
    return stream, released


@pytest.mark.parametrize("drain", ["to_set", "to_sorted", "count"])
def test_bulk_drain_keeps_the_prefix_of_a_failing_engine(drain):
    engine = Engine(5, fail_after=3)
    stream, released = stream_over(engine)
    with pytest.raises(RuntimeError, match="engine broke") as first:
        getattr(stream, drain)()
    assert not stream.exhausted
    with pytest.raises(RuntimeError) as second:
        stream.to_set()
    assert second.value is first.value
    # The sound prefix stays replayable; the error ends every replay.
    assert stream.first(3) == rows(3)
    replayed = []
    with pytest.raises(RuntimeError):
        for row in stream:
            replayed.append(row)
    assert replayed == rows(3)
    assert released == [True]
    assert engine.pulled == 3


def test_bulk_drain_equals_pulling_one_by_one():
    bulk, bulk_released = stream_over(Engine(6))
    lazy, lazy_released = stream_over(Engine(6))
    assert list(lazy) == rows(6)
    assert bulk.to_set() == lazy.to_set() == frozenset(rows(6))
    assert bulk.to_sorted() == lazy.to_sorted()
    assert bulk.count() == lazy.count() == 6
    assert bulk.exhausted and lazy.exhausted
    assert bulk_released == lazy_released == [True]
    assert bulk.stats.wall_ms > 0 and lazy.stats.wall_ms > 0
    assert list(bulk) == rows(6)  # replayable, engine order kept


def test_first_pulls_exactly_what_it_returns():
    engine = Engine(5)
    stream, released = stream_over(engine)
    assert stream.first(2) == rows(2)
    assert engine.pulled == 2 and not released
    iterator = iter(stream)
    assert [next(iterator) for _ in range(3)] == rows(3)
    assert engine.pulled == 3  # laziness is the contract of __iter__
    assert stream.to_set() == frozenset(rows(5))  # the rest, in bulk
    assert engine.pulled == 5 and released == [True]


def test_closed_stream_drains_nothing_more():
    engine = Engine(5)
    stream, released = stream_over(engine)
    stream.first(2)
    stream.close()
    assert engine.closed and released == [True]
    assert stream.to_set() == frozenset(rows(2))
    assert stream.count() == 2 and engine.pulled == 2
    assert not stream.exhausted


def test_drain_time_accrues_on_top_of_pull_time():
    stream, _ = stream_over(Engine(4))
    stream.first(1)
    after_first = stream.stats.wall_ms
    assert after_first > 0
    stream.to_set()
    drained = stream.stats.wall_ms
    assert drained > after_first
    stream.to_set()  # exhausted: nothing runs, nothing accrues
    assert stream.stats.wall_ms == drained


def test_stats_as_dict_is_the_dataclass_key_for_key():
    filled = StreamStats(
        method="datalog", rounds=4, derived=9, rewrite="magic",
        exec_mode="kernel", kernel_batches=3, saturated=True,
        from_cache=True, wall_ms=1.5, snapshot_version=2,
    )
    for stats in (StreamStats(), filled):
        flat = stats.as_dict()
        assert flat == dataclasses.asdict(stats)
        assert list(flat) == list(dataclasses.asdict(stats))
