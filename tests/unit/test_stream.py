"""Unit tests for :class:`repro.api.stream.AnswerStream` driven by hand-
made engines that yield answer blocks: bulk drains and per-block pulls
keep one contract.  One-row blocks pin per-pull laziness."""

import dataclasses

import pytest

from repro.api.stream import AnswerStream, StreamStats
from repro.core.terms import Constant


def rows(n):
    return [(Constant(i),) for i in range(n)]


class Engine:
    """A generator factory of *block*-row blocks that counts the rows
    it handed out and may fail after *fail_after* rows (a multiple of
    *block*)."""

    def __init__(self, n, fail_after=None, block=1):
        self.n = n
        self.fail_after = fail_after
        self.block = block
        self.pulled = 0
        self.closed = False

    def __call__(self):
        try:
            answers = rows(self.n)
            for start in range(0, self.n, self.block):
                if start == self.fail_after:
                    raise RuntimeError("engine broke")
                block = answers[start:start + self.block]
                self.pulled += len(block)
                yield block
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


@pytest.mark.parametrize("blocks", [[], [rows(12)], [rows(12)[:5], rows(12)[5:]]])
def test_to_sorted_is_the_str_order_of_the_set(blocks):
    """Engine blocks are in ``str`` order: a one-block stream is
    returned as cached (a copy), several blocks are merged by a sort."""
    blocks = [sorted(block, key=str) for block in blocks]
    stream, _ = stream_over(lambda: iter(blocks))
    ordered = stream.to_sorted()
    assert ordered == sorted(stream.to_set(), key=str)
    ordered.append(None)
    assert list(stream) == [row for block in blocks for row in block]


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


def test_first_stops_after_the_block_that_holds_answer_k():
    engine = Engine(9, block=3)
    stream, released = stream_over(engine)
    assert stream.first(4) == rows(4)
    assert engine.pulled == 6 and not released  # blocks 1 and 2, not 3
    assert stream.first(5) == rows(5)  # already cached: nothing pulled
    assert engine.pulled == 6
    iterator = iter(stream)
    assert [next(iterator) for _ in range(6)] == rows(6)
    assert engine.pulled == 6
    assert next(iterator) == rows(7)[6]
    assert engine.pulled == 9


def test_an_error_after_two_blocks_keeps_both_as_the_prefix():
    engine = Engine(9, fail_after=4, block=2)
    stream, released = stream_over(engine)
    assert stream.first(3) == rows(3)
    with pytest.raises(RuntimeError, match="engine broke"):
        stream.first(5)
    assert stream.first(4) == rows(4)
    replayed = []
    with pytest.raises(RuntimeError):
        for row in stream:
            replayed.append(row)
    assert replayed == rows(4)
    assert engine.pulled == 4 and released == [True]


def test_an_empty_block_is_skipped():
    def engine():
        yield []
        yield rows(2)[:1]
        yield []
        yield []
        yield rows(2)[1:]
        yield []

    stream, released = stream_over(engine)
    assert stream.first(1) == rows(1)
    assert not stream.exhausted
    assert list(stream) == rows(2)
    assert stream.exhausted and released == [True]
    assert stream.count() == 2


def test_first_refuses_a_negative_count():
    # first(-1) used to slice [:-1]: two rows of a six-row stream.
    stream, _ = stream_over(Engine(6))
    assert stream.first(3) == rows(3)
    with pytest.raises(ValueError, match="n >= 0, got -1"):
        stream.first(-1)
    assert stream.first(0) == []


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
