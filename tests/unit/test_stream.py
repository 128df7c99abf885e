"""Unit tests for :class:`repro.api.stream.AnswerStream` driven by hand-
made engines that yield answer blocks: bulk drains and per-block pulls
keep one contract.  One-row blocks pin per-pull laziness.  The same
contract holds over the datalog engine on every store, where kernel
blocks are id rows decoded when read."""

import dataclasses
import gc
import tracemalloc
from itertools import islice

import pytest

from repro.api import Session
from repro.api.stream import AnswerStream, StreamStats
from repro.core.atoms import Atom
from repro.core.terms import Constant, Null
from repro.datalog.seminaive import stream_datalog_answers
from repro.kernels import AnswerBlock
from repro.lang.parser import parse_program, parse_query
from repro.storage import BACKENDS
from repro.storage.interning import TermTable


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


# -- the contract over engine blocks, kernel id blocks included --------

CLOSURE = "t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z)."
QUERY = "q(X,Y) :- t(X,Y)."


def path_program(n):
    """The closure rules over the path n0 → n1 → … → n*n*."""
    return CLOSURE + " ".join(f"e(n{i}, n{i + 1})." for i in range(n))


def closure_stream(store, n=6):
    session = Session(store=store)
    session.load(path_program(n))
    return session.query(QUERY)


@pytest.mark.parametrize("store", BACKENDS)
def test_two_passes_yield_equal_sequences(store):
    stream = closure_stream(store)
    first = list(stream)
    assert len(first) == 21 and first == list(stream)
    assert all(isinstance(answer, tuple) for answer in first)


@pytest.mark.parametrize("store", BACKENDS)
def test_first_k_is_a_prefix_of_the_drained_sequence(store):
    stream = closure_stream(store)
    heads = [stream.first(k) for k in (0, 1, 4, 9)]
    drained = list(stream)
    for head in heads:
        assert head == drained[: len(head)]
    assert [len(head) for head in heads] == [0, 1, 4, 9]


@pytest.mark.parametrize("store", BACKENDS)
def test_close_keeps_the_pulled_prefix_replayable(store):
    stream = closure_stream(store)
    pulled = list(islice(stream, 7))
    stream.close()
    cached = list(stream)
    assert cached[:7] == pulled and len(cached) < 21
    assert stream.to_set() == frozenset(cached)
    assert stream.count() == len(cached) and not stream.exhausted


@pytest.mark.parametrize("store", BACKENDS)
def test_an_engine_error_after_a_block_keeps_the_sound_prefix(store):
    program, database = parse_program(path_program(6))
    query = parse_query(QUERY)

    def engine():
        blocks = stream_datalog_answers(query, database, program, store=store)
        yield next(blocks)
        raise RuntimeError("engine broke")

    stream, released = stream_over(engine)
    with pytest.raises(RuntimeError, match="engine broke"):
        stream.to_set()
    # Round 1's block: the edges, in ``str`` order.
    expected = sorted(
        ((Constant(f"n{i}"), Constant(f"n{i + 1}")) for i in range(6)),
        key=str,
    )
    assert stream.first(6) == expected
    with pytest.raises(RuntimeError):
        stream.first(7)
    replayed = []
    with pytest.raises(RuntimeError):
        for answer in stream:
            replayed.append(answer)
    assert replayed == expected and released == [True]


@pytest.mark.parametrize("store", BACKENDS)
def test_to_sorted_of_many_blocks_is_the_str_order_of_the_set(store):
    stream = closure_stream(store)
    ordered = stream.to_sorted()
    assert stream._blocks > 1
    assert ordered == sorted(stream.to_set(), key=str)
    assert len(ordered) == stream.count() == 21


@pytest.mark.parametrize("store", BACKENDS)
def test_an_edb_row_holding_a_labelled_null_is_no_answer(store):
    # Engine input, not a session EDB: a ``Database`` refuses nulls.
    a, b, c = (Constant(name) for name in "abc")
    database = [
        Atom("e", (a, b)), Atom("e", (b, Null(1))), Atom("e", (Null(1), c)),
    ]
    program, _ = parse_program(CLOSURE)
    stream, _ = stream_over(
        lambda: stream_datalog_answers(
            parse_query(QUERY), database, program, store=store
        )
    )
    assert stream.to_set() == {(a, b), (b, c), (a, c)}
    assert sorted(stream, key=str) == stream.to_sorted()
    assert stream.count() == 3


def test_kernel_blocks_are_id_rows_read_as_decoded_lists():
    program, database = parse_program(path_program(3))
    blocks = list(
        stream_datalog_answers(parse_query(QUERY), database, program,
                               store="columnar")
    )
    assert all(isinstance(block, AnswerBlock) for block in blocks)
    for block in blocks:
        decoded = [block.table.decode(row) for row in block.rows]
        assert block == decoded and decoded == block
        assert list(block) == decoded and block[0] == decoded[0]
        assert block[1:] == decoded[1:] and len(block) == len(decoded)
        assert block != decoded[:-1] and block != tuple(decoded)


def test_the_cache_is_the_stored_rows_and_costs_a_pointer_per_answer(
    monkeypatch,
):
    """Memory gate: draining ``q(X,Y) :- t(X,Y)`` over a held columnar
    closure keeps the store's own rows, no decoded tuple."""
    session = Session(store="columnar")
    session.load(path_program(80))
    answers = 81 * 80 // 2
    saturating = session.query(QUERY)
    assert saturating.count() == answers
    fixpoint = session.get_fixpoint(saturating.plan)
    stored = {id(row) for _, part in fixpoint.parts("t", 2) for row in part.rows}
    assert len(stored) == answers

    gc.collect()
    tracemalloc.start()
    try:
        stream = session.query(QUERY)
        before = tracemalloc.get_traced_memory()[0]
        for _ in stream:
            pass
        gc.collect()  # empties the tuple free lists the drain filled
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stream.stats.from_cache and len(stream._cache) == answers
    assert grown <= 16 * answers, grown
    for drained in (saturating, stream):
        assert all(id(row) in stored for row in drained._cache)

    def no_decoding(self, row):
        raise AssertionError("count() decoded a row")

    monkeypatch.setattr(TermTable, "decode", no_decoding)
    assert stream.count() == saturating.count() == answers


def test_a_mixed_stream_decodes_its_id_rows_once_another_block_arrives():
    table = TermTable()
    ids = table.intern_many(Constant(i) for i in range(4))
    id_rows = [(tid,) for tid in ids[:2]]

    def engine():
        yield AnswerBlock(id_rows, table)
        yield rows(4)[2:]

    stream, _ = stream_over(engine)
    iterator = iter(stream)
    assert next(iterator) == rows(1)[0]
    assert stream._cache == id_rows  # one pull: ids, kept as they came
    assert stream.first(4) == rows(4)
    assert stream._cache == rows(4)  # a plain block decoded the rest
    assert list(iterator) == rows(4)[1:]
    assert list(stream) == rows(4) and stream.count() == 4
