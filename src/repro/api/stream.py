"""Pull-based answer streams.

An :class:`AnswerStream` is the result type of the session layer: a
lazy, replayable iterator of certain-answer tuples.  The engine
generator yields blocks (lists of answers, or the kernels'
:class:`~repro.kernels.query.AnswerBlock` of id rows) and is driven a
block at a time, only as far as the consumer pulls, so the first
answers surface before the full certain-answer set is materialized;
consumed answers are cached, so repeated iteration,
:meth:`AnswerStream.to_set`, and partial reads all agree.  An id block
is cached as its id rows and decoded when read: each pass yields equal,
not identical, tuples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.terms import Constant
from ..kernels.query import AnswerBlock

__all__ = ["AnswerStream", "StreamStats"]

AnswerTuple = Tuple[Constant, ...]


@dataclass
class StreamStats:
    """Execution statistics, filled in as the stream is driven.

    ``method`` is the engine that ran; ``probe_answers`` counts the
    answers settled without a decision — read off the star
    abstraction's rows when q reads only exact and extensional
    predicates, else q over the bounded chase probe — and
    ``decided_tuples`` the rows of q over the star abstraction left
    unsettled, each sent to a decision engine (proof-tree engines
    only); ``saturated`` reports fixpoint
    completion for the materializing engines; ``from_cache`` marks a
    cache hit (a reused materialization — the plan's own, or the held
    full fixpoint an ``auto`` plan read — no engine run at all).  ``rounds``
    counts semi-naive fixpoint rounds (datalog engine) and ``events``
    the chase's trigger firings, so the benchmark harness can report
    work per cell without re-running the engine.  ``rewrite`` is the demand dimension
    that *ran* (``"magic"`` or ``"none"`` — ``plan.rewrite``, except when
    an ``auto`` plan read a held full fixpoint) and ``derived`` the
    facts the datalog engine staged beyond the seeded database — the
    pair the demand benchmark compares across plans.  ``exec_mode`` is
    how the datalog engine actually ran — compiled kernels on a
    kernel-capable store, the interpreter otherwise
    (``"kernel"``/``"interpret"``; empty for other engines and cache
    hits) and ``kernel_batches`` the number of batch operations the
    compiled kernels executed (0 under the interpreter).  ``wall_ms`` is
    the cumulative wall-clock time spent driving the engine (pull time
    only — construction and idle time between pulls are excluded), and
    ``snapshot_version`` the EDB version the query was admitted under
    (filled by the serving layer; None for plain library streams) —
    together they let client-observed latency and server-side stats
    reconcile per response.
    """

    method: str = ""
    probe_answers: int = 0
    decided_tuples: int = 0
    rounds: int = 0
    events: int = 0
    derived: int = 0
    rewrite: str = "none"
    exec_mode: str = ""
    kernel_batches: int = 0
    saturated: Optional[bool] = None
    from_cache: bool = False
    wall_ms: float = 0.0
    snapshot_version: Optional[int] = None

    def as_dict(self) -> dict:
        """A JSON-ready rendering (used by the server protocol)."""
        return {n: getattr(self, n) for n in self.__dataclass_fields__}


class AnswerStream:
    """A lazy stream of certain-answer tuples.

    Iteration pulls *factory*'s blocks on demand (skipping empty ones)
    and never runs the engine past the block that holds the answer
    requested.  Soundness holds at every prefix (every yielded tuple is
    a certain answer); completeness — the materialized set equalling
    ``cert(q, D, Σ)`` — holds on normal exhaustion.  An engine that
    cannot certify completeness (e.g. a strict chase that failed to
    saturate) raises at the *end* of the stream, after every block.

    The cache holds answers as the blocks brought them: decoded tuples,
    or — while every block is an :class:`AnswerBlock` of one term
    table — its id rows (for a one-atom reader, the store's own
    tuples), decoded when read.  A mixed stream decodes its id rows
    once, when the first other block arrives.
    """

    def __init__(
        self,
        plan,
        factory: Callable[[], Iterable[Sequence[AnswerTuple]]],
        stats: Optional[StreamStats] = None,
    ):
        self._plan = plan
        self._factory = factory
        self._iterator: Optional[Iterator[Sequence[AnswerTuple]]] = None
        self._cache: list = []
        #: The term table of the cached id rows; None when the cache
        #: holds decoded tuples.
        self._table = None
        #: Non-empty blocks pulled so far.
        self._blocks = 0
        self._exhausted = False
        self._error: Optional[BaseException] = None
        self._release_hooks: List[Callable[[], None]] = []
        self._released = False
        self._closed = False
        self.stats = stats if stats is not None else StreamStats(
            method=getattr(plan, "method", "")
        )

    # -- introspection -----------------------------------------------------

    @property
    def plan(self):
        """The :class:`~repro.api.planner.QueryPlan` being executed."""
        return self._plan

    @property
    def method(self) -> str:
        return self._plan.method

    @property
    def started(self) -> bool:
        """True once the engine generator has been constructed."""
        return self._iterator is not None

    @property
    def exhausted(self) -> bool:
        """True once the engine has been drained (the set is complete)."""
        return self._exhausted

    def explain(self) -> str:
        return self._plan.explain()

    def __repr__(self) -> str:
        state = "started" if self.started else "pending"
        if self._exhausted:
            state = "complete"
        return f"AnswerStream({self.method}, {len(self._cache)} pulled, {state})"

    # -- pulling -----------------------------------------------------------

    def _pull(self, drain: bool = False) -> bool:
        """Advance the engine by one non-empty block — with *drain*, by
        all it has left, in one timed stretch; False when drained.

        The time spent accrues to ``stats.wall_ms``, so a drained
        stream's total equals the engine time the caller actually paid
        (idle time between pulls is not charged).
        """
        if self._error is not None:
            raise self._error
        if self._exhausted or self._closed:
            return False
        started = time.perf_counter()
        try:
            try:
                if self._iterator is None:
                    self._iterator = iter(self._factory())
                for block in self._iterator:
                    # Whole blocks land in the cache: after an error,
                    # the sound prefix stays replayable.
                    self._keep(block)
                    if block:
                        self._blocks += 1
                        if not drain:
                            return True
            except BaseException as error:
                self._error = error
                self._run_release_hooks()
                raise
            self._exhausted = True
            self._run_release_hooks()
            return False
        finally:
            self.stats.wall_ms += (time.perf_counter() - started) * 1000.0

    def _keep(self, block) -> None:
        """Append *block* to the cache: as id rows while the cache is
        one table's, else decoded."""
        # ``type``, not ``isinstance``: the ABC check costs a plain
        # list's block more than its extend.
        if type(block) is AnswerBlock and (
            block.table is self._table
            or (self._table is None and not self._cache)
        ):
            self._table = block.table
            self._cache.extend(block.rows)
            return
        if self._table is not None:
            # A new list, not in place: a pass reading the old one
            # with the old table stays consistent.
            self._cache = list(self._answers())
            self._table = None
        self._cache.extend(block)

    def _answers(self, rows: Optional[Iterable] = None) -> Iterator[AnswerTuple]:
        """The answers of cached *rows* (the whole cache by default),
        decoded as they are read."""
        rows = self._cache if rows is None else rows
        if self._table is None:
            return iter(rows)
        return map(self._table.decode, rows)

    # -- resource management -----------------------------------------------

    def on_release(self, hook: Callable[[], None]) -> None:
        """Register a cleanup hook, run exactly once when the stream is
        done with its underlying resources — on engine exhaustion, on an
        engine error, or on an explicit :meth:`close`.

        The serving layer uses this to release the snapshot lease a
        query was admitted under: the version's refcount drops when the
        last reader drains, letting the snapshot manager collect it.
        Hooks registered after release run immediately.
        """
        if self._released:
            hook()
            return
        self._release_hooks.append(hook)

    def _run_release_hooks(self) -> None:
        if self._released:
            return
        self._released = True
        hooks, self._release_hooks = self._release_hooks, []
        for hook in hooks:
            hook()

    def close(self) -> None:
        """Stop the engine without draining it.

        The cached prefix stays replayable (iteration over consumed
        tuples still works); further pulls are refused, and the release
        hooks run.  Closing an exhausted or unstarted stream is a no-op
        beyond releasing.
        """
        if not self._exhausted and self._error is None:
            iterator = self._iterator
            if iterator is not None and hasattr(iterator, "close"):
                iterator.close()
            self._closed = True
        self._run_release_hooks()

    def __iter__(self) -> Iterator[AnswerTuple]:
        index = 0
        while True:
            cache, table = self._cache, self._table
            end = len(cache)
            if index < end:
                # What was cached when this stretch began, decoded by
                # the table it was cached under.
                rows = map(cache.__getitem__, range(index, end))
                yield from rows if table is None else map(table.decode, rows)
                index = end
            elif not self._pull():
                return

    def first(self, n: int = 1) -> List[AnswerTuple]:
        """The first *n* answers, driving the engine no further."""
        if n < 0:
            raise ValueError(f"first(n) needs n >= 0, got {n}")
        while len(self._cache) < n and self._pull():
            pass
        return list(self._answers(islice(self._cache, n)))

    def to_set(self) -> frozenset:
        """Drain the stream and return the full certain-answer set."""
        self._pull(drain=True)
        return frozenset(self._answers())

    def to_sorted(self) -> List[AnswerTuple]:
        """Drain the stream; answers sorted by string form.  Every
        engine's block is distinct and in ``str`` order, so a stream of
        at most one block (a cached read, a single round) is its cache
        decoded, sorted only once."""
        self._pull(drain=True)
        if self._blocks <= 1:
            return list(self._answers())
        return sorted(self.to_set(), key=str)

    def count(self) -> int:
        """``|cert(q, D, Σ)|`` (drains the stream).  Counted on the
        cache as it stands: one table gives distinct answers distinct
        id rows, so nothing is decoded."""
        self._pull(drain=True)
        return len(set(self._cache))
