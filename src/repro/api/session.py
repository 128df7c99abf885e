"""The session: one front door for compile-once, query-many workloads.

A :class:`Session` owns

* the **EDB** — a shared fact base, extended by loaded programs and
  :meth:`Session.add_facts`;
* a **store choice** — the fact-storage backend every materializing
  engine uses (see :data:`repro.storage.BACKENDS`);
* a **compiled-program cache** — each :class:`Program` is classified,
  stratified, and join-planned exactly once;
* a **prepared-plan cache** — each query *text* is parsed and planned
  once per option set (bounded LRU; untouched by updates);
* one :class:`~repro.api.cache.FixpointCache` — the star abstractions
  (proof-tree engines) and saturated materializations (fixpoint
  engines) valid for the EDB as it stands.  :meth:`Session.apply`
  replaces it with the cache of the next state: each materialization
  is routed through :mod:`repro.incremental` and *upgraded in place*
  (DRed + the semi-naive insertion fast path) instead of
  recomputed, with a recorded fallback for plans outside the
  maintainable fragment.

``Session.query`` returns a lazy :class:`AnswerStream`; nothing runs
until the caller pulls.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from ..core.atoms import Atom
from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..incremental import ChangeSet, MaintenanceReport
from ..lang.parser import parse_program, parse_query
from ..lint import LintError
from ..rewriting.magic import (
    AdornedProgram,
    MagicRewriting,
    adorn_program,
    binding_pattern,
)
from ..storage import FactStore
from .cache import FixpointCache, data_kwargs
from .execution import execute_plan
from .planner import Planner, QueryPlan, validate_store
from .program import CompiledProgram, compile_program
from .stream import AnswerStream

__all__ = ["Session"]

#: Cap on prepared plans per session (~1.6 KB each).
PREPARED_PLAN_LIMIT = 1024

QueryLike = Union[str, ConjunctiveQuery]
ProgramLike = Union[None, str, Program, CompiledProgram]
ChangeLike = Union[ChangeSet, Iterable[Atom]]


class Session:
    """A reusable query-answering session over a shared EDB."""

    def __init__(self, *, store="instance", planner: Optional[Planner] = None):
        validate_store(store)
        if isinstance(store, FactStore):
            # One live store seeded in place by every engine run would
            # leak one query's materialization into the next (even
            # across programs).  Engines may take an instance directly;
            # a session needs a name or a factory.
            raise ValueError(
                "Session cannot share one FactStore instance across "
                "queries; pass a backend name or a factory callable"
            )
        self.store = store
        self.planner = planner if planner is not None else Planner()
        #: Guards the EDB, the compiled-program caches, and the swap of
        #: :attr:`cache`: a session may be shared across threads (the
        #: serving layer plans queries and applies change batches
        #: concurrently).  Reentrant because ``load`` → ``add_facts`` →
        #: ``apply`` nest.
        self._lock = threading.RLock()
        self.edb = Database()
        self._edb_version = 0
        #: What has been computed for the EDB as it stands; replaced —
        #: never edited — by :meth:`apply`.
        self.cache = FixpointCache(self.edb)
        self._compiled: Dict[Program, CompiledProgram] = {}
        self._external: list = []  # externally compiled, kept alive
        self._last: Optional[CompiledProgram] = None
        #: Adorned demand programs, cached per (compiled program,
        #: binding pattern): two point queries differing only in their
        #: constants share one rewriting and differ only in seed facts.
        #: LRU-bounded like the magic fixpoint cache — binding patterns
        #: are structural, but programmatically generated query shapes
        #: would otherwise grow it without limit.
        self._adorned: Dict[tuple, AdornedProgram] = {}
        #: Prepared plans (see :meth:`plan`), least recently used first.
        #: A plan holds program, query and rewriting but no store, so
        #: :meth:`apply` drops none — :attr:`cache` decides freshness.
        self._prepared: Dict[tuple, QueryPlan] = {}
        self._prepared_hits = 0
        self._prepared_misses = 0

    def __repr__(self) -> str:
        return (
            f"Session(store={self.store!r}, {len(self.edb)} facts, "
            f"{len(self._compiled)} program(s) compiled)"
        )

    # -- EDB management ----------------------------------------------------

    @property
    def edb_version(self) -> int:
        """Counts the effective :meth:`apply` batches: each one bumps
        it and replaces :attr:`cache` with the next state's."""
        return self._edb_version

    def add_facts(self, atoms: Iterable[Atom]) -> int:
        """Add facts to the shared EDB (an insert-only :meth:`apply`).

        Cached fixpoints of maintainable programs are upgraded in
        place via the insertion fast path; star abstractions (which
        are cheap relative to saturation) are recomputed.  Returns how
        many facts were new.
        """
        return self.apply(ChangeSet.inserting(atoms)).added

    def retract_facts(self, atoms: Iterable[Atom]) -> int:
        """Remove facts from the shared EDB (a retract-only :meth:`apply`).

        Returns how many facts were actually present.
        """
        return self.apply(ChangeSet.retracting(atoms)).dropped

    def apply(
        self,
        changes: ChangeLike = None,
        *,
        inserts: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
    ) -> MaintenanceReport:
        """Apply one batch of EDB insertions and retractions.

        *changes* is a :class:`~repro.incremental.ChangeSet` (or a bare
        iterable of atoms, treated as insertions); ``inserts=`` /
        ``retracts=`` extend it.  Every cached ``(plan, fixpoint)`` is
        routed through a :class:`~repro.incremental.FixpointMaintainer`
        and upgraded in place — DRed deletion plus the semi-naive
        insertion fast path — while plans outside the
        maintainable fragment fall back to recomputation-on-next-query,
        with the reason recorded in the returned
        :class:`~repro.incremental.MaintenanceReport`.

        No-op batches (nothing effectively changed) leave
        :attr:`edb_version` and :attr:`cache` as they are.
        """
        if changes is None:
            changes = ChangeSet()
        elif not isinstance(changes, ChangeSet):
            changes = ChangeSet.inserting(changes)
        extra = ChangeSet.of(inserts, retracts)
        if extra:
            changes = ChangeSet(changes.ops + extra.ops)
        with self._lock:
            inserted, retracted = changes.effective(self.edb)
            if not inserted and not retracted:
                return MaintenanceReport(
                    version=self._edb_version, inserted=(), retracted=()
                )
            self.edb.discard_all(retracted)
            self.edb.add_all(inserted)
            self._edb_version += 1
            # The same EDB object, edited: nobody reads the old state,
            # so the stores move to the next cache as they are.
            self.cache, maintained, fallbacks = self.cache.advance(
                inserted, retracted, self.edb
            )
            return MaintenanceReport(
                version=self._edb_version,
                inserted=inserted,
                retracted=retracted,
                maintained=maintained,
                fallbacks=fallbacks,
            )

    # -- program management ------------------------------------------------

    def parse(
        self, source: Union[str, Path], *, name: str = ""
    ) -> Tuple[CompiledProgram, Database]:
        """Parse a program (text or path) and compile it; its facts are
        returned, not absorbed — :meth:`load` adds them to this
        session's EDB, the server cuts its version 0 from them."""
        if isinstance(source, Path):
            name = name or source.stem
            source = source.read_text()
        program, database = parse_program(source, name=name)
        return self.compile(program, source=source, facts=database), database

    def load(
        self, source: Union[str, Path], *, name: str = ""
    ) -> CompiledProgram:
        """Parse a program (text or path), absorb its facts, compile it.

        The returned :class:`CompiledProgram` becomes the session's
        default program for subsequent :meth:`query` calls.
        """
        compiled, database = self.parse(source, name=name)
        self.add_facts(database)
        return compiled

    def compile(
        self, program: Program, *, source: Optional[str] = None, facts=None
    ) -> CompiledProgram:
        """Compile *program* once; later calls return the cached artifact."""
        with self._lock:
            if isinstance(program, CompiledProgram):
                # Retain a strong reference: the fixpoint cache keys by
                # id(compiled), which must not be reused by a new
                # object while this session holds entries.
                self._compiled.setdefault(program.program, program)
                if self._compiled[program.program] is not program:
                    self._external.append(program)
                self._last = program
                return program
            if not isinstance(program, Program):
                program = Program(program)  # bare TGD iterables
            compiled = self._compiled.get(program)
            if compiled is None:
                compiled = compile_program(
                    program, source=source, facts=facts
                )
                self._compiled[program] = compiled
            self._last = compiled
            return compiled

    @property
    def programs(self) -> Tuple[CompiledProgram, ...]:
        return tuple(self._compiled.values())

    def _resolve_program(self, program: ProgramLike) -> CompiledProgram:
        if program is None:
            if self._last is None:
                raise ValueError(
                    "no program loaded into this session; call "
                    "Session.load()/compile() or pass program="
                )
            return self._last
        if isinstance(program, CompiledProgram):
            return self.compile(program)
        if isinstance(program, str):
            parsed, _ = parse_program(program)
            return self.compile(parsed, source=program)
        return self.compile(program)

    # -- planning and querying --------------------------------------------

    def plan(
        self,
        query: QueryLike,
        *,
        program: ProgramLike = None,
        method: str = "auto",
        rewrite: str = "auto",
        **engine_kwargs,
    ) -> QueryPlan:
        """Plan a query without running it (see :meth:`QueryPlan.explain`).

        ``rewrite`` selects the demand dimension
        (:data:`repro.api.planner.REWRITES`); adorned demand programs
        are cached per (program, binding pattern), so repeated point
        queries pay the rewriting once.  A query given as text is
        *prepared*: parsed and planned once per (text, program, options)
        and the same frozen plan returned from then on, unless an engine
        kwarg is a live collaborator rather than data.
        """
        compiled = self._resolve_program(program)
        key = None
        if isinstance(query, str):
            kwargs = data_kwargs(engine_kwargs)
            # A method or rewrite that is no string is the planner's
            # ValueError to raise, not a key to look up.
            if (
                kwargs is not None
                and isinstance(method, str)
                and isinstance(rewrite, str)
            ):
                key = (query, id(compiled), method, rewrite, kwargs)
                with self._lock:
                    plan = self._prepared.pop(key, None)
                    if plan is not None:
                        self._prepared[key] = plan  # LRU refresh
                        self._prepared_hits += 1
                        return plan
            query = parse_query(query)
        # Static gate: a program with error-severity diagnostics —
        # unsafe negation, arity conflicts, negation through recursion —
        # has no sound evaluation, so reject it before the planner ever
        # sees it.  The report is computed once per compiled program
        # and cached (``compiled.diagnostics``); warnings and infos
        # pass through and surface on the plan's ``lint:`` line.
        errors = compiled.diagnostics.errors()
        if errors:
            raise LintError(errors, compiled.name)
        plan = self.planner.plan(
            compiled,
            query,
            method=method,
            store=self.store,
            rewrite=rewrite,
            magic_provider=self._magic_for,
            **engine_kwargs,
        )
        if key is not None:
            # Only a plan that parsed, linted and planned gets here:
            # errors are raised on every call and never cached.
            with self._lock:
                self._prepared_misses += 1
                self._prepared[key] = plan
                if len(self._prepared) > PREPARED_PLAN_LIMIT:
                    del self._prepared[next(iter(self._prepared))]
        return plan

    def prepared_stats(self) -> dict:
        """Prepared plans kept, requests served one, texts planned."""
        with self._lock:
            return {
                "entries": len(self._prepared),
                "hits": self._prepared_hits,
                "misses": self._prepared_misses,
            }

    #: Cap on cached adorned demand programs (per binding pattern).
    _ADORNED_CACHE_LIMIT = 64

    def _magic_for(
        self, compiled: CompiledProgram, query: ConjunctiveQuery
    ) -> MagicRewriting:
        """The cached adorned program for this binding pattern,
        instantiated with the query's actual constants."""
        key = (id(compiled), binding_pattern(query))
        with self._lock:
            adorned = self._adorned.get(key)
            if adorned is None:
                adorned = adorn_program(compiled.program, query)
                self._adorned[key] = adorned
                stale_keys = list(self._adorned)[: -self._ADORNED_CACHE_LIMIT]
                for stale in stale_keys:
                    del self._adorned[stale]
            else:
                self._adorned[key] = self._adorned.pop(key)  # LRU refresh
        return adorned.instantiate(query)

    def explain(self, query: QueryLike, **plan_kwargs) -> str:
        """The stable rendering of the plan :meth:`query` would execute."""
        return self.plan(query, **plan_kwargs).explain()

    def query(
        self,
        query: QueryLike,
        *,
        program: ProgramLike = None,
        method: str = "auto",
        rewrite: str = "auto",
        **engine_kwargs,
    ) -> AnswerStream:
        """Answer a query against the session EDB, lazily.

        Returns an :class:`AnswerStream`; the engine starts on the
        first pull, and its materialized set equals
        :func:`~repro.api.execution.certain_answers` for the same
        arguments (the magic rewriting only restricts *how much* is
        derived, never the answers).
        """
        plan = self.plan(
            query,
            program=program,
            method=method,
            rewrite=rewrite,
            **engine_kwargs,
        )
        return execute_plan(plan, self.edb, cache=self.cache)

    def answers(self, query: QueryLike, **query_kwargs) -> set:
        """Eager convenience: ``set(self.query(...))``."""
        return set(self.query(query, **query_kwargs).to_set())

    # -- cross-query caches ------------------------------------------------

    def abstraction_for(self, compiled: CompiledProgram):
        """The star abstraction of (EDB, Σ) for the current EDB state."""
        return self.cache.abstraction_for(compiled)

    def get_fixpoint(self, plan: QueryPlan) -> Optional[FactStore]:
        """A cached saturated materialization for this plan, if any."""
        return self.cache.get_fixpoint(plan)
