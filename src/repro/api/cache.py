"""The fixpoint cache: what has been computed for *one* EDB state.

A :class:`FixpointCache` holds the saturated materializations (fixpoint
engines) and the star abstractions and chase probes (proof-tree
engines) valid for exactly one EDB state.  The object *is* the
version: there is no watermark to compare, so a result computed against
one state can never be filed under another — a stream that outlives an
update registers into the object it was handed, which by then nobody
else reads.

An update does not edit a cache; :meth:`FixpointCache.advance` builds
the cache of the next state from the cache of this one, carrying each
materialization across the change batch with a
:class:`~repro.incremental.FixpointMaintainer` or dropping it with a
recorded reason.  The two callers differ in one thing only, and the
EDB they hand over says which: a :class:`~repro.api.Session` edits its
one EDB object, has no reader on the old state and gets its stores
handed over in place; the server's next snapshot version is another
store, the old one keeps serving in-flight readers, and copies are
maintained.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..incremental import (
    FixpointMaintainer,
    MaintenanceStats,
    unmaintainable_reason,
)
from ..storage import FactStore, make_store
from ..storage.sharded import FixpointRecord
from .planner import WIRE_OPTIONS, QueryPlan, _store_label
from .program import CompiledProgram

__all__ = ["FixpointCache", "MAGIC_FIXPOINT_LIMIT", "data_kwargs"]


#: Cap on *demand-specific* (magic) fixpoints per cache: their key
#: includes the query's seed constants, so answering many distinct
#: point queries would otherwise grow one materialization per constant
#: without bound.  Unrewritten entries stay unbounded — their key space
#: is the small (program, method, store, kwargs) product.
MAGIC_FIXPOINT_LIMIT = 32

_MAGIC_FALLBACK = (
    "magic-rewritten fixpoint is demand-specific (seeded from the "
    "query's constants); recomputing on next query"
)


def data_kwargs(engine_kwargs) -> Optional[tuple]:
    """*engine_kwargs* in comparable form if all are plain data, else None.

    Live collaborators (termination policies, guides, custom null
    factories, oracles) can suppress or alter derivations without
    marking the run unsaturated — such runs must never be served to,
    or taken from, a shared cache, nor their plans kept across requests.
    """
    if not WIRE_OPTIONS.issuperset(engine_kwargs):
        return None
    return tuple(sorted((k, repr(v)) for k, v in engine_kwargs.items()))


class _Key(NamedTuple):
    """The identity of one cached materialization within one EDB state.

    ``token`` is the magic rewriting's identity (binding pattern + seed
    constants), ``None`` for an unrewritten plan: a demand fixpoint
    must never be served to another query, or to the unrewritten plan.
    ``program`` is ``id(compiled)`` — process-local, so a checkpoint
    persists the other fields and :meth:`FixpointCache.restore`
    rebuilds this one.
    """

    program: int
    method: str
    store_name: str
    kwargs: tuple
    token: Optional[tuple]

    @classmethod
    def of(cls, plan: QueryPlan) -> Optional["_Key"]:
        """*plan*'s key, or None when its materialization may not be
        cached or reused (see :func:`data_kwargs`).  Computed once per
        (frozen) plan: prepared plans live across requests."""
        memo = vars(plan)
        if "_fixpoint_key" not in memo:
            kwargs = data_kwargs(plan.engine_kwargs)
            rewriting = plan.rewriting
            memo["_fixpoint_key"] = None if kwargs is None else cls(
                id(plan.program), plan.method, plan.store_name, kwargs,
                rewriting.cache_token if rewriting is not None else None,
            )
        return memo["_fixpoint_key"]

    def label(self, compiled: CompiledProgram) -> str:
        tag = "×magic" if self.token is not None else ""
        return (
            f"{self.method}×{self.store_name}{tag} fixpoint "
            f"[{compiled.name}]"
        )


class _Entry(NamedTuple):
    """One saturated store and the program that produced it (kept
    alive: the key holds its ``id``)."""

    store: FactStore
    compiled: CompiledProgram


class FixpointCache:
    """Fixpoints and star abstractions of (*edb*, Σ) for one EDB state.

    The ``cache=`` collaborator of :func:`repro.api.execution.execute_plan`.
    Safe to share between threads.
    """

    def __init__(self, edb):
        #: The fact base this cache is valid for (read by
        #: :meth:`abstraction_for`; never written here).
        self.edb = edb
        self._lock = threading.Lock()
        self._fixpoints: Dict[_Key, _Entry] = {}
        self._abstractions: Dict[int, tuple] = {}
        self._probes: Dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0

    def get_fixpoint(
        self, plan: QueryPlan, unrewritten: bool = False
    ) -> Optional[FactStore]:
        """The cached saturated materialization for *plan*, if any —
        or, with *unrewritten*, the full fixpoint a magic *plan*
        restricts: a hit if held, but its absence is no miss (the
        lookup of the demand fixpoint follows)."""
        key = _Key.of(plan)
        if key is None:
            return None
        if unrewritten:
            key = key._replace(token=None)
        with self._lock:
            entry = self._fixpoints.get(key)
            if entry is None:
                if not unrewritten:
                    self.misses += 1
                return None
            self.hits += 1
            if key.token is not None:
                # LRU refresh: magic entries are evicted oldest-first.
                self._fixpoints[key] = self._fixpoints.pop(key)
            return entry.store

    def set_fixpoint(self, plan: QueryPlan, store: FactStore) -> None:
        """Register *plan*'s saturated materialization for reuse."""
        key = _Key.of(plan)
        if key is None:
            return
        with self._lock:
            self._fixpoints.pop(key, None)
            self._fixpoints[key] = _Entry(store, plan.program)
            if key.token is not None:
                magic = [k for k in self._fixpoints if k.token is not None]
                for stale in magic[:-MAGIC_FIXPOINT_LIMIT]:
                    del self._fixpoints[stale]

    def _once(self, slots: dict, compiled: CompiledProgram, setting, compute, *args):
        """``compute(edb, *args)``, kept in *compiled*'s one slot of
        *slots* while *setting* stays the same (the slot holds
        *compiled*: its ``id`` is the key).  Computed outside the lock;
        of racing first calls the first to publish wins."""
        key = id(compiled)
        with self._lock:
            held = slots.get(key)
        if held is None or held[0] != setting:
            computed = (setting, compute(self.edb, *args), compiled)
            with self._lock:
                held = slots.get(key)
                if held is None or held[0] != setting:
                    held = slots[key] = computed
        return held[1]

    def abstraction_for(self, compiled: CompiledProgram):
        """The star abstraction of (EDB, Σ), computed at most once.

        q evaluated over it is the candidate answer set and it serves as
        the pruning oracle of the proof-tree engines; it depends only on
        the facts and the program — never on the query.
        """
        from ..reasoning.abstraction import star_abstraction

        return self._once(
            self._abstractions, compiled, None,
            star_abstraction, compiled.analysis.normalized,
        )

    def probe_for(self, compiled: CompiledProgram, probe_depth, probe_atoms):
        """The bounded chase probe of (EDB, Σ), likewise query-free.

        ``probe_depth`` / ``probe_atoms`` are client-settable and a probe
        may hold ``probe_atoms`` atoms, so a program keeps one: a new
        setting's probe replaces the previous one.
        """
        from ..reasoning.answers import probe_instance

        return self._once(
            self._probes, compiled, (probe_depth, probe_atoms),
            probe_instance, compiled.program, probe_depth, probe_atoms,
        )

    def stats(self) -> dict:
        with self._lock:
            return {
                "fixpoints": len(self._fixpoints),
                "abstractions": len(self._abstractions),
                "probes": len(self._probes),
                "hits": self.hits,
                "misses": self.misses,
            }

    # -- carrying the cache to the next EDB state --------------------------

    def advance(
        self, inserted, retracted, edb
    ) -> Tuple[
        "FixpointCache",
        List[Tuple[str, MaintenanceStats]],
        List[Tuple[str, str]],
    ]:
        """The cache of the state after one *effective* change batch.

        *edb* is the fact base **after** the batch.  Returns the new
        cache, ``(label, stats)`` for every materialization carried
        across by incremental maintenance, and ``(label, reason)`` for
        every one dropped to recomputation.  Star abstractions and
        chase probes depend on the whole EDB and are cheap next to
        saturation: they are recomputed on demand, not carried.

        When *edb* is another object than this cache's own, this cache
        is left untouched — its stores stay exact for readers still on
        the old state — and copies are maintained; when it is the same
        object (edited in place), the stores are handed over and
        upgraded in place, leaving this cache empty.
        """
        copy = edb is not self.edb
        with self._lock:
            entries = list(self._fixpoints.items())
            if not copy:
                self._fixpoints.clear()
        successor = FixpointCache(edb)
        maintained: List[Tuple[str, MaintenanceStats]] = []
        fallbacks: List[Tuple[str, str]] = []
        for key, entry in entries:
            label = key.label(entry.compiled)
            # A magic materialization is the fixpoint of the *demand*
            # program seeded from one query's constants; maintaining it
            # against the unrewritten program would silently corrupt it.
            reason = (
                _MAGIC_FALLBACK
                if key.token is not None
                else unmaintainable_reason(entry.compiled.analysis)
            )
            if reason is not None:
                fallbacks.append((label, reason))
                continue
            if copy:
                entry = _Entry(entry.store.copy(), entry.compiled)
            stats = FixpointMaintainer(entry.compiled, entry.store).apply(
                inserted, retracted, edb=edb
            )
            successor._fixpoints[key] = entry
            maintained.append((label, stats))
        return successor, maintained, fallbacks

    # -- warm-start checkpoint ---------------------------------------------

    def records(self) -> List[FixpointRecord]:
        """The persistable materializations: unrewritten ones only —
        a demand fixpoint is tied to one query's seed constants, the
        same rule as :meth:`advance`."""
        with self._lock:
            entries = list(self._fixpoints.items())
        return [
            FixpointRecord(
                method=key.method,
                store_name=key.store_name,
                kwargs=key.kwargs,
                atoms=tuple(entry.store),
            )
            for key, entry in entries
            if key.token is None
        ]

    def restore(
        self, records: Iterable[FixpointRecord], compiled: CompiledProgram,
        store,
    ) -> None:
        """Re-seed this cache from checkpointed :meth:`records`.

        *store* is the serving ``store=`` choice the materializations
        are rebuilt in.  Records written under a different choice are
        skipped: their keys could never be looked up.
        """
        name = _store_label(store)
        restored = {
            _Key(id(compiled), record.method, name, record.kwargs, None):
                _Entry(make_store(store, record.atoms), compiled)
            for record in records
            if record.store_name == name
        }
        with self._lock:
            self._fixpoints.update(restored)
