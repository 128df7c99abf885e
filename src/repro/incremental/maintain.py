"""The fixpoint maintainer: delete–rederive over the program's strata.

A :class:`FixpointMaintainer` owns one cached least-fixpoint store and
upgrades it in place when the EDB changes, instead of letting the
session throw the materialization away:

* **insertions** ride the semi-naive fast path — the interpreter's own
  round loop (:func:`repro.datalog.seminaive.delta_rounds`) seeded from
  just the new facts, stratum by stratum (the batch kernels are not
  involved: they saturate from scratch only);
* **retractions** run delete–rederive (DRed) on every stratum,
  recursive or not, in the order of the stratification the
  :class:`~repro.api.program.CompiledProgram` already computed.  On a
  non-recursive stratum the over-deletion is one wave and the
  rederivation one :meth:`~FixpointMaintainer._derivable` check per
  candidate; nothing is kept between batches, so a maintainer is a
  schedule plus a store and costs nothing to build.

The maintainable fragment is full (existential-free) programs: their
saturated store is the least fixpoint over constants, so deletion has
the classical semantics.  Programs with existential rules materialize
labeled nulls whose provenance the store does not track; the session
falls back to recomputation for those (and records why).

Batch discipline (one ``apply``):

1. **Phase A — deletions**, strata in topological order.  Joins that
   must see the *old* state run over a
   :class:`~repro.core.views.UnionView` of the live store and
   the net-removed set, so nothing is copied.
2. **Phase B — insertions**, strata in topological order, semi-naive
   within each stratum.

This is the standard stratified DRed schedule: phase A leaves the store
at ``fixpoint(EDB \\ retracted)``, phase B lifts it to
``fixpoint((EDB \\ retracted) ∪ inserted)``.

Negated literals flip the direction of a change (Gupta, Mumick and
Subrahmanian, SIGMOD 1993): a fact added below deletes the heads it now
blocks, a fact removed below inserts the heads it unblocks.  Phase B
handles both per stratum before its insertion rounds
(:meth:`FixpointMaintainer._renegate`), with the same delete–rederive
and no recomputation; a program without negation never takes that
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.match import AtomSet, rule_heads, unblocked_walk
from ..core.store import FactStore
from ..core.tgd import TGD
from ..core.views import UnionView
from ..datalog.seminaive import delta_rounds

__all__ = [
    "FixpointMaintainer",
    "MaintenanceStats",
    "MaintenanceReport",
    "unmaintainable_reason",
]


def unmaintainable_reason(analysis) -> Optional[str]:
    """Why a program is outside the maintainable fragment (None if in).

    *analysis* is a :class:`~repro.api.program.ProgramAnalysis`.  The
    fragment is full programs: multi-head rules are normalized away,
    but existential heads invent labeled nulls whose derivations the
    store does not record, so deletion cannot be localized.
    """
    if not analysis.full:
        return (
            "existential rules materialize labeled nulls; retraction "
            "over invented values needs provenance the store does not "
            "keep, so the plan recomputes on EDB change"
        )
    return None


@dataclass
class MaintenanceStats:
    """Work counters for one maintenance batch (or an aggregate)."""

    edb_inserted: int = 0    # effective EDB fact insertions
    edb_retracted: int = 0   # effective EDB fact retractions
    derived_added: int = 0   # IDB facts the insertion phase derived
    overdeleted: int = 0     # DRed over-approximation size
    rederived: int = 0       # overdeleted facts with surviving proofs
    removed: int = 0         # net facts deleted from the store
    strata_maintained: int = 0  # strata that ran delete–rederive
    matches: int = 0         # delta-join body matches examined

    def merge(self, other: "MaintenanceStats") -> "MaintenanceStats":
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return self

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


@dataclass
class MaintenanceReport:
    """What one :meth:`repro.api.Session.apply` did, across all caches."""

    version: int
    inserted: Tuple[Atom, ...]
    retracted: Tuple[Atom, ...]
    #: (cache label, per-batch stats) for every fixpoint upgraded in place.
    maintained: List[Tuple[str, MaintenanceStats]] = field(default_factory=list)
    #: (cache label, reason) for every cache dropped to recomputation.
    fallbacks: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def added(self) -> int:
        return len(self.inserted)

    @property
    def dropped(self) -> int:
        return len(self.retracted)

    def totals(self) -> MaintenanceStats:
        total = MaintenanceStats()
        for _, stats in self.maintained:
            total.merge(stats)
        return total

    def describe(self) -> str:
        lines = [
            f"edb: +{self.added} fact(s), -{self.dropped} fact(s) "
            f"(version {self.version})"
        ]
        for label, stats in self.maintained:
            lines.append(
                f"maintained {label}: DRed over {stats.strata_maintained} "
                f"stratum/strata, "
                f"+{stats.derived_added} derived, -{stats.removed} removed, "
                f"{stats.overdeleted} overdeleted / {stats.rederived} rederived"
            )
        for label, reason in self.fallbacks:
            lines.append(f"fallback {label}: {reason}")
        if not self.maintained and not self.fallbacks:
            lines.append("no cached fixpoints to maintain")
        return "\n".join(lines)


def _derived_heads(
    layer, instance, delta, stats: MaintenanceStats
) -> Iterator[Atom]:
    """The head fact of every match of a *layer* rule over *instance*
    that uses a *delta* atom — one per match, so multiplicities are the
    support counts — each counted into ``stats.matches``.  Lazy: a
    consumer that edits *instance* between pulls is seen by the join.
    """
    for fact in rule_heads(layer, instance, delta):
        stats.matches += 1
        yield fact


class FixpointMaintainer:
    """Maintains one saturated store under EDB change sets.

    Holds nothing but the store and the stratum schedule it reads off
    the compiled program's analysis, so building one per batch is free.
    """

    def __init__(self, compiled, store: FactStore):
        analysis = compiled.analysis
        reason = unmaintainable_reason(analysis)
        if reason is not None:
            raise ValueError(f"program is not maintainable: {reason}")
        self.store = store
        self.layers: Tuple[tuple, ...] = analysis.strata.layers
        self.negated = compiled.program.has_negation()
        self.head_group: Dict[str, int] = {
            tgd.head[0].predicate: index
            for index, layer in enumerate(self.layers)
            for tgd in layer
        }

    # -- the batch entry point ---------------------------------------------

    def apply(
        self,
        inserted: Sequence[Atom],
        retracted: Sequence[Atom],
        *,
        edb,
    ) -> MaintenanceStats:
        """Upgrade the store for one effective (inserted, retracted) batch.

        *edb* is the session's asserted-fact base **after** the batch.
        The two sequences must be effective: inserted facts were absent
        from the old EDB, retracted facts present (and the two
        disjoint) — :meth:`repro.api.Session.apply` guarantees this.
        """
        stats = MaintenanceStats()
        inserted_set = set(inserted)
        retracted_set = set(retracted)
        stats.edb_inserted = len(inserted_set)
        stats.edb_retracted = len(retracted_set)

        def in_mid_edb(fact: Atom) -> bool:
            # EDB \ retracted — what phase A may rederive from.
            return fact in edb and fact not in inserted_set

        # ---- Phase A: deletions, stratum by stratum ----------------------
        # Net removals so far: an indexed Instance, because the UnionView
        # probes it inside every old-state join of the deletion phase.
        removed = Instance()
        if retracted_set:
            pending: Dict[int, List[Atom]] = {}
            for fact in retracted_set:
                group = self.head_group.get(fact.predicate)
                if group is None:
                    # Pure EDB predicate: no rule can rederive it.
                    if self.store.discard(fact):
                        removed.add(fact)
                else:
                    pending.setdefault(group, []).append(fact)
            for index, layer in enumerate(self.layers):
                edb_dels = pending.get(index, ())
                if not removed and not edb_dels:
                    continue
                stats.strata_maintained += 1
                self._dred_delete(layer, removed, edb_dels, in_mid_edb, stats)

        # ---- Phase B: insertions, stratum by stratum ---------------------
        delta_plus = AtomSet()
        for fact in inserted_set:
            if self.store.add(fact):
                delta_plus.add(fact)
        before = len(delta_plus)
        # What phase B deletes: heads a newly added fact now blocks.
        lost = Instance()
        if before or (removed and self.negated):
            for layer in self.layers:
                if lost or any(tgd.negated for tgd in layer):
                    self._renegate(layer, removed, lost, delta_plus, edb, stats)
                # Semi-naive rounds within the stratum, seeded from
                # every fact added so far in this batch.
                for event in delta_rounds(self.store, delta_plus, layer):
                    stats.matches += event.considered
                    for fact in event.staged:
                        delta_plus.add(fact)
        stats.derived_added = len(delta_plus) - before
        stats.removed = len(removed) + len(lost)
        return stats

    # -- negation: what an insertion blocks, what a deletion unblocks -------

    def _renegate(
        self,
        layer,
        removed: Instance,
        lost: Instance,
        added: AtomSet,
        edb,
        stats: MaintenanceStats,
    ) -> None:
        """Phase B's step for a stratum with negated literals (or one
        above a phase B deletion), before its insertion rounds:

        1. delete–rederive the heads that a newly *added* fact of a
           negated predicate now blocks, together with everything that
           rests on the facts phase B deleted below (*lost*, which
           gains this stratum's deletions);
        2. seed the insertion rounds with the heads that a newly
           *removed* fact (phase A's or phase B's) unblocks and that
           are derivable now.

        Both joins run each rule with one negated literal moved into
        its positive body, pinned on the changed facts of that literal's
        predicate.  Lower strata are final here, so every check reads
        the store as it stands.
        """
        store = self.store
        flipped = [
            TGD(tgd.body + (literal,), tgd.head)
            for tgd in layer for literal in tgd.negated
        ]
        negated = {a.predicate for tgd in layer for a in tgd.negated}

        def changed(*sources) -> AtomSet:
            return AtomSet(
                fact for source in sources
                for predicate in negated
                for fact in source.by_predicate(predicate)
            )

        blocked = set(_derived_heads(
            flipped, UnionView(store, lost), changed(added), stats
        ))
        if blocked or lost:
            stats.strata_maintained += 1
            self._dred_delete(layer, lost, blocked, edb.__contains__, stats)
        unblocked = set(_derived_heads(
            flipped, store, changed(removed, lost), stats
        ))
        for fact in unblocked:
            if fact not in store and self._derivable(fact, layer):
                store.add(fact)
                added.add(fact)

    # -- deletion: delete–rederive -----------------------------------------

    def _dred_delete(
        self,
        layer,
        removed: Instance,
        edb_dels,
        asserted,
        stats: MaintenanceStats,
    ) -> None:
        """Delete *edb_dels* and what rests on them or on *removed*
        (the deletions so far, which gains this stratum's), then
        rederive what still has a derivation or is *asserted*."""
        store = self.store
        view = UnionView(store, removed)
        # Over-delete: everything with a derivation (in the old state)
        # that touches a deleted fact.  Candidates stay in the store —
        # the old-state joins must still see them.
        over: set[Atom] = {f for f in edb_dels if f in store}
        frontier = AtomSet(set(removed) | over)
        while len(frontier) > 0:
            wave: set[Atom] = set()
            for fact in _derived_heads(layer, view, frontier, stats):
                if fact in over or fact in removed:
                    continue
                if fact in store:
                    wave.add(fact)
            over |= wave
            frontier = AtomSet(wave)
        stats.overdeleted += len(over)
        for fact in over:
            store.discard(fact)
        # Re-derive, in two stages (each fact is checked once, then
        # survivors propagate semi-naively — never a quadratic rescan):
        # 1. facts with direct support from what is left (or still
        #    EDB-asserted) come back;
        remaining = set(over)
        rederived: List[Atom] = []
        for fact in sorted(remaining, key=str):
            if asserted(fact) or self._derivable(fact, layer):
                store.add(fact)
                rederived.append(fact)
                stats.rederived += 1
        remaining.difference_update(rederived)
        # 2. each survivor may complete a proof for another overdeleted
        #    fact — a delta join pinned on the latest rederivals.
        wave = AtomSet(rederived)
        while len(wave) > 0 and remaining:
            fresh: List[Atom] = []
            for fact in _derived_heads(layer, store, wave, stats):
                if fact in remaining:
                    store.add(fact)
                    remaining.discard(fact)
                    fresh.append(fact)
                    stats.rederived += 1
            wave = AtomSet(fresh)
        for fact in remaining:
            removed.add(fact)

    def _derivable(self, fact: Atom, layer) -> bool:
        pinned = AtomSet((fact,))
        for tgd in layer:
            for _ in unblocked_walk(tgd.matcher.from_head, self.store, pinned):
                return True
        return False
