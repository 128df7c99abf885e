"""Incremental view maintenance (IVM) over the storage/session layers.

The paper bounds the *space* of reasoning; this package bounds the
*rework*: when the EDB changes, a session's cached saturated
materializations are upgraded in place instead of being discarded.
Insertions ride a semi-naive fast path seeded from just the new facts;
retractions run delete–rederive (DRed) on every stratum, keeping no
state between batches — the delta-driven continuous-reasoning shape of
the Vadalog system and its streaming follow-ups (PAPERS.md: 1807.08709,
2311.12236).

Entry points:

* :meth:`repro.api.Session.apply` — apply a :class:`ChangeSet` to the
  session EDB, routing every cached fixpoint through a
  :class:`FixpointMaintainer` (falling back to recomputation, with a
  recorded reason, outside the maintainable fragment);
* ``python -m repro update`` — the same from the command line, reading
  ``+atom`` / ``-atom`` delta lines.
"""

from .changes import ChangeSet
from .maintain import (
    FixpointMaintainer,
    MaintenanceReport,
    MaintenanceStats,
    unmaintainable_reason,
)

__all__ = [
    "ChangeSet",
    "FixpointMaintainer",
    "MaintenanceReport",
    "MaintenanceStats",
    "unmaintainable_reason",
]
