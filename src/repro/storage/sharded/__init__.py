"""Out-of-core, budgeted, shard-parallel fact storage.

The package splits the concern in three:

* :mod:`~repro.storage.sharded.store` — :class:`ShardedStore`, the
  :class:`~repro.core.store.FactStore` backend: relations hash-
  partitioned into shards, resident under a byte budget with LRU
  eviction;
* :mod:`~repro.storage.sharded.spill` — :class:`SpillPager`, the
  SQLite-backed page store evicted shards persist to;
* :mod:`~repro.storage.sharded.state` — :class:`StateDirectory`,
  warm-start checkpoints of EDB + promoted fixpoints across restarts.

:func:`sharded_store_factory` packages a configured store as the
factory callable every ``store=`` surface accepts (sessions, the
snapshot manager, ``make_store``), with ``__name__`` pinned to
``"sharded"`` so plan labels and fixpoint cache keys stay stable across
processes — the property warm-start reconstruction depends on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from .spill import SpillPager
from .state import (
    FixpointRecord,
    SavedState,
    StateDirectory,
    program_fingerprint,
)
from .store import DEFAULT_SHARDS, ShardedStore

__all__ = [
    "DEFAULT_SHARDS",
    "FixpointRecord",
    "SavedState",
    "ShardedStore",
    "SpillPager",
    "StateDirectory",
    "program_fingerprint",
    "sharded_store_factory",
]


def sharded_store_factory(
    memory_budget: Optional[int] = None,
    spill_dir: Union[str, Path, None] = None,
    *,
    num_shards: int = DEFAULT_SHARDS,
    key_position: int = 1,
) -> Callable[[], ShardedStore]:
    """A ``store=`` factory building configured :class:`ShardedStore`\\ s.

    Every store the factory builds gets its own spill file (and its own
    interning table — sharing happens through ``fresh()``, i.e. within
    one base/delta family, not across independent engine runs).
    """

    def sharded() -> ShardedStore:
        return ShardedStore(
            memory_budget=memory_budget,
            num_shards=num_shards,
            key_position=key_position,
            spill_dir=spill_dir,
        )

    # The label surfaces in plan explanations and cache keys; the
    # configuration must not change the identity, or a warm restart
    # with a different budget could not find its own checkpoints.
    sharded.__name__ = "sharded"
    sharded.kernel_capable = ShardedStore.kernel_capable
    return sharded
