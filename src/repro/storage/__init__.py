"""Pluggable fact-storage backends (the record-manager layer).

The engines — chase runner, semi-naive evaluation —
are written against the :class:`FactStore` interface and accept a
``store=`` argument naming a backend.  The interface
(:mod:`repro.core.store`) and its reference implementation live in
``core``, below this package, and are re-exported here:

* ``"instance"`` — :class:`repro.core.instance.Instance`, the original
  object-set representation with eager per-(position, term) indexes;
* ``"columnar"`` and ``"sharded"`` — the one id-array store,
  :class:`ShardedStore`: interned term-id rows held in
  :class:`Relation` objects with lazily built hash indexes,
  hash-partitioned into shards.  ``"columnar"`` is one resident shard
  per relation, with no byte budget and no spill file; ``"sharded"`` is
  eight shards per relation, and a :func:`sharded_store_factory` store
  may keep them resident under a byte budget, cold shards spilled to
  disk (out-of-core; see :mod:`repro.storage.sharded`).

All backends produce identical answers (the property suite asserts
this); they differ in space and probe cost, which
:meth:`FactStore.memory_report` makes measurable, and in how the
datalog engine runs over them: :func:`kernel_capable` stores (the
id-array ones) get compiled batch kernels, the rest the per-tuple
interpreter.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.memory import deep_sizeof, traced_peak
from ..core.store import FactStore, FrozenStoreError, MemoryReport
from .interning import TermTable
from .relation import Relation
from .sharded import (
    ShardedStore,
    SpillPager,
    StateDirectory,
    sharded_store_factory,
)

__all__ = [
    "FactStore",
    "FrozenStoreError",
    "MemoryReport",
    "Relation",
    "ShardedStore",
    "SpillPager",
    "StateDirectory",
    "sharded_store_factory",
    "TermTable",
    "deep_sizeof",
    "traced_peak",
    "BACKENDS",
    "StoreChoice",
    "make_store",
    "kernel_capable",
]


#: Backend names accepted by ``make_store`` and every ``store=``
#: argument, and what builds an empty store of each.  ``"columnar"`` is
#: one resident shard per relation, so nothing is routed, budgeted or
#: spilled.
_BACKEND_BUILDERS = {
    "instance": Instance,
    "columnar": sharded_store_factory(num_shards=1),
    "sharded": ShardedStore,
}
BACKENDS = tuple(_BACKEND_BUILDERS)

StoreChoice = Union[str, FactStore, Callable[[], FactStore]]


def _backend(name: str) -> Callable[[], FactStore]:
    """The builder behind a :data:`BACKENDS` name."""
    if name not in _BACKEND_BUILDERS:
        raise ValueError(
            f"unknown storage backend {name!r}; expected one of {BACKENDS}"
        )
    return _BACKEND_BUILDERS[name]


def make_store(store: StoreChoice = "instance", atoms: Iterable[Atom] = ()) -> FactStore:
    """Build a fact store from a backend name, factory, or instance.

    * a backend name from :data:`BACKENDS` builds a fresh store seeded
      with *atoms*;
    * a callable is invoked to produce an empty store, then seeded;
    * an existing :class:`FactStore` is seeded in place and returned.
    """
    if isinstance(store, FactStore):
        store.add_all(atoms)
        return store
    if isinstance(store, str):
        store = _backend(store)
    built = store()
    built.add_all(atoms)
    return built


def kernel_capable(store: StoreChoice) -> bool:
    """Whether compiled kernels can join *store*'s relations in place.

    Reads the one declaration, :attr:`FactStore.kernel_capable`, off
    whatever the choice is: a live store, the builder behind a backend
    name, or a factory that carries the attribute of the class it
    builds (:func:`sharded_store_factory` does; an unmarked callable
    is not assumed capable before it has built anything).
    """
    if isinstance(store, str):
        store = _backend(store)
    return getattr(store, "kernel_capable", False)
