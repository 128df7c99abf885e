"""Pluggable fact-storage backends (the record-manager layer).

The engines — chase runner, operator network, semi-naive evaluation —
are written against the :class:`FactStore` interface and accept a
``store=`` argument naming a backend.  The interface
(:mod:`repro.core.store`) and its reference implementation live in
``core``, below this package, and are re-exported here:

* ``"instance"`` — :class:`repro.core.instance.Instance`, the original
  object-set representation with eager per-(position, term) indexes;
* ``"columnar"`` — :class:`ColumnarStore`, interned term-id tuples with
  lazy per-(predicate, position) indexes and an LRU probe cache;
* ``"sharded"`` — :class:`ShardedStore`, relations hash-partitioned
  into shards kept resident under a byte budget, cold shards spilled
  to disk (out-of-core; see :mod:`repro.storage.sharded`).

All backends produce identical answers (the property suite asserts
this); they differ in space and probe cost, which
:meth:`FactStore.memory_report` makes measurable, and in how the
datalog engine runs over them: :func:`kernel_capable` stores
(columnar, sharded) get compiled batch kernels, the rest the per-tuple
interpreter.

:class:`DeltaOverlay` is also a :class:`FactStore` but not a backend:
it is the serving layer's O(|change|) version layer over a sealed base
(see :mod:`repro.server.snapshot`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.memory import deep_sizeof, traced_peak
from ..core.store import FactStore, FrozenStoreError, MemoryReport
from .columnar import ColumnarStore
from .delta import DeltaOverlay
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
    "ColumnarStore",
    "DeltaOverlay",
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
#: argument, and the :class:`FactStore` class behind each.
_BACKEND_CLASSES = {
    "instance": Instance,
    "columnar": ColumnarStore,
    "sharded": ShardedStore,
}
BACKENDS = tuple(_BACKEND_CLASSES)

StoreChoice = Union[str, FactStore, Callable[[], FactStore]]


def _backend_class(name: str) -> type:
    """The :class:`FactStore` class behind a :data:`BACKENDS` name."""
    if name not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown storage backend {name!r}; expected one of {BACKENDS}"
        )
    return _BACKEND_CLASSES[name]


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
    if callable(store):
        built = store()
        built.add_all(atoms)
        return built
    return _backend_class(store)(atoms)


def kernel_capable(store: StoreChoice) -> bool:
    """Whether compiled kernels can join *store*'s relations in place.

    Reads the one declaration, :attr:`FactStore.kernel_capable`, off
    whatever the choice is: a live store, the class behind a backend
    name, or a factory that carries the attribute of the class it
    builds (:func:`sharded_store_factory` does; an unmarked callable
    is not assumed capable before it has built anything).
    """
    if isinstance(store, str):
        store = _backend_class(store)
    return getattr(store, "kernel_capable", False)
