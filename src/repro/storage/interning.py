"""Term interning.

A :class:`TermTable` maps ground terms (constants and labeled nulls) to
dense integer ids and back.  Interning is what makes columnar storage
space-efficient: each distinct term is stored once, facts become tuples
of small integers, and term equality during index probes becomes
integer equality.

Ids are dense and stable: the *n*-th distinct term interned receives id
``n``, and decoding returns the exact object first interned (so, e.g.,
a labeled null keeps the ``depth`` bookkeeping it was created with).

One table may be *shared* by several stores (a columnar base and its
overlay delta, or every shard of a sharded store): ids are global to
the table, not to any holder, so rows written by one holder decode
identically through another.  Sharing is what keeps the interning cost
a one-time charge — ``memory_report()`` with a shared visited-set
counts a shared table exactly once.  The intern path is made
thread-safe for that reason: a frozen base's table may still grow
through the mutable delta layered above it.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set

from ..core.memory import deep_sizeof
from ..core.terms import Term

__all__ = ["TermTable"]


class TermTable:
    """A bidirectional term ↔ integer-id dictionary."""

    __slots__ = ("_ids", "_terms", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._lock = threading.Lock()

    def intern(self, term: Term) -> int:
        """The id of *term*, assigning the next dense id if unseen."""
        tid = self._ids.get(term)
        if tid is None:
            # Double-checked: the lock is paid only on a miss, and two
            # racing holders of a shared table agree on the id.
            with self._lock:
                tid = self._ids.get(term)
                if tid is None:
                    tid = len(self._terms)
                    self._terms.append(term)
                    self._ids[term] = tid
        return tid

    def intern_many(self, terms: Iterable[Term]) -> List[int]:
        """Ids for *terms* in order, interning unseen ones in bulk.

        Equivalent to ``[self.intern(t) for t in terms]`` — same ids,
        same assignment order for unseen terms — but the lock is taken
        once for the whole batch of misses instead of once per miss,
        which is what makes bulk loading and kernel-side head
        construction cheap on a shared table.
        """
        ids = self._ids
        resolved: List[int] = []
        pending: List[tuple[int, Term]] = []
        for position, term in enumerate(terms):
            tid = ids.get(term)
            resolved.append(tid)
            if tid is None:
                pending.append((position, term))
        if pending:
            with self._lock:
                for position, term in pending:
                    tid = ids.get(term)
                    if tid is None:
                        tid = len(self._terms)
                        self._terms.append(term)
                        ids[term] = tid
                    resolved[position] = tid
        return resolved

    def id_of(self, term: Term) -> Optional[int]:
        """The id of *term*, or None if it was never interned."""
        return self._ids.get(term)

    def term(self, tid: int) -> Term:
        """The term with id *tid* (the object first interned)."""
        return self._terms[tid]

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: object) -> bool:
        return term in self._ids

    def measured_bytes(self, seen: Set[int]) -> int:
        """Deep size of the table, shared-``seen`` accounting."""
        return deep_sizeof(self._ids, seen) + deep_sizeof(self._terms, seen)

    def __repr__(self) -> str:
        return f"TermTable({len(self)} terms)"
