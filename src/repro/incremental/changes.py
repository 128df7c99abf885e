"""The change model for incremental view maintenance.

A :class:`ChangeSet` is one batch of EDB mutations — fact insertions
*and retractions* — in the order the caller issued them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..core.atoms import Atom

__all__ = ["ChangeSet"]

#: Operation tags used in the textual delta format (``+atom`` inserts,
#: ``-atom`` retracts) and in :attr:`ChangeSet.ops`.
INSERT = "+"
RETRACT = "-"


@dataclass(frozen=True)
class ChangeSet:
    """An ordered batch of EDB insertions and retractions.

    ``ops`` preserves issue order; :meth:`net` collapses it to
    last-wins insert/retract tuples (inserting then retracting the same
    fact cancels, and vice versa); :meth:`effective` cuts that down to
    what changes a given EDB, which is what the session, the server and
    the maintainer consume.
    """

    ops: Tuple[Tuple[str, Atom], ...] = ()

    @classmethod
    def inserting(cls, atoms: Iterable[Atom]) -> "ChangeSet":
        return cls(tuple((INSERT, atom) for atom in atoms))

    @classmethod
    def retracting(cls, atoms: Iterable[Atom]) -> "ChangeSet":
        return cls(tuple((RETRACT, atom) for atom in atoms))

    @classmethod
    def of(cls, inserts: Iterable[Atom] = (), retracts: Iterable[Atom] = ()) -> "ChangeSet":
        """Retractions first, then insertions (the common batch shape)."""
        return cls(
            tuple((RETRACT, atom) for atom in retracts)
            + tuple((INSERT, atom) for atom in inserts)
        )

    @classmethod
    def parse(cls, text: str) -> "ChangeSet":
        """Parse the textual delta format: one ``+atom`` / ``-atom`` per line.

        Blank lines and ``#`` comments are skipped; a bare atom line
        (no sign) is an insertion; the trailing period is optional.
        Atoms must be ground facts (constants only).
        """
        from ..lang.parser import parse_atom

        ops: List[Tuple[str, Atom]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            sign = INSERT
            if line[0] in (INSERT, RETRACT):
                sign, line = line[0], line[1:].strip()
            try:
                atom = parse_atom(line)
            except ValueError as error:
                raise ValueError(f"line {number}: {error}") from error
            if not atom.is_fact():
                raise ValueError(
                    f"line {number}: EDB deltas must be ground facts "
                    f"(constants only), got {atom}"
                )
            ops.append((sign, atom))
        return cls(tuple(ops))

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def inserts(self) -> Tuple[Atom, ...]:
        return self.net()[0]

    @property
    def retracts(self) -> Tuple[Atom, ...]:
        return self.net()[1]

    def net(self) -> Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]:
        """The last-wins (inserts, retracts) pair, each duplicate-free.

        A fact's final disposition is its last operation: ``+p, -p``
        nets to one retraction, ``-p, +p`` to one insertion.
        """
        final: dict[Atom, str] = {}
        order: List[Atom] = []
        for sign, atom in self.ops:
            if atom not in final:
                order.append(atom)
            final[atom] = sign
        inserts = tuple(a for a in order if final[a] == INSERT)
        retracts = tuple(a for a in order if final[a] == RETRACT)
        return inserts, retracts

    def effective(self, edb) -> Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]:
        """:meth:`net` relative to *edb* (anything answering ``in``):
        re-asserting a present fact and retracting an absent one are
        no-ops, so what is left is exactly what the batch changes."""
        inserts, retracts = self.net()
        return (
            tuple(fact for fact in inserts if fact not in edb),
            tuple(fact for fact in retracts if fact in edb),
        )

    def describe(self) -> str:
        inserts, retracts = self.net()
        return f"ChangeSet(+{len(inserts)}, -{len(retracts)})"
