"""The consolidated benchmark artifact: ``BENCH_suite.json``.

One stable schema for the whole scenario matrix, replacing the
scattered per-benchmark ad-hoc JSON writers: every cell is one
(suite, scenario, query) × engine × store × scale measurement with
wall-clock seconds, resident bytes (per-component ``memory_report()``
accounting), the certain-answer count plus a content digest, and the
engine's work counters (semi-naive rounds, chase/network events,
proof-tree decisions).

:func:`check_agreement` is the correctness half of the artifact: for
each (suite, scenario, query) group, every *successful* cell —
whatever engine and storage backend produced it — must report the same
certain-answer set.  The digest (not just the count) is compared, so
two engines cannot agree by accident of cardinality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "CellResult",
    "SuiteReport",
    "answer_digest",
    "check_agreement",
]

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = "repro/bench-suite/v1"

#: Cell statuses: ``ok`` cells enter the agreement check; ``skipped``
#: records an engine the program class rules out; ``not-saturated`` a
#: strict materializing run that hit its budget (sound prefix only);
#: ``error`` anything else — the pytest/CI entry fails on these.
CELL_STATUSES = ("ok", "skipped", "not-saturated", "error")


def answer_digest(answers: Iterable[Tuple]) -> str:
    """A content digest of a certain-answer set (order-independent).

    Terms and rows are length-prefixed so the encoding is injective:
    a constant containing ``,`` or a newline cannot make two different
    answer sets collide into one digest (which would silently defeat
    the agreement check).
    """
    rows = sorted(
        ";".join(
            f"{len(text)}:{text}"
            for text in (str(term) for term in answer)
        )
        for answer in answers
    )
    canonical = "\n".join(f"{len(row)}#{row}" for row in rows)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class CellResult:
    """One matrix cell: a (scenario, query) run on one engine × store."""

    suite: str
    scenario: str
    query: str
    engine: str
    store: str
    scale: str
    status: str = "ok"
    seconds: float = 0.0
    answers: int = 0
    answer_digest: str = ""
    rounds: int = 0
    events: int = 0
    decided_tuples: int = 0
    #: How the datalog engine's rounds actually ran on this store
    #: (``"kernel"``/``"interpret"``; empty off the datalog engine) and
    #: how many batch operations the compiled kernels executed.
    exec_mode: str = ""
    kernel_batches: int = 0
    resident_bytes: int = 0
    spilled_bytes: int = 0
    memory: Dict[str, int] = field(default_factory=dict)
    detail: str = ""

    @property
    def group_key(self) -> Tuple[str, str, str]:
        """Cells sharing this key must agree on the answer set."""
        return (self.suite, self.scenario, self.query)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "scenario": self.scenario,
            "query": self.query,
            "engine": self.engine,
            "store": self.store,
            "scale": self.scale,
            "status": self.status,
            "seconds": self.seconds,
            "answers": self.answers,
            "answer_digest": self.answer_digest,
            "rounds": self.rounds,
            "events": self.events,
            "decided_tuples": self.decided_tuples,
            "exec_mode": self.exec_mode,
            "kernel_batches": self.kernel_batches,
            "resident_bytes": self.resident_bytes,
            "spilled_bytes": self.spilled_bytes,
            "memory": dict(self.memory),
            "detail": self.detail,
        }


def check_agreement(cells: Sequence[CellResult]) -> List[dict]:
    """Cross-engine/cross-store answer agreement over the matrix.

    Returns one record per (suite, scenario, query) whose successful
    cells disagree — empty means every engine and every backend told
    the same story.
    """
    groups: Dict[Tuple[str, str, str], List[CellResult]] = {}
    for cell in cells:
        if cell.status == "ok":
            groups.setdefault(cell.group_key, []).append(cell)
    disagreements: List[dict] = []
    for key, members in sorted(groups.items()):
        signatures = {(m.answers, m.answer_digest) for m in members}
        if len(signatures) > 1:
            disagreements.append(
                {
                    "suite": key[0],
                    "scenario": key[1],
                    "query": key[2],
                    "cells": [
                        {
                            "engine": m.engine,
                            "store": m.store,
                            "answers": m.answers,
                            "answer_digest": m.answer_digest,
                        }
                        for m in members
                    ],
                }
            )
    return disagreements


@dataclass
class SuiteReport:
    """The whole matrix run, serializable to ``BENCH_suite.json``."""

    scale: str
    suites: Tuple[str, ...]
    engines: Tuple[str, ...]
    stores: Tuple[str, ...]
    cells: List[CellResult] = field(default_factory=list)
    disagreements: List[dict] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def ok_cells(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.status == "ok"]

    @property
    def error_cells(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.status == "error"]

    @property
    def agreement_groups_checked(self) -> int:
        return len({cell.group_key for cell in self.ok_cells})

    def engines_ok_per_suite(self) -> Dict[str, set]:
        """Which engines produced at least one successful cell per suite."""
        covered: Dict[str, set] = {suite: set() for suite in self.suites}
        for cell in self.ok_cells:
            covered.setdefault(cell.suite, set()).add(cell.engine)
        return covered

    def stores_ok_per_suite(self) -> Dict[str, set]:
        covered: Dict[str, set] = {suite: set() for suite in self.suites}
        for cell in self.ok_cells:
            covered.setdefault(cell.suite, set()).add(cell.store)
        return covered

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scale": self.scale,
            "suites": list(self.suites),
            "engines": list(self.engines),
            "stores": list(self.stores),
            "meta": dict(self.meta),
            "agreement": {
                "groups_checked": self.agreement_groups_checked,
                "disagreements": self.disagreements,
            },
            "cells": [cell.as_dict() for cell in self.cells],
        }

    def write(self, path) -> Path:
        """Serialize to *path*, creating parent directories."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    def summary_rows(self) -> List[Tuple[str, ...]]:
        """Printable (suite/scenario, engine, store, status, …) rows."""
        rows: List[Tuple[str, ...]] = []
        for cell in self.cells:
            rows.append(
                (
                    f"{cell.suite}/{cell.scenario}",
                    cell.engine,
                    cell.store,
                    cell.status,
                    f"{cell.seconds:.3f}" if cell.status == "ok" else "-",
                    str(cell.answers) if cell.status == "ok" else "-",
                    f"{cell.resident_bytes / 1024:.0f} KiB"
                    if cell.resident_bytes
                    else "-",
                )
            )
        return rows
