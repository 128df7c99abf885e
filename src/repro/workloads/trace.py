"""The versioned NDJSON trace schema: recorded op streams.

A trace is the unit of workload exchange — one file holding an op
stream and the generator record that rebuilds the scenario it runs
over (:func:`repro.workloads.materialize_scenario`).  The on-disk form
is newline-delimited JSON: a header record naming the schema version
and carrying the generator's metadata, then one record per timestamped
operation::

    {"meta": {...}, "schema": "repro/trace/v1"}
    {"at": 0.0, "index": 0, "key": "n3", "kind": "query",
     "query": "q(X) :- t(n3, X)."}
    {"at": 0.005, "changes": "+e(n1,n4).", "index": 1, "kind": "update"}

Three op kinds:

* ``query`` — a conjunctive query (typically with a bound constant
  sampled from the workload's key skew);
* ``update`` — one EDB change batch in the ``+atom`` / ``-atom``
  textual delta format :meth:`repro.incremental.ChangeSet.parse` reads;
* ``point_lookup`` — a fully-bound Boolean query (answer ``()`` or
  nothing): the "is this edge live" shape of serving traffic.

Records are serialized with sorted keys and compact separators, so the
same :class:`Trace` always dumps to the identical bytes — seeded
generation being byte-reproducible is asserted by the benchmark, and
the property suite pins ``loads(dumps(t)) == t``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

__all__ = ["OP_KINDS", "TRACE_SCHEMA", "Trace", "TraceError", "TraceOp"]

#: Bump when the NDJSON layout changes incompatibly.
TRACE_SCHEMA = "repro/trace/v1"

#: The op vocabulary of schema v1.
OP_KINDS = ("query", "update", "point_lookup")

#: Record fields (header and op) the validator accepts; anything else
#: is a typo or a future schema this reader does not understand.
_OP_FIELDS = frozenset({"index", "at", "kind", "query", "changes", "key"})
_HEADER_FIELDS = frozenset({"schema", "meta"})


class TraceError(ValueError):
    """A malformed trace file or record."""


@dataclass(frozen=True)
class TraceOp:
    """One timestamped operation of a recorded workload.

    ``at`` is the op's scheduled offset (seconds from trace start),
    the recorded arrival schedule.  ``key`` records which skew-sampled
    key produced the op, for observability only (summaries report key
    concentration).
    """

    index: int
    at: float
    kind: str
    query: str = ""
    changes: str = ""
    key: str = ""

    def as_record(self) -> dict:
        record = {"index": self.index, "at": self.at, "kind": self.kind}
        if self.query:
            record["query"] = self.query
        if self.changes:
            record["changes"] = self.changes
        if self.key:
            record["key"] = self.key
        return record

    @classmethod
    def from_record(cls, record: dict, *, line: int = 0) -> "TraceOp":
        """Validate and build one op from its JSON record."""
        where = f"line {line}: " if line else ""
        if not isinstance(record, dict):
            raise TraceError(f"{where}op record must be an object")
        unknown = set(record) - _OP_FIELDS
        if unknown:
            raise TraceError(
                f"{where}unknown op field(s) {sorted(unknown)}; "
                f"schema {TRACE_SCHEMA} accepts {sorted(_OP_FIELDS)}"
            )
        for name in ("index", "at", "kind"):
            if name not in record:
                raise TraceError(f"{where}op record missing {name!r}")
        index, at, kind = record["index"], record["at"], record["kind"]
        if not isinstance(index, int) or index < 0:
            raise TraceError(f"{where}index must be a non-negative integer")
        if not isinstance(at, (int, float)) or at < 0:
            raise TraceError(f"{where}at must be a non-negative number")
        if kind not in OP_KINDS:
            raise TraceError(
                f"{where}unknown op kind {kind!r}; "
                f"choose from {', '.join(OP_KINDS)}"
            )
        query = record.get("query", "")
        changes = record.get("changes", "")
        if kind in ("query", "point_lookup"):
            if not query:
                raise TraceError(f"{where}{kind} op needs a 'query' field")
            if changes:
                raise TraceError(f"{where}{kind} op cannot carry 'changes'")
        else:  # update
            if not changes:
                raise TraceError(f"{where}update op needs a 'changes' field")
            if query:
                raise TraceError(f"{where}update op cannot carry 'query'")
        return cls(
            index=index,
            at=float(at),
            kind=kind,
            query=query,
            changes=changes,
            key=record.get("key", ""),
        )


@dataclass(frozen=True)
class Trace:
    """A recorded workload: header metadata plus the op stream."""

    ops: Tuple[TraceOp, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        """The canonical NDJSON text (byte-stable for equal traces)."""
        lines = [
            json.dumps(
                {"schema": TRACE_SCHEMA, "meta": self.meta},
                sort_keys=True,
                separators=(",", ":"),
            )
        ]
        lines.extend(
            json.dumps(op.as_record(), sort_keys=True, separators=(",", ":"))
            for op in self.ops
        )
        return "\n".join(lines) + "\n"

    def dump(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse and validate NDJSON trace text."""
        header = None
        ops: List[TraceOp] = []
        for line_number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"line {line_number}: not valid JSON: {error}"
                ) from error
            if header is None:
                if not isinstance(record, dict) or "schema" not in record:
                    raise TraceError(
                        f"line {line_number}: the first record must be a "
                        'header with a "schema" field'
                    )
                unknown = set(record) - _HEADER_FIELDS
                if unknown:
                    raise TraceError(
                        f"line {line_number}: unknown header field(s) "
                        f"{sorted(unknown)}"
                    )
                if record["schema"] != TRACE_SCHEMA:
                    raise TraceError(
                        f"line {line_number}: unsupported trace schema "
                        f"{record['schema']!r}; this reader understands "
                        f"{TRACE_SCHEMA!r}"
                    )
                header = record
                continue
            op = TraceOp.from_record(record, line=line_number)
            if op.index != len(ops):
                raise TraceError(
                    f"line {line_number}: op index {op.index} out of order "
                    f"(expected {len(ops)})"
                )
            ops.append(op)
        if header is None:
            raise TraceError("empty trace: no header record")
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise TraceError("header 'meta' must be an object")
        return cls(ops=tuple(ops), meta=meta)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise TraceError(f"cannot read {path}: {error}") from error
        return cls.loads(text)

    # -- validation and summary --------------------------------------------

    def validate(self) -> None:
        """Deep validation: every query parses, every delta parses.

        Structural validation happens on load; this pass additionally
        runs the language parsers, so a consumer never discovers a
        typo'd atom halfway through a million-op stream.
        """
        from ..incremental import ChangeSet
        from ..lang.parser import parse_query

        for op in self.ops:
            try:
                if op.kind == "update":
                    if not ChangeSet.parse(op.changes):
                        raise ValueError("empty change batch")
                else:
                    query = parse_query(op.query)
                    if op.kind == "point_lookup" and not query.is_boolean():
                        raise ValueError(
                            "point_lookup queries must be Boolean "
                            "(no output variables)"
                        )
            except ValueError as error:
                raise TraceError(f"op {op.index}: {error}") from error

    def summary(self) -> dict:
        """Counts, duration, and key-concentration figures."""
        kinds: Dict[str, int] = {kind: 0 for kind in OP_KINDS}
        keys: Dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
            if op.key:
                keys[op.key] = keys.get(op.key, 0) + 1
        top = sorted(keys.items(), key=lambda item: (-item[1], item[0]))[:5]
        keyed = sum(keys.values())
        return {
            "schema": TRACE_SCHEMA,
            "ops": len(self.ops),
            "kinds": kinds,
            "duration_seconds": max((op.at for op in self.ops), default=0.0),
            "distinct_keys": len(keys),
            "top_keys": [
                {
                    "key": key,
                    "count": count,
                    "fraction": count / keyed if keyed else 0.0,
                }
                for key, count in top
            ],
            "meta": dict(self.meta),
        }
