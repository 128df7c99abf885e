"""The disk half of the sharded store: a SQLite-backed page store.

A :class:`SpillPager` persists evicted shards as *pages*: one row per
(predicate, arity, shard index), holding the shard's term-id rows as a
packed binary blob (``array('q')`` — 8-byte little-endian ids, arity
ids per fact).  SQLite is used purely as a transactional page manager —
exactly the role the Vadalog record manager assigns its persistence
layer — not as a query engine: probes never run SQL over facts, they
reload the page and scan interned ids in memory.

The pager is lazy: no file or connection exists until the first write,
so constructing a sharded store (which every engine run does) costs no
I/O when the working set fits the budget — and no SQLite until the
first write: ``sqlite3`` is imported by the first connection, so a
process that never spills never maps the library.
"""

from __future__ import annotations

import threading
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["SpillPager"]

Row = Tuple[int, ...]

#: Bytes per stored id (``array('q')``): fixed-width keeps page size a
#: pure function of row count and arity.
ID_BYTES = 8


def pack_rows(rows: Iterable[Row]) -> bytes:
    """Flatten rows of term-ids into the page payload."""
    flat = array("q")
    for row in rows:
        flat.extend(row)
    return flat.tobytes()


def unpack_rows(payload: bytes, arity: int, count: int) -> List[Row]:
    """Rebuild rows from a page payload (inverse of :func:`pack_rows`).

    *count* disambiguates the zero-arity case, where every row packs to
    zero bytes (a propositional relation holds at most one fact, but
    the encoding stays total).
    """
    if arity == 0:
        return [()] * count
    flat = array("q")
    flat.frombytes(payload)
    return [
        tuple(flat[i : i + arity]) for i in range(0, len(flat), arity)
    ]


class SpillPager:
    """Pages of evicted shard rows, keyed by (predicate, arity, shard).

    Thread-safe: one connection guarded by one lock (the sharded store
    serializes its own structural mutations the same way).  ``bytes``
    tracks the live payload bytes on disk — the "spilled" half of
    ``memory_report()`` — without touching the file.
    """

    def __init__(self, path: Optional[Path] = None):
        self._path = Path(path) if path is not None else None
        self._tmpdir = None  # owns the backing dir when auto-created
        self._conn = None  # a sqlite3.Connection once connected
        self._lock = threading.Lock()
        #: page key → payload bytes, mirrored so accounting is O(1).
        self._page_bytes: Dict[Tuple[str, int, int], int] = {}
        self.writes = 0
        self.reads = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def path(self) -> Optional[Path]:
        """The backing file, or None while still unmaterialized."""
        return self._path

    def _connect(self):
        if self._conn is None:
            import sqlite3

            if self._path is None:
                import tempfile

                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-spill-"
                )
                self._path = Path(self._tmpdir.name) / "spill.sqlite"
            self._path.parent.mkdir(parents=True, exist_ok=True)
            # check_same_thread=False: all access is serialized by
            # self._lock, the store's reader threads included.
            self._conn = sqlite3.connect(
                str(self._path), check_same_thread=False
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS pages ("
                "  predicate TEXT NOT NULL,"
                "  arity INTEGER NOT NULL,"
                "  shard INTEGER NOT NULL,"
                "  count INTEGER NOT NULL,"
                "  payload BLOB NOT NULL,"
                "  PRIMARY KEY (predicate, arity, shard)"
                ")"
            )
            self._conn.commit()
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            if self._tmpdir is not None:
                self._tmpdir.cleanup()
                self._tmpdir = None

    # -- pages -------------------------------------------------------------

    def write(
        self, predicate: str, arity: int, shard: int, rows: Iterable[Row]
    ) -> int:
        """Persist one shard's rows; returns the payload bytes on disk."""
        rows = list(rows)
        payload = pack_rows(rows)
        with self._lock:
            conn = self._connect()
            conn.execute(
                "INSERT OR REPLACE INTO pages "
                "(predicate, arity, shard, count, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                (predicate, arity, shard, len(rows), payload),
            )
            conn.commit()
            self._page_bytes[(predicate, arity, shard)] = len(payload)
            self.writes += 1
        return len(payload)

    def read(
        self, predicate: str, arity: int, shard: int
    ) -> Optional[List[Row]]:
        """Load one page's rows, or None if never written."""
        with self._lock:
            if self._conn is None:
                return None
            cursor = self._conn.execute(
                "SELECT payload, count FROM pages "
                "WHERE predicate = ? AND arity = ? AND shard = ?",
                (predicate, arity, shard),
            )
            found = cursor.fetchone()
            if found is None:
                return None
            self.reads += 1
        return unpack_rows(found[0], arity, found[1])

    def delete(self, predicate: str, arity: int, shard: int) -> None:
        """Drop one page (its shard was reloaded and re-dirtied)."""
        with self._lock:
            if self._conn is None:
                return
            self._conn.execute(
                "DELETE FROM pages "
                "WHERE predicate = ? AND arity = ? AND shard = ?",
                (predicate, arity, shard),
            )
            self._conn.commit()
            self._page_bytes.pop((predicate, arity, shard), None)

    # -- accounting --------------------------------------------------------

    @property
    def bytes(self) -> int:
        """Live payload bytes across all pages (disk-resident facts)."""
        with self._lock:
            return sum(self._page_bytes.values())

    @property
    def pages(self) -> int:
        with self._lock:
            return len(self._page_bytes)

    def __repr__(self) -> str:
        return (
            f"SpillPager({self.pages} pages, {self.bytes}B, "
            f"path={str(self._path) if self._path else '<unmaterialized>'})"
        )
