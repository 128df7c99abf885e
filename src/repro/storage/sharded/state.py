"""Warm-start persistence: a directory of promoted fixpoints.

A :class:`StateDirectory` checkpoints the serving layer's durable
state — the current EDB plus every maintainable saturated
materialization promoted by the fixpoint caches — so a restarted
``repro serve --state-dir`` answers its first query from the persisted
fixpoint instead of resaturating from scratch.  This is the sharded
store's out-of-core story completed across process boundaries: spilling
bounds memory *within* a run, the state directory carries the work
*between* runs.

What is persisted is deliberately engine-independent: ground atoms
(term objects pickle directly; ids are an in-process encoding and never
leave the process) keyed by the stable parts of the fixpoint cache
identity — (method, store name, engine kwargs).  The process-local
parts of the key (``id(program)``, demand tokens) are reconstructed or
excluded on load: demand-specific (magic) materializations are never
persisted, mirroring the migration policy across snapshot versions.

A checkpoint is only loadable by a server running the *same program* —
enforced with a content fingerprint, not a filename convention, so a
stale directory behind an edited program falls back to cold start
instead of serving answers from the wrong rules.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple, Union

from ...core.atoms import Atom

__all__ = ["FixpointRecord", "SavedState", "StateDirectory",
           "program_fingerprint"]

#: Bump when the pickle layout changes; mismatched checkpoints are
#: ignored (cold start), never migrated.  Format 2: terms pickle as
#: ``Constant(value)`` calls that re-intern on load, atoms as
#: ``Atom(predicate, args)`` calls that rehash on load.
STATE_FORMAT = 2


def program_fingerprint(compiled) -> str:
    """A stable content identity for a compiled program.

    Prefers the source text (what the user deployed); falls back to the
    rule reprs for programs built in memory.  Either way the name is
    included, so two deployments of one rule set checkpoint separately.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(compiled.name.encode())
    digest.update(b"\x00")
    source = getattr(compiled, "source", None)
    if source:
        digest.update(source.encode())
    else:
        for rule in compiled.program:
            digest.update(repr(rule).encode())
            digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class FixpointRecord:
    """One persisted saturated materialization.

    ``kwargs`` is the sorted ``(name, repr(value))`` tuple from the
    fixpoint cache key — already stable and comparable across
    processes.  ``atoms`` is the full saturated atom set; the loader
    rebuilds whatever backend the serving store choice names.
    """

    method: str
    store_name: str
    kwargs: tuple
    atoms: Tuple[Atom, ...]


@dataclass(frozen=True)
class SavedState:
    """One checkpoint: the EDB and its promoted fixpoints."""

    program_key: str
    store_name: str
    version: int
    edb: Tuple[Atom, ...]
    fixpoints: Tuple[FixpointRecord, ...] = field(default_factory=tuple)


class StateDirectory:
    """Atomic pickle persistence under one directory.

    Checkpoints replace each other atomically (write-then-rename), so a
    crash mid-checkpoint leaves the previous one intact — the warm
    start is best-effort but never torn.  ``pickle`` and ``tempfile``
    are imported by the first :meth:`save` or :meth:`load`, so a server
    without a state directory never loads them.
    """

    STATE_FILE = "state.pkl"

    def __init__(self, path: Union[str, Path]):
        self._path = Path(path)

    @property
    def path(self) -> Path:
        return self._path

    @property
    def state_file(self) -> Path:
        return self._path / self.STATE_FILE

    def save(self, state: SavedState) -> Path:
        """Persist *state* atomically; returns the checkpoint file."""
        import pickle
        import tempfile

        self._path.mkdir(parents=True, exist_ok=True)
        payload = {"format": STATE_FORMAT, "state": state}
        fd, tmp_name = tempfile.mkstemp(
            prefix="state-", suffix=".tmp", dir=str(self._path)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self.state_file)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return self.state_file

    def load(self, program_key: Optional[str] = None) -> Optional[SavedState]:
        """The checkpoint, or None when absent/foreign/corrupt.

        With *program_key* given, a checkpoint of a different program
        is treated as absent (cold start) — serving cached fixpoints of
        the wrong rules would be silent corruption, an empty cache is
        merely slow.
        """
        import pickle

        try:
            with open(self.state_file, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError):
            # TypeError: an older format whose objects no longer
            # construct the way it pickled them (format 1 terms).
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != STATE_FORMAT:
            return None
        state = payload.get("state")
        if not isinstance(state, SavedState):
            return None
        if program_key is not None and state.program_key != program_key:
            return None
        return state

    def clear(self) -> None:
        try:
            os.unlink(self.state_file)
        except OSError:
            pass

    def __repr__(self) -> str:
        present = "present" if self.state_file.exists() else "empty"
        return f"StateDirectory({self._path}, {present})"
