"""Termination control for the chase.

The chase of a warded set of TGDs need not terminate; the Vadalog system
controls recursion with *guide structures* (linear forest, warded forest,
lifted linear forest — Section 7(1) and reference [6]).  Those structures
are proprietary and only sketched in the literature, so this module
provides the closest open implementations of the same role
(a **[SIM]** substitution):

* :class:`DepthPolicy` — bound the *null depth* (how many nested
  existential inventions lead to a term).  Sound for query answering in
  the sense that everything derived is certain; completeness requires a
  sufficiently large bound.
* :class:`LinearForestPolicy` — the linear-forest guide: per-chain
  pattern tracking over invented nulls.  An invention is cut when its
  pattern already occurs along the chain of nulls it consumes (the E7
  ablation benchmark measures it against :class:`AlwaysFire`).

Policies are consulted *before* a trigger fires; returning False
suppresses it.  They also see the atoms the trigger would create.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Protocol, Sequence

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Null
from .trigger import Trigger

__all__ = [
    "TerminationPolicy",
    "AlwaysFire",
    "DepthPolicy",
    "LinearForestPolicy",
]


class TerminationPolicy(Protocol):
    """Decides whether a trigger may fire given what it would produce."""

    def should_fire(
        self,
        trigger: Trigger,
        produced: Sequence[Atom],
        instance: Instance,
    ) -> bool:
        """Return False to suppress the trigger."""
        ...


class AlwaysFire:
    """The no-op policy: never suppresses anything."""

    def should_fire(
        self, trigger: Trigger, produced: Sequence[Atom], instance: Instance
    ) -> bool:
        return True


class DepthPolicy:
    """Suppress triggers that would create nulls deeper than *max_depth*."""

    def __init__(self, max_depth: int):
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        self.max_depth = max_depth

    def should_fire(
        self, trigger: Trigger, produced: Sequence[Atom], instance: Instance
    ) -> bool:
        for atom in produced:
            for term in atom.args:
                if isinstance(term, Null) and term.depth > self.max_depth:
                    return False
        return True


class LinearForestPolicy:
    """Per-chain pattern tracking over invented nulls (the linear forest
    of Section 7(1)).

    Every null carries the *pattern* of the firing that invented it: the
    rule and the shape of its body image, nulls abstracted positionally
    (first-occurrence indices across the whole image, so the equality
    pattern is kept).  A trigger that invents is cut when its pattern
    already occurs in the *ancestry* of the nulls it consumes: the
    sub-chase it would open is isomorphic to one already open further up
    the same chain, so no new ground consequence can come from it.  For
    warded programs the number of patterns is bounded, which is why the
    chase under this policy terminates there.  Existential-free
    triggers always fire.  ``cuts`` counts the triggers it suppressed.
    """

    def __init__(self) -> None:
        self._pattern_ids: Dict[tuple, int] = {}
        self._pattern_of_null: Dict[Null, int] = {}
        self._ancestry: Dict[Null, FrozenSet[int]] = {}
        self.cuts = 0

    def _pattern(self, trigger: Trigger) -> int:
        """Intern the isomorphism type of a firing.  Nulls are abstracted
        positionally, *not* by their own pattern — recursing into null
        patterns would make the pattern space unbounded and the policy
        would never cut."""
        null_index: Dict[Null, int] = {}
        shaped = []
        for atom in sorted(trigger.image, key=str):
            shaped.append((atom.predicate, tuple(
                ("null", null_index.setdefault(term, len(null_index)))
                if isinstance(term, Null) else ("const", str(term))
                for term in atom.args
            )))
        shape = (trigger.tgd_index, tuple(shaped))
        return self._pattern_ids.setdefault(shape, len(self._pattern_ids))

    def _input_ancestry(self, image: Sequence[Atom]) -> FrozenSet[int]:
        collected: set[int] = set()
        for atom in image:
            for term in atom.args:
                if isinstance(term, Null):
                    collected.update(self._ancestry.get(term, ()))
                    pattern = self._pattern_of_null.get(term)
                    if pattern is not None:
                        collected.add(pattern)
        return frozenset(collected)

    def should_fire(
        self, trigger: Trigger, produced: Sequence[Atom], instance: Instance
    ) -> bool:
        """False iff this invention repeats a pattern along its own
        chain; when it fires, its fresh nulls get the pattern and the
        ancestry."""
        if not trigger.tgd.existential_variables():
            return True
        pattern = self._pattern(trigger)
        ancestry = self._input_ancestry(trigger.image)
        if pattern in ancestry:
            self.cuts += 1
            return False
        consumed = {t for atom in trigger.image for t in atom.args}
        for atom in produced:
            for term in atom.args:
                if isinstance(term, Null) and term not in consumed:
                    self._pattern_of_null[term] = pattern
                    self._ancestry[term] = ancestry
        return True
