"""Configuration states of the space-bounded algorithms (Section 4.3).

The paper's non-deterministic algorithm maintains a Boolean CQ ``p``
whose output variables have been instantiated by the candidate answer
constants.  A deterministic simulation explores the graph of such CQs;
to make that graph finite the CQs are *canonicalized*: variables are
renamed into a fixed pool (:mod:`repro.prooftree.canonical`), so two CQs
equal up to variable renaming are one state.

:class:`State` is an immutable canonical atom tuple.  The successor
operations (resolution ``r``, decomposition ``d``, specialization ``s``)
live in :class:`SuccessorGenerator`, shared by the linear search for
WARD ∩ PWL and the AND-OR search for WARD:

* ``r`` — all σ-resolvents through MGCUs (Definition 4.3), capped at
  the node-width bound;
* ``d`` — dropping ground atoms present in D (the decomposition that
  splits database leaves off; always valid since ground atoms share no
  variables).  Applied eagerly on state creation: a ground atom of D is
  never useful to keep (see DESIGN.md §3);
* ``s`` — specializations of single variables to constants of dom(D).
  Two modes: *guided* (bind variables by matching one atom against the
  database — a composition of paper specializations with branching
  proportional to index hits) and *exhaustive* (the paper-literal
  var × dom(D) enumeration, used for cross-validation).
"""

from __future__ import annotations

import copy
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom, atoms_variables, match_atom
from ..core.instance import Database
from ..core.program import Program
from ..core.substitution import Substitution
from ..core.terms import Variable
from ..prooftree.canonical import canonical_form
from ..prooftree.chunk import chunk_unifiers

__all__ = ["State", "SuccessorGenerator", "SearchStats", "Frontier"]


@dataclass(frozen=True)
class State:
    """A canonicalized Boolean CQ with constants (a search configuration)."""

    atoms: tuple[Atom, ...]

    @staticmethod
    def make(atoms: Sequence[Atom], database: Optional[Database] = None) -> "State":
        """Canonicalize *atoms* (eagerly dropping D-facts if *database* given)."""
        kept = tuple(atoms)
        if database is not None:
            kept = tuple(a for a in kept if not (a.is_fact() and a in database))
        return State(canonical_form(kept))

    def is_accepting(self) -> bool:
        """The empty CQ: every atom was discharged against the database."""
        return not self.atoms

    def width(self) -> int:
        return len(self.atoms)

    def variables(self) -> set[Variable]:
        return atoms_variables(self.atoms)

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.atoms) + "}"


@dataclass
class SearchStats:
    """Metering shared by both search algorithms.

    ``visited`` approximates the *space* the non-deterministic algorithm
    sweeps (distinct configurations), ``max_frontier`` the working-set
    peak of the deterministic simulation, ``max_width`` the largest CQ
    ever held — the quantity the node-width bounds of Theorems 4.8/4.9
    cap.
    """

    expanded: int = 0
    generated: int = 0
    visited: int = 0
    max_frontier: int = 0
    max_width: int = 0
    resolution_steps: int = 0
    specialization_steps: int = 0
    width_rejections: int = 0
    dead_pruned: int = 0


class Frontier:
    """The exploration frontier of the deterministic simulations.

    Both strategies explore the same finite configuration graph, so the
    *decision* is strategy-independent; only the order (and therefore
    how much of the graph is materialized before an accepting
    configuration is found) changes:

    * ``"bestfirst"`` (default) pops the narrowest CQ first.  Narrow
      configurations are the ones closest to being discharged against
      the database, so productive runs — which by Theorems 4.8/4.9
      oscillate between one resolution widening and one
      specialization/decomposition narrowing — are followed eagerly
      while wide speculative resolvent chains wait.
    * ``"bfs"`` is the paper-literal level-by-level simulation of the
      non-deterministic machine (kept for cross-validation).
    """

    STRATEGIES = ("bestfirst", "bfs")

    def __init__(self, strategy: str = "bestfirst"):
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown search strategy {strategy!r}; "
                f"expected one of {self.STRATEGIES}"
            )
        self.strategy = strategy
        self._deque: Deque[State] = deque()
        self._heap: List[Tuple[int, int, State]] = []
        self._tiebreak = itertools.count()

    def push(self, state: State) -> None:
        if self.strategy == "bfs":
            self._deque.append(state)
        else:
            heapq.heappush(
                self._heap, (state.width(), next(self._tiebreak), state)
            )

    def pop(self) -> State:
        if self.strategy == "bfs":
            return self._deque.popleft()
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._deque) + len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._deque) or bool(self._heap)


class SuccessorGenerator:
    """Produces ``r``/``s`` successors of a state (with eager ``d``)."""

    def __init__(
        self,
        database: Database,
        program: Program,
        width_bound: int,
        *,
        specialization: str = "guided",
        stats: Optional[SearchStats] = None,
        oracle: Optional[object] = None,
        use_oracle: bool = True,
    ):
        if specialization not in ("guided", "exhaustive", "both"):
            raise ValueError(f"unknown specialization mode {specialization!r}")
        if not program.is_single_head():
            raise ValueError(
                "SuccessorGenerator needs a single-head program; call "
                "Program.single_head() first"
            )
        self.database = database
        self.program = program
        self.width_bound = width_bound
        self.specialization = specialization
        self.stats = stats if stats is not None else SearchStats()
        # Only the exhaustive enumeration reads dom(D): guided runs skip the sort.
        self._domain = None if specialization == "guided" else sorted(
            database.constants(), key=lambda c: (type(c.value).__name__, str(c.value))
        )
        self._head_predicates = program.head_predicates()
        if oracle is not None:
            self._oracle = oracle
        elif use_oracle:
            from .abstraction import star_abstraction

            self._oracle = star_abstraction(database, program)
        else:
            self._oracle = None

    def with_stats(self, stats: SearchStats) -> "SuccessorGenerator":
        """A view of this generator metering into *stats*: what one
        decision of a prepared decider runs on.  Everything but
        ``stats`` is shared with the original and never written."""
        view = copy.copy(self)
        view.stats = stats
        return view

    # -- pruning ----------------------------------------------------------

    def is_dead(self, state: State) -> bool:
        """True iff *state* can never reach the accepting configuration.

        Acceptance of a configuration implies its Boolean CQ is certain,
        which requires a chase match for every atom.  With the star-
        abstraction oracle (:mod:`repro.reasoning.abstraction`) any atom
        without an abstract match proves the state dead.  Without the
        oracle a weaker check applies: an atom over a predicate that
        never occurs in a rule head cannot be resolved away, so it must
        match the database directly.  Both prunes keep the deterministic
        simulation within the configurations the NLogSpace machine could
        actually discharge.
        """
        if self._oracle is not None:
            from .abstraction import atom_satisfiable

            for atom in state.atoms:
                if not atom_satisfiable(atom, self._oracle):
                    self.stats.dead_pruned += 1
                    return True
            return False
        for atom in state.atoms:
            if atom.predicate in self._head_predicates:
                continue
            if next(iter(self.database.matching(atom)), None) is None:
                self.stats.dead_pruned += 1
                return True
        return False

    # -- operations ----------------------------------------------------------

    def resolutions(self, state: State) -> Iterator[State]:
        """All σ-resolvents within the width bound (operation ``r``)."""
        for tgd in self.program:
            renamed = tgd.rename("r")
            for unifier in chunk_unifiers(state.atoms, set(), renamed):
                s1 = set(unifier.s1)
                kept = [a for a in state.atoms if a not in s1]
                raw = unifier.gamma.apply_atoms(tuple(kept) + renamed.body)
                body = tuple(dict.fromkeys(raw))
                if len(body) > self.width_bound:
                    self.stats.width_rejections += 1
                    continue
                self.stats.resolution_steps += 1
                yield State.make(body, self.database)

    def specializations(self, state: State) -> Iterator[State]:
        """Specialization successors (operation ``s``)."""
        if self.specialization in ("guided", "both"):
            yield from self._guided_specializations(state)
        if self.specialization in ("exhaustive", "both"):
            yield from self._exhaustive_specializations(state)

    def _guided_specializations(self, state: State) -> Iterator[State]:
        """Bind the variables of one atom by matching it against D.

        Matching atom α against a database fact f yields the substitution
        θ with θ(α) = f; θ is a composition of single-variable
        specializations, and applying it makes α droppable — exactly the
        specializations a successful run needs before a ``d`` step.
        """
        seen: Set[Substitution] = set()
        for atom in state.atoms:
            if not atom.variables():
                continue
            for fact in self.database.matching(atom):
                seed = match_atom(atom, fact)
                if seed is None:
                    continue
                theta = Substitution(seed)
                if theta in seen:
                    continue
                seen.add(theta)
                self.stats.specialization_steps += 1
                yield State.make(theta.apply_atoms(state.atoms), self.database)

    def _exhaustive_specializations(self, state: State) -> Iterator[State]:
        """The paper-literal enumeration: each variable to each constant."""
        for var in sorted(state.variables(), key=lambda v: v.name):
            for constant in self._domain:
                theta = Substitution({var: constant})
                self.stats.specialization_steps += 1
                yield State.make(theta.apply_atoms(state.atoms), self.database)

    def successors(self, state: State) -> Iterator[State]:
        """All live ``r``/``s`` successors (eager ``d`` inside State.make)."""
        self.stats.expanded += 1
        for successor in self.resolutions(state):
            self.stats.generated += 1
            self.stats.max_width = max(self.stats.max_width, successor.width())
            if not self.is_dead(successor):
                yield successor
        for successor in self.specializations(state):
            self.stats.generated += 1
            self.stats.max_width = max(self.stats.max_width, successor.width())
            if not self.is_dead(successor):
                yield successor
