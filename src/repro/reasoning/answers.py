"""Certain answers from per-tuple proof-tree decisions.

:func:`is_certain_answer` is the paper's decision problem — is c̄ in
cert(q, D, Σ)? — answered by the linear proof-tree search of
Theorem 4.8 (WARD ∩ PWL) or the AND-OR search of Theorem 4.9 (WARD).
:func:`stream_proof_tree_answers` assembles the answer *set* from such
decisions; which engine answers a given program at all is decided one
layer up, by :class:`repro.api.Planner`.  Two auxiliary structures
split the work:

* the **star abstraction** (an always-terminating Datalog fixpoint that
  over-approximates every chase) bounds the candidate tuples — any
  certain answer's homomorphism into the chase survives the
  null-collapse into the abstraction with its constants intact, so q
  evaluated over the abstraction is *complete*;
* a bounded **chase probe** (a sound under-approximation) settles the
  cheap positives, so only the remainder needs a decision run.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

from ..analysis.piecewise import is_piecewise_linear
from ..analysis.wardedness import is_warded
from ..chase.runner import chase
from ..chase.termination import DepthPolicy
from ..core.atoms import Atom
from ..core.instance import Database, Instance
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.store import FactStore
from ..core.terms import Constant
from ..kernels.query import query_answers
from .abstraction import STAR, exact_predicates, star_abstraction
from .pwl_ward import prepare_pwl_ward
from .ward import prepare_ward

__all__ = [
    "is_certain_answer",
    "stream_proof_tree_answers",
    "probe_instance",
    "candidate_tuples",
    "proof_tree_method",
    "UnsupportedProgramError",
]


class UnsupportedProgramError(ValueError):
    """Raised when no sound-and-complete method applies to the program."""


def probe_instance(
    database: Database,
    program: Program,
    probe_depth: int = 3,
    probe_atoms: int = 20000,
    abstraction: Optional[FactStore] = None,
) -> Instance:
    """A bounded chase used to seed candidates (sound under-approximation):
    the "probe settles the cheap positives" half of the per-tuple split.

    The restricted chase runs under ``DepthPolicy(probe_depth)`` and
    stops at ``probe_atoms`` atoms.  It chases only what the star
    *abstraction* (computed here when not given) cannot settle: its
    input is D plus the abstraction's rows over Σ's exact predicates
    (:func:`~repro.reasoning.abstraction.exact_predicates`, where the
    abstraction holds exactly the certain atoms), cut so that the two
    together hold at most ``probe_atoms`` atoms, and the rules whose
    heads are all exact are dropped.  ``probe_atoms=0`` still settles
    nothing beyond D; a program with no exact predicate runs the plain
    chase of D.
    """
    exact = exact_predicates(program) & program.head_predicates()
    seeded = Instance(database)
    if exact and len(seeded) < probe_atoms:
        if abstraction is None:
            abstraction = star_abstraction(database, program.single_head())
        _add_seed(seeded, abstraction, exact, program.schema(), probe_atoms)
    result = chase(
        database,
        Program(tgd for tgd in program if not tgd.head_predicates() <= exact),
        variant="restricted",
        policy=DepthPolicy(probe_depth),
        max_atoms=probe_atoms,
        store=seeded,
    )
    return result.instance


def _add_seed(
    seeded: Instance,
    abstraction: FactStore,
    exact,
    schema,
    probe_atoms: int,
) -> None:
    """Decode *abstraction*'s rows over the *exact* predicates into
    *seeded* until it holds *probe_atoms* atoms."""
    decode = abstraction.table.decode
    for predicate in sorted(exact):
        for _, relation in abstraction.parts(predicate, schema[predicate]):
            for row in relation.rows:
                if len(seeded) >= probe_atoms:
                    return
                seeded.add(Atom(predicate, decode(row)))


def candidate_tuples(
    query: ConjunctiveQuery, abstraction: FactStore
) -> Set[Tuple[Constant, ...]]:
    """All output tuples the star abstraction makes conceivable: the
    ⋆-free rows of ``q(abstraction)``, read off its id rows
    (:func:`~repro.kernels.query.query_answers`).

    This set is *complete*: a certain answer c̄ has a homomorphism h
    from q into the chase with h(output) = c̄, and composing h with the
    null-collapse γ (nulls ↦ ⋆, constants fixed) is a homomorphism from
    q into the abstraction with c̄ still at the output.  A row holding
    the ⋆ constant is excluded — it stands for nulls, which are never
    certain answers.
    """
    return {row for row in query_answers(query, abstraction) if STAR not in row}


_PREPARE = {"pwl": prepare_pwl_ward, "ward": prepare_ward}


def proof_tree_method(program: Program) -> str:
    """The per-tuple search complete for Σ: ``"pwl"`` (Theorem 4.8)
    inside WARD ∩ PWL, ``"ward"`` (Theorem 4.9) in the rest of WARD."""
    if not is_warded(program):
        raise UnsupportedProgramError(
            "program is not warded: no complete decision procedure "
            "outside WARD"
        )
    return "pwl" if is_piecewise_linear(program) else "ward"


def stream_proof_tree_answers(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
    *,
    method: str,
    probe_depth: int = 3,
    probe_atoms: int = 20000,
    abstraction: Optional[FactStore] = None,
    probe: Optional[Instance] = None,
    stats=None,
    **engine_kwargs,
):
    """Yield ``cert(q, D, Σ)`` tuples via the proof-tree engines, lazily.

    The star abstraction bounds the candidate tuples completely and
    doubles as the shared pruning oracle; the bounded chase probe
    settles the cheap positives, which stream out first, and only the
    remaining candidates go through a per-tuple decision run, each
    accepted tuple yielded as soon as its run returns.  *stats*, if
    given, receives ``probe_answers`` and ``decided_tuples`` attributes
    as they accrue.  The star abstraction and the probe depend only on
    D and Σ, so callers with a cache pass them as *abstraction* and
    *probe*.  Raises — before any answer exists — when Σ is outside
    *method*'s class.
    """
    if method not in _PREPARE:
        raise ValueError(f"unknown method {method!r}")
    if abstraction is None:
        abstraction = engine_kwargs.get("oracle")
    if abstraction is None:
        abstraction = star_abstraction(database, program.single_head())
    if "oracle" not in engine_kwargs and engine_kwargs.get("use_oracle", True):
        engine_kwargs["oracle"] = abstraction
    decide = _PREPARE[method](query, database, program, **engine_kwargs)
    if probe is None:
        probe = probe_instance(
            database, program, probe_depth, probe_atoms, abstraction
        )
    probe_answers = query.evaluate(probe)
    if stats is not None:
        stats.probe_answers = len(probe_answers)
    yield from sorted(probe_answers, key=str)
    pending = candidate_tuples(query, abstraction) - probe_answers
    for candidate in sorted(pending, key=str):
        if stats is not None:
            stats.decided_tuples += 1
        if decide(candidate).accepted:
            yield candidate


def is_certain_answer(
    query: ConjunctiveQuery,
    answer: Sequence[Constant],
    database: Database,
    program: Program,
    *,
    method: str = "auto",
    **engine_kwargs,
) -> bool:
    """Decide ``c̄ ∈ cert(q, D, Σ)`` (the paper's decision problem)."""
    if method == "auto":
        method = proof_tree_method(program)
    if method not in _PREPARE:
        raise ValueError(f"unknown method {method!r}")
    prepare = _PREPARE[method]
    return prepare(query, database, program, **engine_kwargs)(answer).accepted
