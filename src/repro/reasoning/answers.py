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
from ..core.instance import Database, Instance
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from .abstraction import STAR, star_abstraction
from .pwl_ward import prepare_pwl_ward
from .ward import prepare_ward

__all__ = [
    "is_certain_answer",
    "prepare_proof_tree_answers",
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
) -> Instance:
    """A bounded chase used to seed candidates (sound under-approximation):
    the "probe settles the cheap positives" half of the per-tuple split."""
    result = chase(
        database,
        program,
        variant="restricted",
        policy=DepthPolicy(probe_depth),
        max_atoms=probe_atoms,
    )
    return result.instance


def candidate_tuples(
    query: ConjunctiveQuery, abstraction: Instance
) -> Set[Tuple[Constant, ...]]:
    """All output tuples the star abstraction makes conceivable: the
    ⋆-free rows of ``q(abstraction)``.

    This set is *complete*: a certain answer c̄ has a homomorphism h
    from q into the chase with h(output) = c̄, and composing h with the
    null-collapse γ (nulls ↦ ⋆, constants fixed) is a homomorphism from
    q into the abstraction with c̄ still at the output.  A row holding
    the ⋆ constant is excluded — it stands for nulls, which are never
    certain answers.
    """
    return {row for row in query.evaluate(abstraction) if STAR not in row}


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


def prepare_proof_tree_answers(
    query, database, program, *, method, probe_depth=3, probe_atoms=20000,
    abstraction=None, probe=None, **engine_kwargs,
):
    """Everything that precedes the per-tuple decisions, paid once.

    Returns ``(probe_answers, pending, decide)``: the answers the chase
    probe settles, a lazy iterator over the remaining candidates in
    decision order, and the prepared decider for them.  The star
    abstraction and the probe depend only on D and Σ, so callers with a
    cache pass them as *abstraction* and *probe*.  Raises — before any
    answer exists — when Σ is outside *method*'s class.
    """
    if method not in _PREPARE:
        raise ValueError(f"unknown method {method!r}")
    if abstraction is None:
        oracle = engine_kwargs.get("oracle")
        abstraction = (
            oracle
            if isinstance(oracle, Instance)
            else star_abstraction(database, program.single_head())
        )
    if "oracle" not in engine_kwargs and engine_kwargs.get("use_oracle", True):
        engine_kwargs["oracle"] = abstraction
    decide = _PREPARE[method](query, database, program, **engine_kwargs)
    if probe is None:
        probe = probe_instance(database, program, probe_depth, probe_atoms)
    probe_answers = query.evaluate(probe)

    def pending():
        yield from sorted(
            candidate_tuples(query, abstraction) - probe_answers, key=str
        )

    return probe_answers, pending(), decide


def stream_proof_tree_answers(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
    *,
    method: str,
    probe_depth: int = 3,
    probe_atoms: int = 20000,
    abstraction: Optional[Instance] = None,
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
    as they accrue; everything else is
    :func:`prepare_proof_tree_answers`'.
    """
    probe_answers, pending, decide = prepare_proof_tree_answers(
        query, database, program, method=method, probe_depth=probe_depth,
        probe_atoms=probe_atoms, abstraction=abstraction, probe=probe,
        **engine_kwargs,
    )
    if stats is not None:
        stats.probe_answers = len(probe_answers)
    yield from sorted(probe_answers, key=str)
    for candidate in pending:
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
