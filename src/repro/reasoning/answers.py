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
  cheap positives, so only the remainder needs a decision run; it
  reads the abstraction's exact rows in place rather than copying them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple, Union

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
from ..core.views import UnionView
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
) -> Union[Instance, UnionView]:
    """A bounded chase used to seed candidates (sound under-approximation):
    the "probe settles the cheap positives" half of the per-tuple split.

    The restricted chase runs under ``DepthPolicy(probe_depth)``, and D,
    the exact rows and the chase together hold at most ``probe_atoms``
    atoms.  It chases only what the star *abstraction* (computed here
    when not given) cannot settle: the rules whose heads are not all
    exact (:func:`~repro.reasoning.abstraction.exact_predicates`, where
    the abstraction holds exactly the certain atoms).  The exact rows
    are not copied: the probe is a read-only
    :class:`~repro.core.views.UnionView` of the chased
    :class:`~repro.core.instance.Instance` and the abstraction read on
    the exact predicates it routes there, so no ⋆-bearing predicate is
    ever exposed.  Only the exact predicates a chased rule reads — in
    its body, its negated literals or the head the restricted chase
    checks — and one the budget cuts short are decoded into the
    ``Instance``, as many rows as the budget leaves room for.
    ``probe_atoms=0`` still settles nothing beyond D.  When nothing is
    routed the result is the chased ``Instance`` itself.
    """
    exact = exact_predicates(program) & program.head_predicates()
    chased = Program(tgd for tgd in program if not tgd.head_predicates() <= exact)
    seeded = Instance(database)
    routed: Dict[str, int] = {}
    if exact and len(seeded) < probe_atoms:
        if abstraction is None:
            abstraction = star_abstraction(database, program.single_head())
        read = exact & set().union(*(
            tgd.predicates() | tgd.negated_predicates() for tgd in chased
        ))
        routed = _seed(
            seeded, database, abstraction, exact, read, program.schema(),
            probe_atoms,
        )
    result = chase(
        database,
        chased,
        variant="restricted",
        policy=DepthPolicy(probe_depth),
        max_atoms=probe_atoms - sum(routed.values()),
        store=seeded,
    )
    if not routed:
        return result.instance
    return UnionView(result.instance, abstraction, frozenset(routed))


def _seed(
    seeded: Instance,
    database: Database,
    abstraction: FactStore,
    exact,
    read,
    schema,
    probe_atoms: int,
) -> Dict[str, int]:
    """Share what *probe_atoms* leaves beyond D among the *exact*
    predicates, in name order.  One no chased rule reads and whose rows
    beyond D all fit is *routed* — left in *abstraction*, its count of
    rows beyond D charged; any other has its rows decoded into *seeded*
    while room is left.  Returns each routed predicate's charge."""
    routed: Dict[str, int] = {}
    room = probe_atoms - len(seeded)
    decode = abstraction.table.decode
    for predicate in sorted(exact):
        arity = schema[predicate]
        parts = [relation for _, relation in abstraction.parts(predicate, arity)]
        if predicate not in read:
            beyond = sum(len(relation.rows) for relation in parts) - sum(
                1 for atom in database.by_predicate(predicate)
                if atom.arity == arity
            )
            if beyond <= room:
                routed[predicate] = beyond
                room -= beyond
                continue
        for relation in parts:
            for row in relation.rows:
                if room <= 0:
                    return routed
                if seeded.add(Atom(predicate, decode(row))):
                    room -= 1
    return routed


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


def _reads_in_place(
    query: ConjunctiveQuery, program: Program, probe
) -> bool:
    """Does q read only predicates on which *probe* holds exactly the
    abstraction's rows — the exact ones it routes to the abstraction,
    and extensional ones (D, which the abstraction holds as it is)?
    Then q over the probe is the candidate set itself."""
    if not isinstance(probe, UnionView):
        return False
    heads = program.head_predicates()
    return all(
        atom.predicate in probe.predicates or atom.predicate not in heads
        for atom in query.atoms
    )


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
    """Yield ``cert(q, D, Σ)`` in blocks via the proof-tree engines,
    lazily.

    The star abstraction bounds the candidate tuples completely and
    doubles as the shared pruning oracle; the bounded chase probe
    settles the cheap positives, which stream out first as one block in
    ``str`` order, and only the remaining candidates go through a
    per-tuple decision run, each accepted tuple yielded as a block of
    one as soon as its run returns.  When q reads
    only predicates on which the probe holds exactly the abstraction's
    rows (extensional ones, and the exact ones it routes to the
    abstraction), every candidate is settled by that one read and q is
    not evaluated over the probe.  *stats*, if
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
    in_place = _reads_in_place(query, program, probe)
    settled = (
        candidate_tuples(query, abstraction) if in_place
        else query.evaluate(probe)
    )
    if stats is not None:
        stats.probe_answers = len(settled)
    if settled:
        yield sorted(settled, key=str)
    if in_place:
        return
    pending = candidate_tuples(query, abstraction) - settled
    for candidate in sorted(pending, key=str):
        if stats is not None:
            stats.decided_tuples += 1
        if decide(candidate).accepted:
            yield [candidate]


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
