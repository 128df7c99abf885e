"""Plan execution: one dispatcher from :class:`QueryPlan` to a lazy
:class:`AnswerStream`, and the one-shot facade over it.

Every engine is driven through its streaming core
(:func:`~repro.datalog.seminaive.stream_datalog_answers`,
:func:`~repro.chase.runner.stream_chase_answers`,
:func:`~repro.reasoning.answers.stream_proof_tree_answers`), so answers
surface as they are derived, a block per round or event (a cached
read is one block).  When a :class:`~repro.api.cache.FixpointCache` is
attached, saturated materializations and star abstractions are reused
across queries instead of recomputed.  :func:`certain_answers` is plan
+ execute + drain for callers that have one question and no session.
"""

from __future__ import annotations

from functools import partial

from ..chase.runner import ChaseRun, stream_chase_answers
from ..core.instance import Database
from ..datalog.seminaive import stream_datalog_answers
from ..kernels import ordered_answers
from ..reasoning.answers import (
    UnsupportedProgramError,
    stream_proof_tree_answers,
)
from .planner import Planner, QueryPlan
from .program import compile_program
from .stream import AnswerStream, StreamStats

__all__ = ["certain_answers", "execute_plan"]

#: chase budget used when the strict certain-answer semantics must
#: witness saturation.
STRICT_CHASE_MAX_ATOMS = 200000
STRICT_CHASE_MAX_STEPS = 400000

_OUTSIDE_WARD = (
    "the chase did not terminate within the limits and the "
    "program is outside WARD; certain answers cannot be "
    "computed exactly (cf. Theorem 5.1: CQAns(PWL) alone is "
    "undecidable)"
)


def _not_saturated(warded: bool, limits: dict, run: ChaseRun) -> str:
    """Why a strict chase run gives no certain answers: outside WARD
    nothing else can; inside it, the limit this run hit."""
    if not warded:
        return _OUTSIDE_WARD
    steps = limits.get("max_steps")
    hit = "max_steps" if steps is not None and run.fired >= steps else "max_atoms"
    return (
        f"the chase stopped at its limit {hit}={limits[hit]} with "
        "triggers still to fire; certain answers cannot be read off a "
        "truncated chase (raise the limit, or let method='auto' pick "
        "the proof-tree search, which decides WARD)"
    )


def execute_plan(
    plan: QueryPlan, database: Database, *, cache=None
) -> AnswerStream:
    """Execute *plan* against *database*, returning a lazy stream.

    Construction does no work; the engine runs only as the stream is
    pulled.  With a *cache* (the :class:`~repro.api.cache.FixpointCache`
    of *database*'s state), the materializing engines first consult it
    (a hit skips the engine entirely) and register their saturated
    result on completion, and the proof-tree engines reuse its star
    abstraction and chase probe.
    """
    stats = StreamStats(
        method=plan.method,
        rewrite=plan.rewrite,
        exec_mode=plan.exec_mode if plan.method == "datalog" else "",
    )
    query = plan.query
    program = plan.program.program
    kwargs = dict(plan.engine_kwargs)

    def cached_answers(run_query, unrewritten=False):
        """``run_query`` over the cached fixpoint, one block — of id
        rows on a kernel-capable fixpoint, decoded when read; None on a
        miss."""
        fixpoint = (
            cache.get_fixpoint(plan, unrewritten) if cache is not None else None
        )
        if fixpoint is None:
            return None
        stats.from_cache = True
        stats.saturated = True
        if fixpoint.kernel_capable:
            return [ordered_answers(run_query, fixpoint)]
        return [sorted(run_query.evaluate(fixpoint), key=str)]

    on_fixpoint = (
        partial(cache.set_fixpoint, plan) if cache is not None else None
    )

    if plan.method == "datalog":
        # With a magic rewriting attached, the engine runs the demand
        # program over EDB ∪ seed facts and surfaces answers through
        # the rewritten query.  ``stream_new_answers`` delta-evaluates
        # on the goal predicate only, so magic/supplementary/adorned
        # atoms never reach the answer stream.
        rewriting = plan.rewriting
        run_query = rewriting.query if rewriting is not None else query
        run_program = (
            rewriting.program if rewriting is not None else program
        )

        def factory():
            # Demand is decided per version, not per plan: ``auto`` reads
            # q off a held (and maintained) full fixpoint and builds none.
            answers = (
                cached_answers(query, unrewritten=True)
                if plan.auto_rewrite else None
            )
            if answers is not None:
                stats.rewrite = "none"  # what ran, not what was planned
            else:
                answers = cached_answers(run_query)
            if answers is not None:
                stats.exec_mode = ""  # no engine ran at all
                return answers
            facts = database
            if rewriting is not None:
                # A real list, not itertools.chain: seminaive_rounds
                # iterates its database argument several times (store
                # seed, delta seed, round-0 snapshot), so the seeded
                # view must be re-iterable.  The copy is atom refs only.
                facts = list(database)
                facts.extend(rewriting.seed)
            return stream_datalog_answers(
                run_query,
                facts,
                run_program,
                store=plan.store,
                on_fixpoint=on_fixpoint,
                stats=stats,
                **kwargs,  # wire options are gone; an unknown one raises
            )

    elif plan.method == "chase":

        def factory():
            answers = cached_answers(query)
            if answers is not None:
                yield from answers
                return
            chase_kwargs = dict(kwargs)
            strict = chase_kwargs.pop("strict", True)
            if strict:
                chase_kwargs.setdefault("max_atoms", STRICT_CHASE_MAX_ATOMS)
                chase_kwargs.setdefault("max_steps", STRICT_CHASE_MAX_STEPS)
            chase_kwargs.setdefault("variant", "restricted")
            run = ChaseRun()
            yield from stream_chase_answers(
                query,
                database,
                program,
                run=run,
                on_fixpoint=on_fixpoint,
                store=plan.store,
                **chase_kwargs,
            )
            stats.saturated = run.saturated
            stats.events = run.fired
            if strict and not run.saturated:
                raise UnsupportedProgramError(_not_saturated(
                    plan.program.analysis.warded, chase_kwargs, run
                ))

    elif plan.method in ("pwl", "ward"):

        def factory():
            tree_kwargs = dict(kwargs)
            probe_depth = tree_kwargs.pop("probe_depth", 3)
            probe_atoms = tree_kwargs.pop("probe_atoms", 20000)
            if cache is not None:
                tree_kwargs["abstraction"] = cache.abstraction_for(plan.program)
                tree_kwargs["probe"] = cache.probe_for(
                    plan.program, probe_depth, probe_atoms
                )
            return stream_proof_tree_answers(
                query,
                database,
                program,
                method=plan.method,
                probe_depth=probe_depth,
                probe_atoms=probe_atoms,
                stats=stats,
                **tree_kwargs,
            )

    else:  # pragma: no cover — Planner validates methods
        raise ValueError(f"unknown method {plan.method!r}")

    return AnswerStream(plan, factory, stats)


def certain_answers(
    query, database, program, *, method="auto", store="instance",
    **engine_kwargs,
) -> set:
    """Compute ``cert(q, D, Σ)`` in one shot.

    ``method`` is ``"auto"`` (dispatch on the class of Σ: full programs
    → semi-naive Datalog, WARD ∩ PWL → the linear proof-tree search of
    Theorem 4.8, WARD → the AND-OR search of Theorem 4.9, anything else
    → the chase, accepted only if it saturates) or one of
    :data:`~repro.api.planner.ENGINES`; ``store`` names the backend the
    materializing engines run on; *engine_kwargs* (``max_atoms``,
    ``strict``, ``probe_depth``, ``width_bound``, ...) reach the
    engine.  This is ``Planner().plan`` + :func:`execute_plan` drained
    — nothing is cached; many queries over one program belong to a
    :class:`~repro.api.session.Session`, whose streams also carry the
    run's :class:`StreamStats`.
    """
    plan = Planner().plan(
        compile_program(program), query, method=method, store=store,
        **engine_kwargs,
    )
    return set(execute_plan(plan, database))
