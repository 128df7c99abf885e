"""The planner: engine selection as an inspectable artifact.

:class:`Planner` is the one place the engine for a program is chosen;
its output is a :class:`QueryPlan` — a frozen record of *what* will run
and *why*, with a stable :meth:`QueryPlan.explain` rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from ..core.query import ConjunctiveQuery
from ..rewriting.magic import MagicRewriting, magic_rewrite, query_constants
from ..storage import BACKENDS, FactStore, kernel_capable
from .program import CompiledProgram, compile_program

__all__ = [
    "Planner", "QueryPlan", "ENGINES", "ENGINE_OPTIONS", "REWRITES",
    "WIRE_OPTIONS",
]

#: Engine names a plan can resolve to (``"auto"`` is accepted as input).
ENGINES = ("datalog", "pwl", "ward", "chase")

#: Values of the plan's rewrite dimension (``"auto"`` plans the
#: magic-set demand transformation exactly when it pays: a full,
#: positive program, the datalog engine, and ≥1 bound argument in the
#: query — and runs it only where no full fixpoint is already held).
REWRITES = ("auto", "magic", "none")

#: The *wire* options — the plain-data engine kwargs a request frame may
#: carry (:data:`repro.server.protocol.QUERY_OPTIONS` minus the plan
#: dimensions and ``first``) — that each engine's streaming core takes.
ENGINE_OPTIONS = {
    "datalog": frozenset(),
    "pwl": frozenset({"probe_depth", "probe_atoms"}),
    "ward": frozenset({"probe_depth", "probe_atoms"}),
    "chase": frozenset({"variant", "max_atoms", "max_steps", "strict"}),
}
WIRE_OPTIONS = frozenset().union(*ENGINE_OPTIONS.values())

_ENGINE_LABELS = {
    "datalog": "semi-naive least fixpoint (exact for full programs)",
    "pwl": "linear proof-tree search (Theorem 4.8)",
    "ward": "AND-OR alternating proof search (Theorem 4.9)",
    "chase": "restricted chase (exact iff it saturates)",
}

_PIPELINES = {
    "datalog": (
        "run the semi-naive fixpoint over the EDB",
        "after each round, delta-evaluate q on the staged facts and "
        "stream the new answers",
    ),
    "pwl": (
        "reuse (or build) the star abstraction of (D, Σ)",
        "reuse (or build) the bounded chase probe; its answers stream first",
        "evaluate q over the star abstraction for the candidate tuples",
        "decide each remaining candidate by linear proof-tree search, "
        "streaming accepted tuples",
    ),
    "ward": (
        "reuse (or build) the star abstraction of (D, Σ)",
        "reuse (or build) the bounded chase probe; its answers stream first",
        "evaluate q over the star abstraction for the candidate tuples",
        "decide each remaining candidate by AND-OR search, streaming "
        "accepted tuples",
    ),
    "chase": (
        "run the restricted chase over the EDB",
        "after each firing, delta-evaluate q on the new atoms and "
        "stream the new answers",
        "on exhaustion, require saturation (strict) or report a sound "
        "under-approximation",
    ),
}


def _store_label(store) -> str:
    if isinstance(store, str):
        return store
    if isinstance(store, FactStore):
        return type(store).__name__
    return getattr(store, "__name__", type(store).__name__)


def validate_store(store):
    """Check a ``store=`` argument, with an error that names the options."""
    if isinstance(store, str) and store not in BACKENDS:
        raise ValueError(
            f"unknown storage backend {store!r}; choose one of "
            f"{', '.join(BACKENDS)}"
        )
    return store


@dataclass(frozen=True)
class QueryPlan:
    """A resolved execution plan for one query against one program.

    Frozen and printable: ``method`` is the engine that will run,
    ``reasons`` records why the planner chose it, ``steps`` the
    pipeline the executor follows.  ``engine_kwargs`` are forwarded to
    the engine verbatim (excluded from equality — they may hold live
    objects such as oracles or policies).
    """

    query: ConjunctiveQuery
    method: str
    store: Any = field(compare=False)
    store_name: str = "instance"
    program: CompiledProgram = field(compare=False, default=None)
    reasons: Tuple[str, ...] = ()
    steps: Tuple[str, ...] = ()
    engine_kwargs: Mapping[str, Any] = field(compare=False, default_factory=dict)
    #: The resolved rewrite dimension: ``"magic"`` iff ``rewriting`` is
    #: attached, else ``"none"``; ``rewrite_note`` carries the stable
    #: human-readable why/why-not shown by :meth:`explain`.
    rewrite: str = "none"
    rewrite_note: str = "none (plan not built by Planner.plan)"
    rewriting: Optional[MagicRewriting] = field(compare=False, default=None)
    #: ``rewriting`` was chosen by ``rewrite="auto"``, not forced: it
    #: runs only where the cache holds no full fixpoint to read instead.
    auto_rewrite: bool = False
    #: Whether a saturated materialization of this plan can be upgraded
    #: in place under EDB change sets (see :mod:`repro.incremental`);
    #: ``maintenance`` carries the human-readable why/why-not.  The
    #: default is the conservative "not classified" — only
    #: :meth:`Planner.plan` asserts maintainability (the session
    #: re-derives the real classification before ever maintaining).
    maintainable: bool = False
    maintenance: str = "unclassified (plan not built by Planner.plan)"

    @property
    def engine_label(self) -> str:
        return _ENGINE_LABELS[self.method]

    @property
    def exec_mode(self) -> str:
        """How the rounds will run — derived, never chosen:
        ``"kernel"`` (compiled batch kernels over interned id rows)
        exactly when the datalog engine runs on a
        :func:`~repro.storage.kernel_capable` store, else
        ``"interpret"`` (the per-tuple substitution interpreter)."""
        if self.method == "datalog" and kernel_capable(self.store):
            return "kernel"
        return "interpret"

    @property
    def exec_note(self) -> str:
        """The stable why of :attr:`exec_mode` shown by :meth:`explain`."""
        if self.method != "datalog":
            return (
                f"interpret (engine {self.method!r} has no compiled "
                "kernel path)"
            )
        if self.exec_mode == "kernel":
            return (
                f"kernel (store '{self.store_name}' exposes interned "
                "id arrays)"
            )
        return (
            f"interpret (store '{self.store_name}' has no interned "
            "id-array surface)"
        )

    def explain(self) -> str:
        """A stable, human-readable rendering of the plan."""
        analysis = self.program.analysis
        lines = [
            f"plan for {self.query}",
            f"  program : {self.program.name} — "
            f"{self.program.rules} rule(s), class {analysis.program_class}, "
            f"max level {analysis.max_level}, "
            f"{len(analysis.strata.layers)} stratum/strata",
            f"  engine  : {self.method} — {self.engine_label}",
            f"  rewrite : {self.rewrite_note}",
            f"  exec    : {self.exec_note}",
            f"  store   : {self.store_name}",
            f"  update  : {self.maintenance}",
            f"  lint    : {self.program.diagnostics.summary()}",
            "  why:",
        ]
        lines.extend(f"    - {reason}" for reason in self.reasons)
        lines.append("  pipeline:")
        lines.extend(
            f"    {i}. {step}" for i, step in enumerate(self.steps, start=1)
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


class Planner:
    """Resolves (compiled program, query, method) into a :class:`QueryPlan`.

    This is the *only* place engine auto-dispatch lives:
    :func:`repro.api.certain_answers`, :meth:`repro.api.Session.query`
    and the server all route through here.
    """

    def resolve(
        self, compiled: CompiledProgram, method: str = "auto"
    ) -> Tuple[str, Tuple[str, ...]]:
        """The engine for *compiled*, with the reasons for the choice."""
        if method != "auto":
            if method not in ENGINES:
                raise ValueError(f"unknown method {method!r}")
            return method, (f"engine {method!r} forced by the caller",)
        analysis = compiled.analysis
        if analysis.full and analysis.single_head:
            return "datalog", (
                "program is full and single-head → exact least-fixpoint "
                "evaluation",
            )
        if analysis.warded:
            if analysis.piecewise_linear:
                return "pwl", (
                    "program is warded and piece-wise linear → "
                    "space-efficient linear proof-tree search",
                )
            return "ward", (
                "program is warded but not piece-wise linear → AND-OR "
                "alternating search",
            )
        return "chase", (
            "program is outside WARD → chase, accepted only if it "
            "saturates (no complete procedure exists, Theorem 5.1)",
        )

    def plan(
        self,
        compiled: CompiledProgram,
        query: ConjunctiveQuery,
        *,
        method: str = "auto",
        store="instance",
        rewrite: str = "auto",
        magic_provider: Optional[Callable] = None,
        **engine_kwargs,
    ) -> QueryPlan:
        """Build the :class:`QueryPlan` for one query.

        ``store`` is validated against :data:`repro.storage.BACKENDS`
        when given by name.  ``rewrite`` selects the demand dimension
        (:data:`REWRITES`): ``"auto"`` applies the magic-set rewriting
        exactly when the program is full and positive, the plan
        resolved to the datalog engine, and the query binds at least
        one argument (run only where no full fixpoint is held to read
        instead); ``"magic"`` forces it (an error outside that
        fragment);
        ``"none"`` disables it.  ``magic_provider``, if given, builds
        the :class:`~repro.rewriting.magic.MagicRewriting` — the
        session passes its per-(program, binding-pattern) cache here.
        Remaining keyword arguments are forwarded to the chosen engine
        (``probe_depth``, ``width_bound``, ``strict``, ``max_atoms``,
        ...).
        """
        compiled = compile_program(compiled)
        validate_store(store)
        resolved, reasons = self.resolve(compiled, method)
        negated = compiled.program.has_negation()
        if negated and not (resolved == "datalog" and compiled.analysis.full):
            raise ValueError(
                "negated literals run only on the datalog engine, stratum "
                "by stratum over a full program; "
                + (
                    f"this plan resolved to {resolved!r}"
                    if resolved != "datalog"
                    else "this program has existential rules"
                )
            )
        if negated:
            reasons = reasons + (
                "negated literals → stratum by stratum, each stratum's "
                "negated predicates complete before it runs",
            )
        if rewrite not in REWRITES:
            raise ValueError(
                f"unknown rewrite {rewrite!r}; choose one of "
                f"{', '.join(REWRITES)}"
            )
        store_name = _store_label(store)
        ignored = sorted(
            WIRE_OPTIONS.difference(ENGINE_OPTIONS[resolved])
            .intersection(engine_kwargs)
        )
        if ignored:
            # A plan keeps only the wire options its engine takes: one
            # that cannot change the run can neither split its fixpoint
            # nor fail the engine ``auto`` resolved to.  Any other kwarg
            # reaches the engine, which raises on what it does not know.
            reasons = reasons + (
                f"ignored (the {resolved} engine takes no such option): "
                f"{', '.join(ignored)}",
            )
            for key in ignored:
                del engine_kwargs[key]
        rewriting = None
        bound = len(query_constants(query))
        if rewrite == "none":
            rewrite_note = "none (disabled by the caller)"
        elif resolved != "datalog":
            if rewrite == "magic":
                raise ValueError(
                    "magic rewriting runs on the datalog engine's full "
                    f"fixpoint; this plan resolved to {resolved!r}"
                )
            rewrite_note = (
                f"none (engine {resolved!r} does not saturate a full "
                "fixpoint to restrict)"
            )
        elif not compiled.analysis.full:
            if rewrite == "magic":
                raise ValueError(
                    "magic rewriting needs a full (existential-free) "
                    "program"
                )
            rewrite_note = "none (program has existential rules)"
        elif negated and rewrite == "auto":
            rewrite_note = (
                "none (negated literals: demand would cut a negated "
                "predicate short of its complete stratum)"
            )
        elif rewrite == "auto" and bound == 0:
            rewrite_note = (
                "none (no bound argument in the query — demand would "
                "cover the whole fixpoint)"
            )
        else:
            if magic_provider is not None:
                rewriting = magic_provider(compiled, query)
            else:
                rewriting = magic_rewrite(compiled.program, query)
            if rewrite == "auto" and not rewriting.adorned.restricts:
                # Demand leaves some reachable intensional predicate
                # all-free (possibly every one): that predicate's whole
                # fixpoint is re-derived plus magic/sup bookkeeping, so
                # ``auto`` conservatively declines — even when *other*
                # predicates are bound and a mixed rewriting could
                # still win; ``rewrite="magic"`` forces it for those.
                rewriting = None
                rewrite_note = (
                    "none (demand leaves a reachable intensional "
                    "predicate all-free — it would re-derive that "
                    "whole fixpoint; rewrite='magic' overrides)"
                )
            elif rewriting.adorned.restricts:
                rewrite_note = rewriting.describe() + (
                    "; a held full fixpoint is read instead"
                    if rewrite == "auto" else ""
                )
                reasons = reasons + (
                    f"query binds {bound} argument(s) on a full "
                    "program → magic-set rewriting restricts "
                    "evaluation to demanded facts",
                )
            else:
                # Forced magic whose bindings do not restrict the
                # fixpoint: apply it as asked, but say so honestly.
                rewrite_note = rewriting.describe() + " (forced)"
                reasons = reasons + (
                    "magic rewriting forced by the caller; the "
                    f"{bound} bound argument(s) leave some demanded "
                    "predicate all-free, so demand does not restrict "
                    "the fixpoint",
                )
        from ..incremental import unmaintainable_reason

        gap = unmaintainable_reason(compiled.analysis)
        if rewriting is not None:
            maintainable = False
            maintenance = (
                "recompute on EDB change (magic-rewritten "
                "materialization is demand-specific)"
                if rewrite == "magic"
                else "incremental when read from the full fixpoint (DRed "
                "over the strata); a demand-specific one is dropped"
            )
        elif gap is None and resolved in ("pwl", "ward"):
            # The proof-tree engines hold no materialization to
            # maintain; their abstraction is recomputed per EDB change.
            maintainable = False
            maintenance = (
                "recompute on EDB change (proof-tree engines cache no "
                "materialization)"
            )
        elif gap is None:
            maintainable = True
            maintenance = "incremental (DRed over the strata)"
        else:
            maintainable = False
            maintenance = f"recompute on EDB change ({gap})"
        return QueryPlan(
            query=query,
            method=resolved,
            store=store,
            store_name=store_name,
            program=compiled,
            reasons=reasons,
            steps=_PIPELINES[resolved],
            engine_kwargs=dict(engine_kwargs),
            rewrite="magic" if rewriting is not None else "none",
            rewrite_note=rewrite_note,
            rewriting=rewriting,
            auto_rewrite=rewriting is not None and rewrite == "auto",
            maintainable=maintainable,
            maintenance=maintenance,
        )
