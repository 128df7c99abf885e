"""Compile-once program artifacts.

A :class:`CompiledProgram` runs the front-half of the pipeline — parse
(done by the caller), normalize, **classify**, **stratify**, **plan** —
exactly once and keeps the results for every subsequent query; the
planner and the session layer read them from here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..analysis.levels import max_level, predicate_levels
from ..analysis.piecewise import is_piecewise_linear
from ..analysis.wardedness import is_warded
from ..core.program import Program
from ..core.tgd import TGD
from ..datalog.strata import Strata, compute_strata
from ..engine.optimizer import JoinOptimizer, JoinPlan
from ..lint import FactSummary, ProgramDiagnostics, run_lint

__all__ = ["CompiledProgram", "ProgramAnalysis", "compile_program"]


class ProgramAnalysis:
    """The classification/stratification record of one program.

    Immutable snapshot: class memberships (driving engine dispatch),
    predicate levels, and the PWL strata.  Produced once per
    :class:`CompiledProgram`.
    """

    __slots__ = (
        "normalized",
        "full",
        "single_head",
        "warded",
        "piecewise_linear",
        "levels",
        "max_level",
        "strata",
    )

    def __init__(self, program: Program):
        self.normalized = (
            program if program.is_single_head() else program.single_head()
        )
        self.full = program.is_full()
        self.single_head = program.is_single_head()
        self.warded = is_warded(program)
        self.piecewise_linear = is_piecewise_linear(program)
        self.levels: Mapping[str, int] = predicate_levels(self.normalized)
        self.max_level = max_level(self.normalized)
        self.strata: Strata = compute_strata(self.normalized)

    @property
    def program_class(self) -> str:
        """The paper-language class label used in plan explanations."""
        if self.full and self.single_head:
            return "Datalog"
        if self.warded and self.piecewise_linear:
            return "WARD ∩ PWL"
        if self.warded:
            return "WARD"
        return "beyond WARD"


class CompiledProgram:
    """A program plus everything derivable from it alone.

    Construction is cheap; the analysis (classification, levels,
    strata), the lint report, and the per-rule join plans are computed
    lazily, each exactly once, and shared by every query planned
    against this object.  ``analysis_runs`` counts how many times the
    analysis actually executed — the compile-once guarantee is testable
    as ``analysis_runs == 1`` after any number of queries — and
    ``lint_runs`` gives the same guarantee for the lint passes.

    ``facts`` (the program's parsed database, or a pre-built
    :class:`~repro.lint.FactSummary`) enables the EDB-aware lint
    passes; only the compact summary is retained, never the facts.
    """

    def __init__(
        self,
        program: Program,
        *,
        name: str = "",
        source: Optional[str] = None,
        facts=None,
    ):
        if not isinstance(program, Program):
            program = Program(program)  # legacy callers pass bare TGD lists
        self.program = program
        self.name = name or program.name or "program"
        self.source = source
        if facts is not None and not isinstance(facts, FactSummary):
            facts = FactSummary.from_facts(facts)
        self.fact_summary: Optional[FactSummary] = facts
        self.analysis_runs = 0
        self.lint_runs = 0
        self._analysis: Optional[ProgramAnalysis] = None
        self._diagnostics: Optional[ProgramDiagnostics] = None
        self._optimizer: Optional[JoinOptimizer] = None
        self._join_plans: Dict[TGD, JoinPlan] = {}
        self._default_network = None

    def __repr__(self) -> str:
        analyzed = "analyzed" if self._analysis is not None else "unanalyzed"
        return (
            f"CompiledProgram({self.name!r}, {len(self.program)} rules, "
            f"{analyzed})"
        )

    @property
    def rules(self) -> int:
        return len(self.program)

    @property
    def analysis(self) -> ProgramAnalysis:
        """Classification + stratification, computed on first access only."""
        if self._analysis is None:
            self.analysis_runs += 1
            self._analysis = ProgramAnalysis(self.program)
        return self._analysis

    @property
    def diagnostics(self) -> ProgramDiagnostics:
        """The static lint report, computed on first access only.

        Every consumer — the session's pre-planning gate, the plan's
        ``lint:`` explain line, the CLI, the server's ``lint`` op —
        reads this one cached report; ``lint_runs`` stays 1 no matter
        how many queries touch the program.
        """
        if self._diagnostics is None:
            self.lint_runs += 1
            self._diagnostics = run_lint(
                self.program, facts=self.fact_summary
            )
        return self._diagnostics

    # -- join planning (the operator-network half of "plan once") ---------

    @property
    def optimizer(self) -> JoinOptimizer:
        if self._optimizer is None:
            self._optimizer = JoinOptimizer(self.analysis.normalized)
        return self._optimizer

    def join_plan(self, tgd: TGD) -> JoinPlan:
        """The optimizer's join order for one rule, memoized."""
        plan = self._join_plans.get(tgd)
        if plan is None:
            plan = self.optimizer.plan(tgd)
            self._join_plans[tgd] = plan
        return plan

    def network(self, *, guide=None, null_factory=None):
        """An :class:`~repro.engine.operators.OperatorNetwork` over this
        program, sharing the compiled optimizer (join orders planned
        once).  The guide-less default network is itself cached."""
        from ..engine.operators import OperatorNetwork

        if guide is None and null_factory is None:
            if self._default_network is None:
                self._default_network = OperatorNetwork(
                    self.analysis.normalized, optimizer=self.optimizer
                )
            return self._default_network
        return OperatorNetwork(
            self.analysis.normalized,
            optimizer=self.optimizer,
            guide=guide,
            null_factory=null_factory,
        )


def compile_program(
    program: Program,
    *,
    name: str = "",
    source: Optional[str] = None,
    facts=None,
) -> CompiledProgram:
    """Compile *program* (idempotent on an already compiled argument)."""
    if isinstance(program, CompiledProgram):
        return program
    return CompiledProgram(program, name=name, source=source, facts=facts)
