"""Scenario-matrix benchmark harness over the :mod:`repro.api` session
layer.

The paper's headline claims are empirical — piece-wise linear warded
programs evaluated in bounded space across the ChaseBench / iBench /
iWarded / DBpedia / industrial families — and this module is the one
command that measures them end-to-end: it takes a corpus (all five
generator families, sized by a ``scale`` knob), a set of engines (via
:class:`~repro.api.planner.Planner` dispatch), and a set of storage
backends, executes every cell through :class:`repro.api.Session`, and
records wall time, engine work counters, answer counts, and
per-component ``memory_report()`` bytes into one consolidated
:class:`~repro.benchsuite.report.SuiteReport`
(``benchmarks/results/BENCH_suite.json``).

Correctness rides along with the measurement: for every
(scenario, query) the harness cross-checks that all successful cells —
whatever engine and storage backend — report the identical
certain-answer set (:func:`~repro.benchsuite.report.check_agreement`).

Engine applicability is decided from the compiled program analysis,
mirroring the planner's own soundness rules:

* ``datalog`` only on full single-head programs (exact least fixpoint),
* ``pwl`` only on WARD ∩ PWL, ``ward`` on any warded program (the
  AND-OR search generalizes the linear one, so both run — and must
  agree — on piece-wise linear inputs),
* ``chase``/``network`` are always *attempted* under a scale-sized
  budget; a strict run that fails to saturate is recorded as a
  ``not-saturated`` cell and excluded from the agreement check (its
  prefix is sound but incomplete), never silently compared.

Drivers: ``python -m repro bench`` (CLI) and
``benchmarks/bench_suite_matrix.py`` (pytest / CI).
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import Session
from ..api.planner import ENGINES
from ..api.program import compile_program
from ..core.query import ConjunctiveQuery
from ..reasoning.answers import UnsupportedProgramError
from ..storage import BACKENDS
from .chasebench import generate_chasebench
from .dbpedia import generate_dbpedia
from .ibench import generate_ibench
from .industrial import generate_industrial
from .iwarded import generate_iwarded
from .report import CellResult, SuiteReport, answer_digest, check_agreement
from .scenario import Scenario

__all__ = [
    "SCALES",
    "SUITES",
    "DEFAULT_ENGINES",
    "suite_corpus",
    "applicable_engines",
    "run_cell",
    "run_matrix",
]

#: The five benchmark families the paper surveys (PAPER.md §1.2).
SUITES = ("iwarded", "ibench", "chasebench", "dbpedia", "industrial")

#: Engines the matrix exercises by default — every plannable engine.
DEFAULT_ENGINES = ENGINES

#: The ``--scale`` knob: per-family generator sizes plus the atom/step
#: budget handed to the strict materializing engines.  ``smoke`` is CI
#: sized (the whole matrix in well under a minute); ``small`` matches
#: the generators' defaults; ``medium`` doubles them.
SCALES: Dict[str, Dict[str, dict]] = {
    "smoke": {
        "iwarded": dict(vertices=8, edges=12),
        "ibench": dict(primitives=4, rows_per_relation=5),
        "chasebench": dict(entities=8),
        "dbpedia": dict(classes=8, entities=10, properties=3),
        "industrial": dict(companies=8, ownerships=12),
        "budget": dict(max_atoms=4000),
    },
    "small": {
        "iwarded": dict(vertices=12, edges=18),
        "ibench": dict(primitives=5, rows_per_relation=8),
        "chasebench": dict(entities=10),
        "dbpedia": dict(classes=12, entities=20, properties=4),
        "industrial": dict(companies=15, ownerships=25),
        "budget": dict(max_atoms=20000),
    },
    "medium": {
        "iwarded": dict(vertices=24, edges=40),
        "ibench": dict(primitives=8, rows_per_relation=16),
        "chasebench": dict(entities=20),
        "dbpedia": dict(classes=24, entities=40, properties=8),
        "industrial": dict(companies=30, ownerships=55),
        "budget": dict(max_atoms=50000),
    },
}


def suite_corpus(
    scale: str = "smoke",
    *,
    base_seed: int = 2019,
    suites: Sequence[str] = SUITES,
) -> List[Scenario]:
    """The matrix corpus: deterministic scenarios from all five families.

    Each family contributes piece-wise linear scenarios (so at least
    the two proof-tree engines run — and must agree — on every one),
    and the industrial family additionally contributes a full-Datalog
    control scenario so the semi-naive engine has exact cells too.
    """
    if scale not in SCALES:
        raise ValueError(
            f"unknown scale {scale!r}; choose one of {', '.join(SCALES)}"
        )
    for suite in suites:
        if suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; choose from {', '.join(SUITES)}"
            )
    sizes = SCALES[scale]
    scenarios: List[Scenario] = []
    if "iwarded" in suites:
        scenarios.append(
            generate_iwarded(
                seed=base_seed, flavour="linear", **sizes["iwarded"]
            )
        )
        scenarios.append(
            generate_iwarded(
                seed=base_seed + 1, flavour="pwl", **sizes["iwarded"]
            )
        )
    if "ibench" in suites:
        scenarios.append(
            generate_ibench(
                seed=base_seed + 2, add_target_recursion=True,
                **sizes["ibench"],
            )
        )
    if "chasebench" in suites:
        scenarios.append(
            generate_chasebench(
                seed=base_seed + 3, recursion="linear", **sizes["chasebench"]
            )
        )
    if "dbpedia" in suites:
        scenarios.append(
            generate_dbpedia(seed=base_seed + 4, **sizes["dbpedia"])
        )
    if "industrial" in suites:
        scenarios.append(
            generate_industrial(
                seed=base_seed + 5, flavour="psc", **sizes["industrial"]
            )
        )
        scenarios.append(
            generate_industrial(
                seed=base_seed + 6, flavour="control", **sizes["industrial"]
            )
        )
    return scenarios


def applicable_engines(analysis, engines: Sequence[str]) -> List[str]:
    """The subset of *engines* that is sound-and-complete-capable here.

    ``chase`` and ``network`` stay in — they are exact *iff* they
    saturate, which :func:`run_cell` discovers by running them under a
    budget — while the class-gated engines are filtered up front.
    """
    selected: List[str] = []
    for engine in engines:
        if engine == "datalog" and not (
            analysis.full and analysis.single_head
        ):
            continue
        if engine == "pwl" and not (
            analysis.warded and analysis.piecewise_linear
        ):
            continue
        if engine == "ward" and not analysis.warded:
            continue
        selected.append(engine)
    return selected


def _resident_report(
    session: Session, compiled, plan
) -> Tuple[int, int, dict]:
    """Per-component resident (and spilled) bytes the cell left behind.

    Materializing engines are charged their saturated fixpoint store
    (the session cached it); the proof-tree engines hold bounded CQs
    instead of an instance, so their resident state is the shared EDB
    plus the star abstraction — measured with one visited-set so terms
    shared between the two are charged once.  The second figure is the
    disk-resident half (the sharded backend's evicted pages; zero for
    fully in-memory backends).
    """
    fixpoint = session.get_fixpoint(plan)
    if fixpoint is not None:
        report = fixpoint.memory_report()
        return (
            report.resident_bytes,
            report.spilled_bytes,
            dict(report.components),
        )
    seen: set = set()
    edb_report = session.edb.memory_report(seen)
    components = {
        f"edb.{name}": size for name, size in edb_report.components.items()
    }
    total = edb_report.total_bytes
    spilled = edb_report.spilled_bytes
    if plan.method in ("pwl", "ward"):
        abstraction = session.abstraction_for(compiled)
        abs_report = abstraction.memory_report(seen)
        components.update(
            (f"abstraction.{name}", size)
            for name, size in abs_report.components.items()
        )
        total += abs_report.total_bytes
        spilled += abs_report.spilled_bytes
    return total, spilled, components


def run_cell(
    scenario: Scenario,
    query: ConjunctiveQuery,
    engine: str,
    store: str,
    *,
    scale: str = "smoke",
    budget: Optional[dict] = None,
    compiled=None,
) -> CellResult:
    """Execute one matrix cell through a fresh :class:`Session`.

    A cold session per cell keeps the timing honest (no materialization
    or abstraction leaks in from a neighbouring cell) while the compile
    step stays outside the measured window — the matrix measures query
    answering, not parsing.  *compiled*, if given, is the scenario
    program's existing :class:`~repro.api.program.CompiledProgram`
    artifact, adopted instead of re-running the analysis per cell.
    """
    cell = CellResult(
        suite=scenario.suite,
        scenario=scenario.name,
        query=str(query),
        engine=engine,
        store=store,
        scale=scale,
    )
    session = Session(store=store)
    compiled = session.compile(
        compiled if compiled is not None else scenario.program
    )
    session.add_facts(scenario.database)

    kwargs: Dict[str, object] = {}
    if engine in ("chase", "network"):
        if budget is None:
            # Unknown scale labels (custom corpora) get the mid-size
            # budget rather than a KeyError.
            budget = SCALES.get(scale, SCALES["small"])["budget"]
        max_atoms = budget.get("max_atoms")
        steps_key = "max_steps" if engine == "chase" else "max_events"
        steps = budget.get(steps_key)
        if steps is None and max_atoms is not None:
            steps = 2 * max_atoms
        if max_atoms is not None:
            kwargs["max_atoms"] = max_atoms
        if steps is not None:
            kwargs[steps_key] = steps

    stream = session.query(query, program=compiled, method=engine, **kwargs)
    start = perf_counter()
    try:
        answers = stream.to_set()
    except UnsupportedProgramError as error:
        cell.seconds = perf_counter() - start
        cell.status = "not-saturated"
        cell.detail = str(error)
        return cell
    except Exception as error:  # pragma: no cover — defensive
        cell.seconds = perf_counter() - start
        cell.status = "error"
        cell.detail = f"{type(error).__name__}: {error}"
        return cell
    cell.seconds = perf_counter() - start

    cell.answers = len(answers)
    cell.answer_digest = answer_digest(answers)
    cell.rounds = stream.stats.rounds
    cell.events = stream.stats.events
    cell.decided_tuples = stream.stats.decided_tuples
    cell.exec_mode = stream.stats.exec_mode
    cell.kernel_batches = stream.stats.kernel_batches
    cell.resident_bytes, cell.spilled_bytes, cell.memory = _resident_report(
        session, compiled, stream.plan
    )
    return cell


def run_matrix(
    scenarios: Optional[Sequence[Scenario]] = None,
    *,
    engines: Sequence[str] = DEFAULT_ENGINES,
    stores: Sequence[str] = BACKENDS,
    scale: str = "smoke",
    base_seed: int = 2019,
    suites: Sequence[str] = SUITES,
    queries_per_scenario: int = 1,
    progress=None,
) -> SuiteReport:
    """Run the full scenario × engine × store matrix.

    Without explicit *scenarios* the corpus comes from
    :func:`suite_corpus` (*scale*, *base_seed*, *suites*).  Engines a
    scenario's program class rules out are recorded as ``skipped``
    cells, so the emitted matrix is rectangular and the JSON says *why*
    a number is absent.  *progress*, if given, is called with each
    finished :class:`CellResult` (the CLI prints rows as they land).
    Each datalog cell's ``exec_mode`` field records how its store made
    the rounds run.
    """
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}"
            )
    for store in stores:
        if store not in BACKENDS:
            raise ValueError(
                f"unknown storage backend {store!r}; choose from "
                f"{', '.join(BACKENDS)}"
            )
    if queries_per_scenario < 1:
        raise ValueError("queries_per_scenario must be >= 1")
    if scenarios is None:
        scenarios = suite_corpus(scale, base_seed=base_seed, suites=suites)

    budget = SCALES[scale]["budget"] if scale in SCALES else None
    cells: List[CellResult] = []
    for scenario in scenarios:
        compiled = compile_program(scenario.program)
        analysis = compiled.analysis
        runnable = applicable_engines(analysis, engines)
        queries = scenario.queries[:queries_per_scenario]
        for query in queries:
            for engine in engines:
                # The proof-tree engines hold bounded CQs, never an
                # instance — the storage backend cannot change their
                # work or their footprint, so measure once and share
                # the cell across stores instead of re-running
                # byte-identical computations.
                shared: Optional[CellResult] = None
                for store in stores:
                    if engine not in runnable:
                        cell = CellResult(
                            suite=scenario.suite,
                            scenario=scenario.name,
                            query=str(query),
                            engine=engine,
                            store=store,
                            scale=scale,
                            status="skipped",
                            detail=(
                                f"engine {engine!r} is not exact for class "
                                f"{analysis.program_class}"
                            ),
                        )
                    elif shared is not None:
                        cell = replace(
                            shared,
                            store=store,
                            memory=dict(shared.memory),
                            detail=(
                                "store-independent engine: measurement "
                                f"shared from the {shared.store!r} cell"
                            ),
                        )
                    else:
                        cell = run_cell(
                            scenario, query, engine, store,
                            scale=scale, budget=budget, compiled=compiled,
                        )
                        if engine in ("pwl", "ward") and cell.status == "ok":
                            # Only successful runs are shared: a failed
                            # cell keeps its diagnostic detail and is
                            # retried per store.
                            shared = cell
                    cells.append(cell)
                    if progress is not None:
                        progress(cell)

    report = SuiteReport(
        scale=scale,
        suites=tuple(dict.fromkeys(s.suite for s in scenarios)),
        engines=tuple(engines),
        stores=tuple(stores),
        cells=cells,
        meta={
            "base_seed": base_seed,
            "scenarios": [s.describe() for s in scenarios],
            "queries_per_scenario": queries_per_scenario,
            # The request is a cap, not a promise — scenarios ship
            # different query counts, so record what each one covered.
            "queries_covered": {
                s.name: min(queries_per_scenario, len(s.queries))
                for s in scenarios
            },
        },
    )
    report.disagreements = check_agreement(cells)
    return report
