"""PWL-stratum scheduling with materialization boundaries (Section 7(3)).

Piece-wise linearity induces a natural stratification of a program: the
strongly connected components of the predicate graph, ordered
topologically.  The Vadalog system "may decide to insert materialization
nodes at the boundaries of these strata, materializing intermediate
results" — trading memory for the ability to evaluate each stratum to
completion before the next starts (and to reuse the materialized
relations across consumers).

:func:`stratified_seminaive` evaluates a Datalog program stratum by
stratum.  With ``materialize=True`` each stratum's output relations are
frozen into an indexed instance before the next stratum runs (one pass
per stratum, no re-derivation); with ``materialize=False`` the whole
program is handed to plain semi-naive evaluation in one go (the
streaming analogue: every rule stays active until global fixpoint).
Both produce the same least fixpoint; the benchmark E8 measures the
trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.predicate_graph import PredicateGraph
from ..core.instance import Database, Instance
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..core.tgd import TGD
from .seminaive import seminaive

__all__ = ["Strata", "compute_strata", "stratified_seminaive", "StratifiedResult"]


@dataclass(frozen=True)
class Strata:
    """A topologically ordered partition of a program's rules.

    ``layers[i]`` contains the rules whose head predicate belongs to the
    i-th SCC layer of the predicate graph; evaluating layers in order is
    sound because a rule only reads predicates of earlier-or-same layers.
    """

    layers: tuple[tuple[TGD, ...], ...]
    predicate_layer: Dict[str, int]


def compute_strata(program: Program) -> Strata:
    """Group rules by the SCC layer of their head predicate — negated
    body literals count as dependencies, so this is also stratified
    negation's stratification (:mod:`repro.datalog.negation`)."""
    order = PredicateGraph(program).condensation_order()
    layer_of: Dict[str, int] = {}
    for index, component in enumerate(order):
        for predicate in component:
            layer_of[predicate] = index

    layered: Dict[int, List[TGD]] = {}
    for tgd in program:
        head_layers = [layer_of[p] for p in tgd.head_predicates()]
        layered.setdefault(max(head_layers), []).append(tgd)

    layers = tuple(
        tuple(layered[i]) for i in sorted(layered)
    )
    return Strata(layers=layers, predicate_layer=layer_of)


@dataclass
class StratifiedResult:
    """Least fixpoint plus per-stratum statistics."""

    instance: Instance
    per_stratum_derived: tuple[int, ...]
    per_stratum_rounds: tuple[int, ...]
    materialized_sizes: tuple[int, ...]

    def evaluate(self, query: ConjunctiveQuery) -> set[tuple[Constant, ...]]:
        return query.evaluate(self.instance)


def stratified_seminaive(
    database: Database,
    program: Program,
    materialize: bool = True,
) -> StratifiedResult:
    """Evaluate stratum by stratum, optionally materializing boundaries.

    With ``materialize=False`` this delegates to one global semi-naive
    run and reports it as a single stratum — the baseline for the E8
    trade-off measurement.
    """
    if not materialize:
        result = seminaive(database, program)
        return StratifiedResult(
            instance=result.instance,
            per_stratum_derived=(result.derived,),
            per_stratum_rounds=(result.rounds,),
            materialized_sizes=(len(result.instance),),
        )

    strata = compute_strata(program)
    current = Database(database)
    derived: List[int] = []
    rounds: List[int] = []
    sizes: List[int] = []
    for layer in strata.layers:
        layer_program = Program(layer)
        result = seminaive(current, layer_program)
        derived.append(result.derived)
        rounds.append(result.rounds)
        # Materialization boundary: freeze the stratum's output into the
        # database for the next stratum.
        current = Database()
        for atom in result.instance:
            current.add(atom)
        sizes.append(len(current))

    return StratifiedResult(
        instance=current.to_instance(),
        per_stratum_derived=tuple(derived),
        per_stratum_rounds=tuple(rounds),
        materialized_sizes=tuple(sizes),
    )
