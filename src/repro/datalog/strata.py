"""The stratification of a program (Section 7(3)).

Piece-wise linearity induces a natural stratification of a program: the
strongly connected components of the predicate graph, ordered
topologically.  Negated literals are edges of that graph too, so the
same layers are stratified negation's strata:
:func:`~repro.datalog.seminaive.seminaive_rounds` runs a program with
negated literals layer by layer, the maintainer
(:mod:`repro.incremental`) schedules its waves over them, and the
benchmark E8 prices the Vadalog system's option to "insert
materialization nodes at the boundaries of these strata".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.predicate_graph import PredicateGraph
from ..core.program import Program
from ..core.tgd import TGD

__all__ = ["Strata", "compute_strata"]


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
    negation's stratification."""
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
