"""Helpers shared by the unit and property tests."""

from repro.core.instance import Database
from repro.core.program import Program
from repro.datalog.seminaive import seminaive
from repro.datalog.strata import compute_strata


def by_layer(database, program):
    """``seminaive`` once per stratum, in order, each run seeded with the
    previous one's fixpoint: the per-stratum results."""
    results = []
    for layer in compute_strata(program).layers:
        results.append(seminaive(database, Program(layer)))
        database = Database(results[-1].instance)
    return results
