"""Recursion statistics over a scenario corpus (the Section 1.2 claim).

The paper reports that across its benchmarks "approximately 70% of the
TGD-sets use recursion in [the piece-wise linear] way: approximately 55%
of the TGD-sets directly use the above type of recursion, while 15% can
be transformed into warded sets of TGDs that use recursion as explained
above" via the standard elimination of unnecessary non-linear recursion.

:func:`classify_corpus` measures exactly those three buckets over a
scenario corpus with the package's own analyzers (Definition 4.1
membership and the Section 1.2 linearization), and
:func:`default_corpus` builds a corpus whose *suite mixture* mirrors the
benchmark families the paper lists; the E1 benchmark then checks that
the measured fractions land in the reported bands.
:func:`suite_corpus` is the small one-of-each-family corpus the
cross-engine and cross-store agreement tests run over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..analysis.linearization import linearize
from ..analysis.piecewise import is_piecewise_linear
from ..analysis.wardedness import is_warded
from .chasebench import generate_chasebench
from .dbpedia import generate_dbpedia
from .ibench import generate_ibench
from .industrial import generate_industrial
from .iwarded import generate_iwarded
from .scenario import Scenario

__all__ = [
    "RecursionStatistics",
    "SUITES",
    "classify_corpus",
    "default_corpus",
    "suite_corpus",
]

#: The five benchmark families the paper surveys (PAPER.md §1.2).
SUITES = ("iwarded", "ibench", "chasebench", "dbpedia", "industrial")

#: Per-family generator sizes of :func:`suite_corpus`: small enough
#: that every engine runs on every store in seconds.
_SMOKE_SIZES: Dict[str, dict] = {
    "iwarded": dict(vertices=8, edges=12),
    "ibench": dict(primitives=4, rows_per_relation=5),
    "chasebench": dict(entities=8),
    "dbpedia": dict(classes=8, entities=10, properties=3),
    "industrial": dict(companies=8, ownerships=12),
}


@dataclass
class RecursionStatistics:
    """The three Section 1.2 buckets (plus totals and sanity counters)."""

    total: int
    direct_pwl: int
    linearizable: int
    beyond: int
    warded: int

    @property
    def direct_fraction(self) -> float:
        return self.direct_pwl / self.total if self.total else 0.0

    @property
    def linearizable_fraction(self) -> float:
        return self.linearizable / self.total if self.total else 0.0

    @property
    def pwl_fraction(self) -> float:
        """The headline "~70%" number: direct + linearizable."""
        return self.direct_fraction + self.linearizable_fraction

    def rows(self) -> List[tuple[str, int, float]]:
        """Printable (bucket, count, fraction) rows."""
        return [
            ("directly piece-wise linear", self.direct_pwl, self.direct_fraction),
            ("piece-wise linear after elimination", self.linearizable,
             self.linearizable_fraction),
            ("beyond piece-wise linear", self.beyond,
             self.beyond / self.total if self.total else 0.0),
        ]


def classify_corpus(scenarios: Sequence[Scenario]) -> RecursionStatistics:
    """Measure the three recursion buckets with the package analyzers."""
    direct = 0
    linearizable = 0
    beyond = 0
    warded = 0
    for scenario in scenarios:
        program = scenario.program
        if is_warded(program):
            warded += 1
        if is_piecewise_linear(program):
            direct += 1
        else:
            result = linearize(program)
            if result.piecewise_linear:
                linearizable += 1
            else:
                beyond += 1
    return RecursionStatistics(
        total=len(scenarios),
        direct_pwl=direct,
        linearizable=linearizable,
        beyond=beyond,
        warded=warded,
    )


def default_corpus(base_seed: int = 2019, scale: int = 2) -> List[Scenario]:
    """A corpus mirroring the paper's benchmark-family mixture.

    Per ``scale`` unit the corpus contains 19 scenarios: 6 iWarded
    (mixed flavours, recursion-heavy), 4 iBench (data exchange, little
    recursion), 4 ChaseBench (mappings + mild recursion), 2 DBpedia
    (ontology, PWL), 3 industrial (graph analytics, mixed) — a mixture
    calibrated so the planted ground truth sits near the paper's
    55% direct / 15% after-elimination / 30% beyond split.
    """
    scenarios: List[Scenario] = []
    seed = base_seed
    for _ in range(scale):
        for flavour in ("linear", "pwl", "linearizable", "nonpwl", "nonpwl",
                        "nonpwl"):
            scenarios.append(generate_iwarded(seed=seed, flavour=flavour))
            seed += 1
        for i in range(4):
            scenarios.append(
                generate_ibench(seed=seed, add_target_recursion=(i % 2 == 0))
            )
            seed += 1
        for recursion in ("none", "linear", "linearizable", "linearizable"):
            scenarios.append(generate_chasebench(seed=seed, recursion=recursion))
            seed += 1
        for _ in range(2):
            scenarios.append(generate_dbpedia(seed=seed))
            seed += 1
        for flavour in ("psc", "nonpwl", "nonpwl"):
            scenarios.append(generate_industrial(seed=seed, flavour=flavour))
            seed += 1
    return scenarios


def suite_corpus(
    *, base_seed: int = 2019, suites: Sequence[str] = SUITES
) -> List[Scenario]:
    """Deterministic smoke-sized scenarios from the five families.

    Each family contributes piece-wise linear scenarios (so at least
    the two proof-tree engines run — and must agree — on every one),
    and the industrial family additionally contributes a full-Datalog
    control scenario so the semi-naive engine has exact inputs too.
    """
    for suite in suites:
        if suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; choose from {', '.join(SUITES)}"
            )
    scenarios: List[Scenario] = []
    if "iwarded" in suites:
        scenarios.append(
            generate_iwarded(
                seed=base_seed, flavour="linear", **_SMOKE_SIZES["iwarded"]
            )
        )
        scenarios.append(
            generate_iwarded(
                seed=base_seed + 1, flavour="pwl", **_SMOKE_SIZES["iwarded"]
            )
        )
    if "ibench" in suites:
        scenarios.append(
            generate_ibench(
                seed=base_seed + 2, add_target_recursion=True,
                **_SMOKE_SIZES["ibench"],
            )
        )
    if "chasebench" in suites:
        scenarios.append(
            generate_chasebench(
                seed=base_seed + 3, recursion="linear",
                **_SMOKE_SIZES["chasebench"],
            )
        )
    if "dbpedia" in suites:
        scenarios.append(
            generate_dbpedia(seed=base_seed + 4, **_SMOKE_SIZES["dbpedia"])
        )
    if "industrial" in suites:
        scenarios.append(
            generate_industrial(
                seed=base_seed + 5, flavour="psc",
                **_SMOKE_SIZES["industrial"],
            )
        )
        scenarios.append(
            generate_industrial(
                seed=base_seed + 6, flavour="control",
                **_SMOKE_SIZES["industrial"],
            )
        )
    return scenarios
