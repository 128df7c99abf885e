"""Property tests: benchmark-generator determinism and planted truth.

The whole benchmark story rests on two properties of the scenario
generators:

* **Determinism** — the same seed must yield a byte-identical scenario
  (program text, database contents, queries) for every family; without
  it no benchmark number is reproducible and no cross-run comparison
  is meaningful.
* **Honest planting** — ``Scenario.planted_recursion`` must agree with
  what the package's own analyzers measure, for any seed; the E1
  statistics trust that label.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.linearization import linearize
from repro.analysis.piecewise import is_piecewise_linear
from repro.analysis.wardedness import is_warded
from repro.benchsuite import (
    RECURSION_FLAVOURS,
    generate_chasebench,
    generate_dbpedia,
    generate_ibench,
    generate_industrial,
    generate_iwarded,
    suite_corpus,
)

seeds = st.integers(min_value=0, max_value=10**6)

#: One deterministic builder per family, each exercising its flavour
#: space from the seed itself so hypothesis shrinks over both.
FAMILY_BUILDERS = {
    "iwarded": lambda seed: generate_iwarded(
        seed=seed, flavour=RECURSION_FLAVOURS[seed % len(RECURSION_FLAVOURS)]
    ),
    "ibench": lambda seed: generate_ibench(
        seed=seed, add_target_recursion=bool(seed % 2)
    ),
    "chasebench": lambda seed: generate_chasebench(
        seed=seed, recursion=("none", "linear", "linearizable")[seed % 3]
    ),
    "dbpedia": lambda seed: generate_dbpedia(seed=seed),
    "industrial": lambda seed: generate_industrial(
        seed=seed, flavour=("control", "psc", "nonpwl")[seed % 3]
    ),
}


def _fingerprint(scenario) -> tuple:
    """A byte-exact rendering of everything a scenario contains."""
    return (
        scenario.name,
        scenario.suite,
        "\n".join(str(tgd) for tgd in scenario.program),
        "\n".join(sorted(str(atom) for atom in scenario.database)),
        tuple(str(query) for query in scenario.queries),
        scenario.planted_recursion,
        repr(sorted(scenario.meta.items())),
    )


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_same_seed_same_bytes_every_family(seed):
    for family, build in FAMILY_BUILDERS.items():
        assert _fingerprint(build(seed)) == _fingerprint(build(seed)), family


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_planted_recursion_matches_analyzers(seed):
    for family, build in FAMILY_BUILDERS.items():
        scenario = build(seed)
        program = scenario.program
        assert is_warded(program), (family, seed)
        direct = is_piecewise_linear(program)
        planted = scenario.planted_recursion
        if planted in ("none", "linear", "pwl"):
            assert direct, (family, seed, planted)
        elif planted == "linearizable":
            assert not direct, (family, seed)
            assert linearize(program).piecewise_linear, (family, seed)
        elif planted == "nonpwl":
            assert not direct, (family, seed)
            assert not linearize(program).piecewise_linear, (family, seed)
        else:  # pragma: no cover — planting vocabulary drifted
            raise AssertionError(f"unknown planted label {planted!r}")


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_harness_corpus_is_deterministic(seed):
    first = suite_corpus(base_seed=seed)
    second = suite_corpus(base_seed=seed)
    assert [_fingerprint(s) for s in first] == [
        _fingerprint(s) for s in second
    ]
