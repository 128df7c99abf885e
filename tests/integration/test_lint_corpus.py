"""Corpus lint: the shipped examples and the benchsuite generators.

Two contracts the CI lint job enforces:

* every program under ``examples/programs/`` is strict-clean — no
  error- or warning-severity findings (infos are allowed: the
  ontology example's existential rules are the point);
* every benchsuite generator family emits programs free of
  error-severity findings at smoke scale — the scenarios the
  cross-engine agreement tests run are well-formed by construction.
"""

from pathlib import Path

import pytest

from repro.benchsuite import suite_corpus
from repro.lint import lint_source, run_lint

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"


def example_files():
    return sorted(EXAMPLES.glob("*.vada"))


def test_examples_exist():
    assert example_files(), f"no example programs under {EXAMPLES}"


@pytest.mark.parametrize(
    "path", example_files(), ids=lambda p: p.stem
)
def test_example_is_strict_clean(path):
    report = lint_source(path.read_text(), name=path.name)
    assert not report.fails(strict=True), "\n".join(
        report.render(str(path))
    )
    assert report.passes_run > 0  # it parsed; the passes actually ran


@pytest.mark.parametrize(
    "scenario",
    suite_corpus(),
    ids=lambda sc: f"{sc.suite}-{sc.name}",
)
def test_benchsuite_generators_emit_error_free_programs(scenario):
    report = run_lint(scenario.program, facts=scenario.database)
    assert not report.errors(), "\n".join(report.render(scenario.name))


@pytest.mark.parametrize(
    "scenario",
    suite_corpus(),
    ids=lambda sc: f"{sc.suite}-{sc.name}",
)
def test_benchsuite_queries_lint_with_program(scenario):
    # The reachability pass (W205) runs only with a query; it must not
    # crash on — or flag errors in — any generated (program, query).
    for query in scenario.queries:
        report = run_lint(
            scenario.program, facts=scenario.database, query=query
        )
        assert not report.errors()
