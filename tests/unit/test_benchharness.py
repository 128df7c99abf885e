"""Unit tests for the scenario-matrix benchmark harness and its report."""

import json

import pytest

from repro.benchsuite import (
    SCALES,
    SUITES,
    CellResult,
    answer_digest,
    applicable_engines,
    check_agreement,
    generate_chasebench,
    generate_industrial,
    generate_iwarded,
    run_cell,
    run_matrix,
    suite_corpus,
)
from repro.api.program import compile_program
from repro.core.terms import Constant

a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestAnswerDigest:
    def test_order_independent(self):
        assert answer_digest([(a, b), (b, c)]) == answer_digest([(b, c), (a, b)])

    def test_content_sensitive(self):
        assert answer_digest([(a, b)]) != answer_digest([(a, c)])
        assert answer_digest([]) != answer_digest([(a,)])

    def test_injective_under_separator_characters(self):
        # Length-prefixed encoding: constants containing the join
        # separators must not collide distinct answer sets.
        assert answer_digest({(Constant("a,b"),)}) != answer_digest(
            {(Constant("a"), Constant("b"))}
        )
        assert answer_digest({(Constant("a\nx"),)}) != answer_digest(
            {(Constant("a"),), (Constant("x"),)}
        )


class TestSuiteCorpus:
    def test_covers_all_families(self):
        corpus = suite_corpus("smoke")
        assert {s.suite for s in corpus} == set(SUITES)

    def test_deterministic(self):
        first = suite_corpus("smoke", base_seed=7)
        second = suite_corpus("smoke", base_seed=7)
        assert [str(s.program) for s in first] == [
            str(s.program) for s in second
        ]
        assert [sorted(map(str, s.database)) for s in first] == [
            sorted(map(str, s.database)) for s in second
        ]

    def test_scales_grow_the_corpus(self):
        smoke = suite_corpus("smoke")
        small = suite_corpus("small")
        assert sum(len(s.database) for s in smoke) < sum(
            len(s.database) for s in small
        )

    def test_suite_filter(self):
        corpus = suite_corpus("smoke", suites=("dbpedia",))
        assert {s.suite for s in corpus} == {"dbpedia"}

    def test_unknown_scale_and_suite_raise(self):
        with pytest.raises(ValueError, match="unknown scale"):
            suite_corpus("galactic")
        with pytest.raises(ValueError, match="unknown suite"):
            suite_corpus("smoke", suites=("tpch",))


class TestApplicableEngines:
    def test_full_program_gets_every_engine(self):
        scenario = generate_industrial(
            seed=1, flavour="control", **SCALES["smoke"]["industrial"]
        )
        analysis = compile_program(scenario.program).analysis
        engines = applicable_engines(
            analysis, ("datalog", "pwl", "ward", "chase", "network")
        )
        assert engines == ["datalog", "pwl", "ward", "chase", "network"]

    def test_existential_pwl_drops_datalog(self):
        scenario = generate_chasebench(seed=1, recursion="linear", entities=6)
        analysis = compile_program(scenario.program).analysis
        engines = applicable_engines(
            analysis, ("datalog", "pwl", "ward", "chase", "network")
        )
        assert "datalog" not in engines
        assert "pwl" in engines and "ward" in engines

    def test_nonpwl_drops_pwl_keeps_ward(self):
        scenario = generate_iwarded(
            seed=1, flavour="nonpwl", **SCALES["smoke"]["iwarded"]
        )
        analysis = compile_program(scenario.program).analysis
        engines = applicable_engines(analysis, ("pwl", "ward"))
        assert engines == ["ward"]


class TestRunCell:
    def test_ok_cell_measurements(self):
        scenario = generate_industrial(
            seed=3, flavour="control", **SCALES["smoke"]["industrial"]
        )
        cell = run_cell(
            scenario, scenario.queries[0], "datalog", "columnar",
            scale="smoke",
        )
        assert cell.status == "ok"
        assert cell.engine == "datalog" and cell.store == "columnar"
        assert cell.answers > 0 and cell.answer_digest
        assert cell.rounds > 0
        assert cell.resident_bytes > 0 and cell.memory
        assert cell.seconds >= 0

    def test_non_saturating_chase_is_recorded_not_raised(self):
        # The iWarded existential core P(x) → ∃z R(x,z); R(x,y) → P(y)
        # never saturates: the strict chase must land as a
        # `not-saturated` cell, not an exception.
        scenario = generate_iwarded(
            seed=4, flavour="linear", **SCALES["smoke"]["iwarded"]
        )
        cell = run_cell(
            scenario, scenario.queries[0], "chase", "instance",
            scale="smoke", budget={"max_atoms": 200},
        )
        assert cell.status == "not-saturated"
        assert "saturat" in cell.detail or "terminate" in cell.detail

    def test_partial_budget_dicts_accepted(self):
        # Regression: a budget naming only the steps/events key used to
        # crash computing the `2 * max_atoms` fallback eagerly.
        scenario = generate_industrial(
            seed=3, flavour="control", **SCALES["smoke"]["industrial"]
        )
        for engine, key in (("chase", "max_steps"), ("network", "max_events")):
            cell = run_cell(
                scenario, scenario.queries[0], engine, "instance",
                scale="smoke", budget={key: 100000},
            )
            assert cell.status == "ok", (engine, cell.detail)

    def test_unknown_scale_label_with_explicit_budget_or_fallback(self):
        # Regression: custom corpora carry whatever scale label the
        # caller chose; chase cells used to KeyError on SCALES lookup.
        scenario = generate_industrial(
            seed=3, flavour="control", **SCALES["smoke"]["industrial"]
        )
        cell = run_cell(
            scenario, scenario.queries[0], "chase", "instance",
            scale="custom",
        )
        assert cell.status == "ok"

    def test_proof_tree_cell_charges_edb_and_abstraction(self):
        scenario = generate_chasebench(seed=5, recursion="linear", entities=6)
        cell = run_cell(
            scenario, scenario.queries[0], "pwl", "instance", scale="smoke"
        )
        assert cell.status == "ok"
        assert any(name.startswith("edb.") for name in cell.memory)
        assert any(name.startswith("abstraction.") for name in cell.memory)


class TestAgreement:
    def _cell(self, engine, store, digest, answers=2, status="ok"):
        return CellResult(
            suite="iwarded", scenario="s", query="q", engine=engine,
            store=store, scale="smoke", status=status, answers=answers,
            answer_digest=digest,
        )

    def test_agreeing_cells_pass(self):
        cells = [self._cell("pwl", "instance", "d1"),
                 self._cell("ward", "columnar", "d1")]
        assert check_agreement(cells) == []

    def test_disagreeing_cells_reported(self):
        cells = [self._cell("pwl", "instance", "d1"),
                 self._cell("ward", "instance", "d2")]
        records = check_agreement(cells)
        assert len(records) == 1
        assert {c["engine"] for c in records[0]["cells"]} == {"pwl", "ward"}

    def test_failed_cells_excluded(self):
        cells = [self._cell("pwl", "instance", "d1"),
                 self._cell("chase", "instance", "", 0, "not-saturated")]
        assert check_agreement(cells) == []


class TestRunMatrixAndReport:
    def test_matrix_on_one_family(self, tmp_path):
        report = run_matrix(
            scale="smoke",
            suites=("chasebench",),
            engines=("pwl", "ward", "chase"),
            stores=("instance", "columnar"),
        )
        assert report.disagreements == [] and report.error_cells == []
        assert {c.engine for c in report.ok_cells} >= {"pwl", "ward"}
        assert {c.store for c in report.ok_cells} == {"instance", "columnar"}

        path = report.write(tmp_path / "nested" / "BENCH_suite.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro/bench-suite/v1"
        assert payload["scale"] == "smoke"
        assert payload["agreement"]["disagreements"] == []
        assert len(payload["cells"]) == len(report.cells)
        cell = payload["cells"][0]
        for key in ("suite", "scenario", "query", "engine", "store",
                    "status", "seconds", "answers", "resident_bytes",
                    "rounds", "events"):
            assert key in cell

    def test_proof_tree_measurement_shared_across_stores(self):
        report = run_matrix(
            scale="smoke", suites=("chasebench",), engines=("pwl",),
            stores=("instance", "columnar", "sharded"),
        )
        cells = [c for c in report.cells if c.engine == "pwl"]
        assert len(cells) == 3 and all(c.status == "ok" for c in cells)
        # One measured run, shared: identical numbers, labelled reuse.
        assert len({c.seconds for c in cells}) == 1
        assert len({c.answer_digest for c in cells}) == 1
        assert sum("shared from" in c.detail for c in cells) == 2

    def test_skipped_cells_keep_matrix_rectangular(self):
        report = run_matrix(
            scale="smoke", suites=("iwarded",), engines=("datalog", "ward"),
            stores=("instance",), queries_per_scenario=1,
        )
        statuses = {(c.engine, c.status) for c in report.cells}
        assert ("datalog", "skipped") in statuses
        assert ("ward", "ok") in statuses

    def test_validates_engines_and_stores(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_matrix(scale="smoke", engines=("warp",))
        with pytest.raises(ValueError, match="unknown storage backend"):
            run_matrix(scale="smoke", stores=("ram",))
        with pytest.raises(ValueError, match="queries_per_scenario"):
            run_matrix(scale="smoke", queries_per_scenario=0)
