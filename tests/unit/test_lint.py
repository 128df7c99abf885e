"""Unit tests for repro.lint — the static diagnostics engine.

Covers the diagnostic model (codes, severities, filtering, renderings),
every registered pass with a minimal triggering program, the acceptance
program (unsafe + non-stratifiable + non-warded, all reported with
distinct stable codes and correct spans), syntax-error degradation
(E001), and the session-layer wiring: cached reports on
CompiledProgram, the LintError planning gate, and the explain line.
"""

import pytest

from repro.api import LintError, Session
from repro.core.terms import Constant
from repro.lang.parser import parse_program
from repro.lint import (
    ProgramDiagnostics,
    lint_source,
    pass_invocations,
    registered_codes,
    run_lint,
    severity_of_code,
)

# The acceptance program: simultaneously unsafe (E101: Z in the head of
# a negated rule, and in a negated literal, without a positive binder),
# non-stratifiable (E103: odd/even negate through their own recursive
# component), and non-warded (W201: dangerous Y, Z never co-occur in
# one body atom of the pair rule).
DEFECTIVE = """e(a, b).
p(X) :- e(X, Y).
q(X, Y) :- p(X).
pair(Y, Z) :- q(X, Y), q(W, Z).
odd(X) :- e(X, Y), not even(X).
even(X) :- e(X, Y), not odd(X).
bad(Z) :- e(X, Y), not e(Y, Z).
"""

CLEAN = """e(a, b). e(b, c).
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""


def lint_text(text, **kwargs):
    report = lint_source(text, **kwargs)
    assert isinstance(report, ProgramDiagnostics)
    return report


class TestDiagnosticModel:
    def test_severity_of_code(self):
        assert severity_of_code("E101") == "error"
        assert severity_of_code("W201") == "warning"
        assert severity_of_code("I106") == "info"
        with pytest.raises(ValueError, match="must start with"):
            severity_of_code("X999")

    def test_registry_is_sorted_and_consistent(self):
        codes = [code for code, _, _, _ in registered_codes()]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        for code, name, severity, summary in registered_codes():
            assert severity == severity_of_code(code)
            assert name and summary

    def test_render_and_dict(self):
        report = lint_text(DEFECTIVE)
        first = report.diagnostics[0]
        line = first.render("prog.vada")
        assert line.startswith("prog.vada:")
        assert first.code in line and first.name in line
        payload = first.as_dict()
        assert payload["code"] == first.code
        assert payload["line"] == first.span.line
        assert payload["column"] == first.span.column

    def test_report_sorted_by_source_position(self):
        report = lint_text(DEFECTIVE)
        positions = [
            (d.span.line, d.span.column) for d in report if d.span is not None
        ]
        assert positions == sorted(positions)

    def test_counts_and_fails(self):
        report = lint_text(CLEAN)
        assert report.summary() == "clean"
        assert not report.fails() and not report.fails(strict=True)

        report = lint_text(DEFECTIVE)
        counts = report.counts()
        assert counts["error"] == 4
        assert counts["warning"] == 2
        assert report.fails() and report.fails(strict=True)

    def test_warnings_fail_only_under_strict(self):
        # Drop the errors: what remains is warnings + infos.
        report = lint_text(DEFECTIVE, ignore=["E"])
        assert not report.errors() and report.warnings()
        assert not report.fails()
        assert report.fails(strict=True)

    def test_infos_never_fail(self):
        report = lint_text(DEFECTIVE, select=["I"])
        assert report.infos() and not report.errors()
        assert not report.fails() and not report.fails(strict=True)

    def test_select_and_ignore_prefixes(self):
        report = lint_text(DEFECTIVE)
        errors_only = report.filter(select=["E"])
        assert errors_only.codes() == ("E101", "E103")
        no_frag = report.filter(ignore=["W2", "I"])
        assert all(not c.startswith(("W2", "I")) for c in no_frag.codes())
        exact = report.filter(select=["E101"])
        assert exact.codes() == ("E101",)
        assert len(exact) == 2

    def test_filter_identity_returns_self(self):
        report = lint_text(DEFECTIVE)
        assert report.filter(None, None) is report

    def test_summary_counts_codes(self):
        report = lint_text(DEFECTIVE, select=["E"])
        assert report.summary() == "4 error(s) — E101 ×2, E103 ×2"


class TestAcceptanceProgram:
    """The ISSUE acceptance criterion: one program, three defect
    families, three distinct stable codes, correct line:column spans."""

    def test_distinct_codes_present(self):
        report = lint_text(DEFECTIVE)
        codes = report.codes()
        assert "E101" in codes  # unsafe
        assert "E103" in codes  # non-stratifiable
        assert "W201" in codes  # non-warded

    def test_spans_point_at_the_defects(self):
        report = lint_text(DEFECTIVE)
        by_code = {}
        for d in report:
            by_code.setdefault(d.code, []).append(d)

        # E101: both findings anchor at head variable Z of the bad rule
        # on line 7 (its first occurrence in the rule).
        assert [(d.span.line, d.span.column) for d in by_code["E101"]] == [
            (7, 5),
            (7, 5),
        ]
        # E103: the negated literals inside the odd/even component.
        assert [(d.span.line, d.span.column) for d in by_code["E103"]] == [
            (5, 24),
            (6, 25),
        ]
        # W201: the non-warded pair rule starting at line 4.
        (w201,) = by_code["W201"]
        assert (w201.span.line, w201.span.column) == (4, 1)
        assert "{Y, Z}" in w201.message

    def test_rule_indices_recorded(self):
        report = lint_text(DEFECTIVE)
        (w201,) = [d for d in report if d.code == "W201"]
        assert w201.rule_index == 2  # pair is the third rule


class TestPerCodeTriggers:
    def lint_one(self, text, code, **kwargs):
        report = lint_text(text, **kwargs)
        findings = [d for d in report if d.code == code]
        assert findings, f"{code} not raised; got {report.codes()}"
        return findings

    def test_e101_unbound_negated_variable(self):
        findings = self.lint_one(
            "p(X) :- e(X), not f(Y).\ne(a).", "E101"
        )
        assert "Y" in findings[0].message

    def test_e102_arity_mismatch(self):
        findings = self.lint_one(
            "e(a, b).\np(X) :- e(X).", "E102"
        )
        assert "arities" in findings[0].message
        assert findings[0].predicate == "e"

    def test_e103_negation_through_recursion(self):
        self.lint_one(
            "p(X) :- e(X), not q(X).\nq(X) :- p(X).\ne(a).", "E103"
        )

    def test_w104_edb_predicate_in_head(self):
        findings = self.lint_one("e(a, b).\ne(X, Y) :- r(X, Y).\nr(c, d).", "W104")
        assert findings[0].predicate == "e"

    def test_w105_type_conflict(self):
        findings = self.lint_one("age(ann, 31).\nage(bob, old).", "W105")
        assert "integer" in findings[0].message

    def test_i106_singleton_variable(self):
        findings = self.lint_one("p(X) :- e(X, Y).\ne(a, b).", "I106")
        assert "Y" in findings[0].message

    def test_i106_skips_underscore(self):
        report = lint_text("p(X) :- e(X, _Y).\ne(a, b).")
        assert "I106" not in report.codes()

    def test_i107_existential_head(self):
        findings = self.lint_one("q(X, Y) :- p(X).\np(a).", "I107")
        assert "Y" in findings[0].message

    def test_i108_duplicate_rule(self):
        self.lint_one(
            "p(X) :- e(X).\np(X) :- e(X).\ne(a).", "I108"
        )

    def test_w202_non_pwl_rule(self):
        self.lint_one(
            "t(X, Y) :- e(X, Y).\n"
            "t(X, Z) :- t(X, Y), t(Y, Z).\n"
            "e(a, b).",
            "W202",
        )

    def test_w203_cartesian_product(self):
        findings = self.lint_one(
            "pair(X, Y) :- p(X), q(Y).\np(a). q(b).", "W203"
        )
        assert "2 variable-disjoint" in findings[0].message

    def test_w204_demand_opaque_rule(self):
        self.lint_one(
            "r(X) :- e(X).\n"
            "out(Y) :- f(Y), r(X).\n"
            "e(a). f(b).",
            "W204",
        )

    def test_w205_needs_query(self):
        text = "p(X) :- e(X).\nq(X) :- f(X).\ne(a). f(b)."
        # Without a query the reachability pass does not run.
        assert "W205" not in lint_text(text).codes()
        findings = self.lint_one(text, "W205", query="ans(X) :- p(X).")
        assert "q" in findings[0].message

    def test_i206_dead_predicate(self):
        findings = self.lint_one("p(X) :- e(X).\ne(a).", "I206")
        assert findings[0].predicate == "p"

    def test_i207_once_per_program(self):
        findings = self.lint_one(
            "q(X, Y) :- p(X).\nr(X, Y) :- s(X).\np(a). s(b).", "I207"
        )
        assert len(findings) == 1


class TestSyntaxErrors:
    def test_e001_reports_parse_position(self):
        # Six good lines, then a typo on line 7: E001 must say line 7.
        text = (
            "e(a, b).\n"
            "e(b, c).\n"
            "e(c, d).\n"
            "t(X, Y) :- e(X, Y).\n"
            "t(X, Z) :- e(X, Y), t(Y, Z).\n"
            "p(X) :- t(a, X).\n"
            "q(X) :- t(X Y).\n"
        )
        report = lint_text(text)
        assert report.codes() == ("E001",)
        assert report.passes_run == 0
        (finding,) = report.diagnostics
        assert finding.severity == "error"
        assert finding.span.line == 7
        assert report.fails()

    def test_e001_from_lexer_error(self):
        report = lint_text("p(a).\nq(§).\n")
        (finding,) = report.diagnostics
        assert finding.code == "E001"
        assert finding.span.line == 2

    def test_e001_from_bad_query(self):
        report = lint_text(CLEAN, query="q(X) :- ")
        assert report.codes() == ("E001",)


class TestSessionWiring:
    def test_compiled_program_caches_diagnostics(self):
        session = Session()
        compiled = session.load(CLEAN)
        assert compiled.lint_runs == 0  # lazy: nothing ran yet
        report = compiled.diagnostics
        assert compiled.lint_runs == 1
        before = pass_invocations()
        for _ in range(10):
            assert compiled.diagnostics is report
            session.query("q(X, Y) :- t(X, Y).").to_set()
        assert compiled.lint_runs == 1
        assert pass_invocations() == before

    def test_lint_runs_mirrors_analysis_runs(self):
        session = Session()
        compiled = session.load(CLEAN)
        compiled.diagnostics
        for _ in range(5):
            session.query("q(X, Y) :- t(X, Y).").to_set()
        assert compiled.analysis_runs == 1
        assert compiled.lint_runs == 1

    def test_plan_rejects_error_diagnostics(self):
        session = Session()
        session.load(DEFECTIVE)
        with pytest.raises(LintError, match="E101") as excinfo:
            session.plan("ans(X, Y) :- pair(X, Y).")
        error = excinfo.value
        assert all(d.severity == "error" for d in error.diagnostics)
        codes = {d.code for d in error.diagnostics}
        assert codes == {"E101", "E103"}

    def test_explain_carries_lint_summary(self):
        session = Session()
        session.load(CLEAN)
        plan = session.plan("q(X, Y) :- t(X, Y).")
        assert "lint    : clean" in plan.explain()

    def test_explain_lint_line_reports_findings(self):
        session = Session()
        # Warnings do not block planning; they do show in explain().
        session.load(
            "owns(a, b). owns(b, c).\n"
            "c(X, Y) :- owns(X, Y).\n"
            "c(X, Z) :- c(X, Y), c(Y, Z).\n"
            "boards(X, Y) :- c(X, P), c(Y, Q).\n"
        )
        plan = session.plan("q(X, Y) :- c(X, Y).")
        assert "lint    :" in plan.explain()
        assert "W203" in plan.explain()

    def test_facts_inform_edb_passes(self):
        # W104 needs the session EDB: the program alone has no facts.
        session = Session()
        compiled = session.load("e(a, b).\ne(X, Y) :- r(X, Y).\nr(c, d).")
        assert "W104" in compiled.diagnostics.codes()

    def test_run_lint_on_parsed_program(self):
        program, database = parse_program(DEFECTIVE)
        report = run_lint(program, facts=database)
        assert {"E101", "E103", "W201"} <= set(report.codes())
        assert report.passes_run > 0


class TestPlannerNegationGate:
    def test_negated_program_plans_on_datalog_only(self):
        session = Session()
        session.load(
            "e(a). e(b). f(a).\n"
            "p(X) :- e(X), not f(X).\n"
        )
        assert session.plan("q(X) :- p(X).").method == "datalog"
        assert session.query("q(X) :- p(X).").to_set() == {(Constant("b"),)}
        with pytest.raises(ValueError, match="only on the datalog engine"):
            session.plan("q(X) :- p(X).", method="pwl")

    def test_lint_accepts_stratifiable_negation(self):
        # Stratified negation lints clean (no E-codes): the datalog
        # engine evaluates it; the planner keeps it off the others.
        report = lint_text("e(a). f(a).\np(X) :- e(X), not f(X).\n")
        assert not report.errors()
