"""The option surface of the query path, pinned.

Three plan dimensions — ``method`` × ``rewrite`` × ``store`` — and
three stores.  How a rule runs (kernels or the interpreter) follows
from where its rows live and is reported, never accepted.  Requests
come in through one door: one ``certain_answers``, defined in
``repro.api``.  A knob or a second facade re-added anywhere along the
path fails here rather than in review.  So does a second benchmark
system: the CLI has no ``bench`` and no ``trace``.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api
import repro.chase
import repro.parallel
import repro.reasoning
from repro.api import ENGINES, Planner, Session
from repro.api.planner import WIRE_OPTIONS
from repro.core.program import Program
from repro.datalog.seminaive import (
    datalog_answers,
    seminaive,
    seminaive_rounds,
    stream_datalog_answers,
)
from repro.server import ReasoningClient, ReasoningService
from repro.server.protocol import QUERY_OPTIONS, handle_request
from repro.storage import BACKENDS, make_store


TC_SOURCE = "e(a,b). t(X,Y) :- e(X,Y)."


def _parameters(function):
    return tuple(inspect.signature(function).parameters)


def test_backends():
    assert BACKENDS == ("instance", "columnar", "sharded")


def test_engines():
    assert ENGINES == ("datalog", "pwl", "ward", "chase")


def test_protocol_query_options():
    assert QUERY_OPTIONS == (
        "method", "rewrite", "first", "variant", "max_atoms", "max_steps",
        "strict", "probe_depth", "probe_atoms",
    )
    # ... of which the engine options are the planner's table.
    assert set(QUERY_OPTIONS[3:]) == WIRE_OPTIONS


def test_network_is_not_a_method_anywhere(capsys):
    session = Session()
    session.load(TC_SOURCE)
    with pytest.raises(ValueError, match="unknown method 'network'"):
        session.query("q(X,Y) :- t(X,Y).", method="network")
    service = ReasoningService(TC_SOURCE)
    response = handle_request(
        service,
        {"op": "query", "query": "q(X,Y) :- t(X,Y).", "method": "network"},
    )
    assert response["ok"] is False
    assert response["error"] == "unknown method 'network'"
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["answer", "program.vada", "--query", "q(X) :- t(X,Y).",
             "--method", "network"]
        )
    assert "invalid choice: 'network'" in capsys.readouterr().err


def test_a_max_events_frame_is_refused_with_the_valid_options():
    service = ReasoningService(TC_SOURCE)
    response = handle_request(
        service,
        {"op": "query", "query": "q(X,Y) :- t(X,Y).", "max_events": 5},
    )
    assert response["ok"] is False and response["kind"] == "ProtocolError"
    assert response["error"] == (
        "unknown query option(s) max_events; valid options: "
        + ", ".join(QUERY_OPTIONS)
    )


@pytest.mark.parametrize(
    "function, expected",
    [
        (Session.query,
         ("self", "query", "program", "method", "rewrite", "engine_kwargs")),
        (Session.plan,
         ("self", "query", "program", "method", "rewrite", "engine_kwargs")),
        (Planner.plan,
         ("self", "compiled", "query", "method", "store", "rewrite",
          "magic_provider", "engine_kwargs")),
        (ReasoningService.query,
         ("self", "query", "method", "rewrite", "first", "engine_kwargs")),
        (ReasoningService.stream,
         ("self", "query", "method", "rewrite", "engine_kwargs")),
        (ReasoningClient.query,
         ("self", "query", "method", "rewrite", "first", "timeout",
          "engine_kwargs")),
        (seminaive_rounds, ("database", "program", "max_rounds", "store")),
        (seminaive, ("database", "program", "max_rounds", "store")),
        (stream_datalog_answers,
         ("query", "database", "program", "store", "on_fixpoint", "stats")),
        (datalog_answers, ("query", "database", "program", "store")),
        (repro.api.certain_answers,
         ("query", "database", "program", "method", "store",
          "engine_kwargs")),
        (ReasoningService.__init__,
         ("self", "source", "store", "name", "facts", "state_dir")),
    ],
    ids=lambda value: getattr(value, "__qualname__", None),
)
def test_parameter_names(function, expected):
    assert _parameters(function) == expected



def test_delta_is_not_a_backend_anywhere():
    with pytest.raises(ValueError, match="unknown storage backend 'delta'"):
        make_store("delta")
    with pytest.raises(ValueError, match="unknown storage backend 'delta'"):
        Session(store="delta")
    with pytest.raises(ValueError, match="unknown storage backend 'delta'"):
        ReasoningService(TC_SOURCE, store="delta")



def test_one_certain_answers_facade():
    assert repro.certain_answers is repro.api.certain_answers
    assert repro.api.certain_answers.__module__ == "repro.api.execution"
    for module, names in (
        (repro.reasoning,
         ("certain_answers", "AnswerReport", "linear_proof_search",
          "and_or_search")),
        (repro.reasoning.pwl_ward, ("linear_proof_search",)),
        (repro.reasoning.ward, ("and_or_search",)),
        (repro.reasoning.answers,
         ("certain_answers", "AnswerReport", "_probe_instance",
          "_candidate_tuples", "prepare_proof_tree_answers")),
        (repro.parallel, ("parallel_certain_answers", "ParallelReport")),
        (repro.chase, ("chase_answers",)),
        (repro.chase.runner, ("chase_answers",)),
        (Program,
         ("is_warded", "is_piecewise_linear", "is_intensionally_linear")),
    ):
        for name in names:
            assert not hasattr(module, name), (module, name)


def test_no_module_imports_a_thread_pool():
    # Under the GIL a thread pool of per-tuple decisions used more CPU
    # than the sequential driver and no less wall time; a second thread
    # is priced before it is added, and process pools belong to
    # scale-out.
    source_root = Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(source_root))
        for path in sorted(source_root.rglob("*.py"))
        if "concurrent.futures" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_root_names_resolve_lazily_in_a_fresh_process():
    # ``repro.api`` must not be imported yet when the root hook is first
    # asked: resolving through ``from . import api`` recursed there.
    code = (
        "import sys, repro\n"
        "assert 'repro.api' not in sys.modules\n"
        "assert repro.certain_answers is repro.api.certain_answers\n"
        "assert repro.ChangeSet is repro.incremental.ChangeSet\n"
    )
    source_root = str(Path(repro.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": source_root},
    )


@pytest.mark.parametrize(
    "argv, rejected",
    [
        (["bench", "--scale", "smoke"], "'bench'"),
        (["trace", "replay", "trace.ndjson"], "'trace'"),
        (["trace", "generate", "--ops", "80"], "'trace'"),
    ],
)
def test_one_benchmark_system(argv, rejected, capsys):
    # The scenario matrix, the trace replayer and the trace file format
    # are gone: the e2e contract generates its op lists in-process and
    # measures, tier-1 tests check agreement.
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert f"invalid choice: {rejected}" in capsys.readouterr().err


def test_the_workload_and_benchsuite_exports():
    import repro.benchsuite
    import repro.workloads

    assert sorted(repro.workloads.__all__) == [
        "LatencyHistogram", "MIXES", "Trace", "TraceOp", "ZipfianSampler",
        "generate_trace", "materialize_scenario",
    ]
    assert sorted(repro.benchsuite.__all__) == [
        "ChurnScenario", "RECURSION_FLAVOURS", "RecursionStatistics",
        "SUITES", "Scenario", "answer_digest", "classify_corpus",
        "default_corpus", "example_33_program", "generate_chasebench",
        "generate_churn", "generate_dbpedia", "generate_ibench",
        "generate_industrial", "generate_iwarded", "suite_corpus",
    ]


def test_one_kind_of_edb_version():
    # A served version is a frozen copy of its predecessor: no overlay
    # store, no layer depth to bound, no flatten schedule to tune.
    import importlib

    import repro.storage
    from repro.server import SnapshotManager

    assert not hasattr(repro.storage, "DeltaOverlay")
    with pytest.raises(ImportError):
        importlib.import_module("repro.storage.delta")
    assert _parameters(SnapshotManager.__init__) == ("self", "atoms", "store")
    with pytest.raises(TypeError):
        SnapshotManager(flatten_depth=8)
    assert not {"head_depth", "flattened", "flatten_depth"} & set(
        SnapshotManager().stats()
    )


def test_serve_has_no_flatten_depth_flag():
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["serve", "program.vada", "--flatten-depth", "4"]
        )


def test_the_chase_records_no_derivation_graph():
    # The chase-graph recorder had no caller outside its own test.
    from repro.chase.runner import ChaseResult, ChaseRun, chase_events
    from repro.chase.trigger import Trigger

    for name in ("ChaseGraph", "DerivationEdge"):
        assert not hasattr(repro.chase, name), name
    assert "record_graph" not in _parameters(chase_events)
    for cls in (ChaseResult, ChaseRun):
        assert "graph" not in cls.__dataclass_fields__, cls
    for name in ("substitution", "extended"):
        assert not hasattr(Trigger, name), name


def test_one_kernel_join_path():
    # Every pin runs on rows: a match is the pinned row with each
    # step's matched row appended, so there is no binding list, no
    # slot layout and no second way to run a pin.
    from repro.kernels import KernelEvaluator, PinPlan, RuleKernel

    for name in ("_pin_frontier", "_probe", "_join"):
        assert not hasattr(KernelEvaluator, name), name
    for name in ("binds", "project"):
        assert name not in PinPlan.__dataclass_fields__, name
    assert "num_slots" not in RuleKernel.__dataclass_fields__
