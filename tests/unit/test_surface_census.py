"""The option surface of the query path, pinned.

Three plan dimensions — ``method`` × ``rewrite`` × ``store`` — and
three stores.  How a rule runs (kernels or the interpreter) follows
from where its rows live and is reported, never accepted.  Requests
come in through one door: one ``certain_answers``, defined in
``repro.api``.  A knob or a second facade re-added anywhere along the
path fails here rather than in review.
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
import repro.reasoning
from repro.api import Planner, Session
from repro.api.planner import WIRE_OPTIONS
from repro.core.program import Program
from repro.datalog.seminaive import (
    datalog_answers,
    seminaive,
    seminaive_rounds,
    stream_datalog_answers,
)
from repro.server import ReasoningClient, ReasoningService
from repro.server.protocol import QUERY_OPTIONS
from repro.storage import BACKENDS, make_store


def _parameters(function):
    return tuple(inspect.signature(function).parameters)


def test_backends():
    assert BACKENDS == ("instance", "columnar", "sharded")


def test_protocol_query_options():
    assert QUERY_OPTIONS == (
        "method", "rewrite", "first", "variant", "max_atoms", "max_steps",
        "max_events", "strict", "probe_depth", "probe_atoms",
    )
    # ... of which the engine options are the planner's table.
    assert set(QUERY_OPTIONS[3:]) == WIRE_OPTIONS


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


TC_SOURCE = "e(a,b). t(X,Y) :- e(X,Y)."


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
          "_candidate_tuples")),
        (repro.chase, ("chase_answers",)),
        (repro.chase.runner, ("chase_answers",)),
        (Program,
         ("is_warded", "is_piecewise_linear", "is_intensionally_linear")),
    ):
        for name in names:
            assert not hasattr(module, name), (module, name)


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


def test_serve_has_no_flatten_depth_flag():
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["serve", "program.vada", "--flatten-depth", "4"]
        )
