"""The option surface of the query path, pinned.

Three plan dimensions — ``method`` × ``rewrite`` × ``store`` — and
three stores.  How a rule runs (kernels or the interpreter) follows
from where its rows live and is reported, never accepted.  A knob
re-added anywhere along the path fails here rather than in review.
"""

import inspect

import pytest

from repro.api import Planner, Session
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
        "max_events", "max_rounds", "strict", "probe_depth", "probe_atoms",
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

