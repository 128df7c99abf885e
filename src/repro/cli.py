"""Command-line interface: ``python -m repro <command> ...``.

The everyday workflow of the library, now built on the
:mod:`repro.api` session layer:

* ``classify FILE`` — parse a program and print its class memberships
  (warded, piece-wise linear, intensionally linear, linear Datalog,
  full Datalog), the predicate levels, and the node-width bounds;
* ``lint FILE...`` — run the static diagnostics engine
  (:mod:`repro.lint`) and print each finding with its stable code and
  source position (``--format json`` for machines, ``--strict`` to
  fail on warnings, ``--select``/``--ignore`` to filter by code
  prefix; ``lint --help`` lists every code);
* ``answer FILE --query "q(X,Y) :- t(X,Y)."`` — compute certain
  answers with the planner-dispatched engine (``--explain`` prints the
  query plan first);
* ``query FILE`` — load and compile a program **once**, then answer
  many queries against it: every ``--query`` flag in order, or an
  interactive ``?-`` loop over stdin when none is given;
* ``chase FILE`` — run the (bounded) restricted chase and print the
  derived instance;
* ``update FILE`` — apply EDB fact deltas (``+atom`` / ``-atom``
  lines from a file or stdin) through the incremental-maintenance
  layer: cached fixpoints are upgraded in place and the maintenance
  report (strata maintained, rederivations, fallbacks) is printed;
* ``stats`` — regenerate the Section 1.2 recursion statistics over the
  synthetic benchmark corpus;
* ``bench`` — run the scenario-matrix benchmark suite (all five
  families × engines × storage backends) through the session layer,
  cross-check answers across cells, and write one consolidated
  ``BENCH_suite.json`` (``--scale``, ``--suite``, ``--engine``,
  ``--store``, ``--out``);
* ``rewrite FILE --query ...`` — the Theorem 6.3 / Lemma 6.4 rewriting;
* ``serve FILE`` — run the concurrent reasoning daemon
  (:mod:`repro.server`): many clients over newline-delimited JSON,
  every query snapshot-isolated against live ``update`` batches;
  SIGTERM/SIGINT drain gracefully;
* ``client query|update|stats|ping|shutdown`` — talk to a running
  server with :class:`repro.server.ReasoningClient`;
* ``trace generate|replay|summarize`` — the workload harness
  (:mod:`repro.workloads`): generate a seeded, zipf-skewed NDJSON
  trace over a scenario family, replay it closed- or open-loop
  against an in-process session/service or a live server (latency
  percentiles, answer verification against per-version ground truth),
  or summarize a trace file.

Exit codes: 0 success, 1 lint findings (errors, or warnings under
``--strict``), 2 engine/usage errors (printed as ``repro: error:
...``, no traceback), 3 truncation/disagreement, 130 on interrupt.

Every subcommand accepts ``--store`` naming a fact-storage backend
(see :data:`repro.storage.BACKENDS`); an unknown name fails fast with
the valid choices.  Program files use the same Vadalog-style surface
syntax the parser accepts everywhere else: facts ``e(a, b).`` and rules
``t(X, Z) :- e(X, Y), t(Y, Z).`` with head-only variables existential.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import (
    is_intensionally_linear,
    is_linear_datalog,
    node_width_bound_pwl,
    node_width_bound_ward,
)
from .api import ENGINES, REWRITES, Session
from .chase import chase
from .lang.parser import parse_program, parse_query
from .lint import registered_codes
from .storage import BACKENDS

__all__ = ["main", "build_parser"]


#: Mirror of ``repro.benchsuite.harness`` constants (SCALES keys and
#: SUITES), kept static here so building the parser never imports the
#: harness and its five generator modules; a unit test pins the mirror
#: to the source of truth.
BENCH_SCALES = ("smoke", "small", "medium")
BENCH_SUITES = ("iwarded", "ibench", "chasebench", "dbpedia", "industrial")

#: Mirror of ``repro.workloads.generate`` constants (MIXES keys and
#: TRACE_FAMILIES), static for the same reason; pinned by the same test.
TRACE_MIXES = ("read-heavy", "churn", "lookup-heavy")
TRACE_FAMILIES = ("churn",)


def _store_backend(value: str) -> str:
    """argparse type for ``--store``: validate against the registry."""
    if value not in BACKENDS:
        raise argparse.ArgumentTypeError(
            f"unknown storage backend {value!r}; choose one of "
            f"{', '.join(BACKENDS)}"
        )
    return value


def _positive_int(value: str) -> int:
    """argparse type for counts that must be >= 1."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _byte_size(value: str) -> int:
    """argparse type for ``--memory-budget``: bytes, with k/m/g suffixes."""
    text = value.strip().lower()
    factor = 1
    for suffix, mult in (("k", 1024), ("m", 1024**2), ("g", 1024**3)):
        if text.endswith(suffix):
            text, factor = text[:-1], mult
            break
    try:
        parsed = int(float(text) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a byte size: {value!r} (use e.g. 8000000, 8m, 2g)"
        )
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value!r}")
    return parsed


def _replay_rate(value: str):
    """argparse type for ``trace replay --rate``: ops/sec or 'trace'."""
    if value == "trace":
        return value
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a rate: {value!r} (ops/sec number, or 'trace' to "
            "honour the recorded schedule)"
        )
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"rate must be > 0, got {parsed}")
    return parsed


def _resolve_store(args):
    """The ``store=`` choice the engines get: the backend name, or a
    configured sharded factory when out-of-core flags are present."""
    budget = getattr(args, "memory_budget", None)
    spill_dir = getattr(args, "spill_dir", None)
    if args.store != "sharded":
        if budget is not None or spill_dir is not None:
            raise SystemExit(
                "repro: --memory-budget/--spill-dir require --store sharded"
            )
        return args.store
    if budget is None and spill_dir is None:
        return args.store
    from .storage import sharded_store_factory

    return sharded_store_factory(budget, spill_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Warded Datalog∃ with piece-wise linear recursion — "
            "a reproduction of 'The Space-Efficient Core of Vadalog' "
            "(PODS 2019)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Shared by every subcommand: the fact-storage backend.
    store_options = argparse.ArgumentParser(add_help=False)
    store_options.add_argument(
        "--store",
        default="instance",
        type=_store_backend,
        metavar="BACKEND",
        help="fact-storage backend for materializing engines "
             f"({', '.join(BACKENDS)}; default: instance)",
    )
    store_options.add_argument(
        "--memory-budget",
        type=_byte_size,
        default=None,
        metavar="BYTES",
        help="resident-byte budget for --store sharded (suffixes k/m/g; "
             "cold shards spill to disk beyond it)",
    )
    store_options.add_argument(
        "--spill-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for --store sharded spill files (default: a "
             "private temporary directory)",
    )

    def plan_options(rewrite_default: str = "auto"):
        """Shared by every subcommand that plans queries: the engine
        and the demand rewriting.  A parent per use, not one shared
        object — argparse parents share their actions, and ``update``
        needs its own ``--rewrite`` default."""
        options = argparse.ArgumentParser(add_help=False)
        options.add_argument(
            "--method",
            default="auto",
            choices=("auto",) + ENGINES,
            help="engine selection (default: dispatch on the program "
                 "class)",
        )
        options.add_argument(
            "--rewrite",
            default=rewrite_default,
            choices=REWRITES,
            help="demand (magic-set) rewriting of bound queries on full "
                 "programs; auto applies it exactly when it pays "
                 "(default: %(default)s)",
        )
        return options

    classify = commands.add_parser(
        "classify",
        parents=[store_options],
        help="print class memberships and analysis of a program",
    )
    classify.add_argument("file", type=Path, help="program file")
    classify.add_argument(
        "--query", help="optional CQ for the node-width bounds"
    )

    code_lines = ["diagnostic codes (E error, W warning, I info):"]
    code_lines.append(
        "  E001 syntax-error              error    the program does "
        "not parse (position of the failure)"
    )
    code_lines.extend(
        f"  {code} {name:26s} {severity:8s} {summary}"
        for code, name, severity, summary in registered_codes()
    )
    lint_cmd = commands.add_parser(
        "lint",
        help="run the static diagnostics engine over program files",
        description=(
            "Run every repro.lint pass over each FILE and report the "
            "findings with stable codes and source positions.  Exits "
            "1 when any file has error-severity findings (or warnings "
            "under --strict), 0 when everything passes."
        ),
        epilog="\n".join(code_lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    lint_cmd.add_argument(
        "files", nargs="+", type=Path, metavar="FILE",
        help="program file(s) in the Vadalog-style surface syntax",
    )
    lint_cmd.add_argument(
        "--query", metavar="CQ",
        help="a target query; enables the query-scoped reachability "
             "pass (W205)",
    )
    lint_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text, one line per finding)",
    )
    lint_cmd.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on warnings too, not only errors",
    )
    lint_cmd.add_argument(
        "--select", metavar="CODES",
        help="comma-separated code prefixes to keep (e.g. E,W2); "
             "default: all",
    )
    lint_cmd.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated code prefixes to drop (e.g. I,W104)",
    )
    lint_cmd.add_argument(
        "--out", type=Path, metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )

    answer = commands.add_parser(
        "answer",
        parents=[store_options, plan_options()],
        help="compute certain answers of a query",
    )
    answer.add_argument("file", type=Path, help="program + facts file")
    answer.add_argument(
        "--query", required=True, help='e.g. "q(X,Y) :- t(X,Y)."'
    )
    answer.add_argument(
        "--explain", action="store_true",
        help="print the query plan before the answers",
    )

    query = commands.add_parser(
        "query",
        parents=[store_options, plan_options()],
        help="load a program once, then answer many queries against it",
    )
    query.add_argument("file", type=Path, help="program + facts file")
    query.add_argument(
        "--query", action="append", default=[], metavar="CQ",
        help="a query to answer (repeatable; without any, read queries "
             "interactively from stdin)",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print each query's plan before its answers",
    )
    query.add_argument(
        "--first", type=int, default=None, metavar="N",
        help="stop each answer stream after N tuples (demonstrates the "
             "pull-based stream: the engine is not run to completion)",
    )

    chase_cmd = commands.add_parser(
        "chase",
        parents=[store_options],
        help="run the restricted chase and print the instance",
    )
    chase_cmd.add_argument("file", type=Path, help="program + facts file")
    chase_cmd.add_argument(
        "--max-atoms", type=int, default=10000,
        help="instance-size budget (default 10000)",
    )
    chase_cmd.add_argument(
        "--memory-report", action="store_true",
        help="print the store's per-component byte accounting",
    )

    stats = commands.add_parser(
        "stats",
        parents=[store_options],
        help="Section 1.2 recursion statistics over the corpus",
    )
    stats.add_argument("--scale", type=int, default=2)
    stats.add_argument("--seed", type=int, default=2019)

    bench = commands.add_parser(
        "bench",
        help="run the scenario-matrix benchmark suite (all five "
             "families × engines × storage backends) and write one "
             "consolidated BENCH_suite.json",
    )
    bench.add_argument(
        "--scale", default="smoke", choices=BENCH_SCALES,
        help="corpus size / engine budget knob (default: smoke)",
    )
    bench.add_argument(
        "--suite", action="append", default=None, choices=BENCH_SUITES,
        metavar="SUITE",
        help="benchmark family to include (repeatable; default: all of "
             f"{', '.join(BENCH_SUITES)})",
    )
    bench.add_argument(
        "--engine", action="append", default=None, choices=ENGINES,
        metavar="ENGINE",
        help="engine to run (repeatable; default: all of "
             f"{', '.join(ENGINES)})",
    )
    bench.add_argument(
        "--store", action="append", default=None, type=_store_backend,
        metavar="BACKEND",
        help="storage backend to run (repeatable; default: all of "
             f"{', '.join(BACKENDS)})",
    )
    bench.add_argument(
        "--queries", type=_positive_int, default=1, metavar="N",
        help="queries per scenario (default 1)",
    )
    bench.add_argument("--seed", type=int, default=2019)
    bench.add_argument(
        "--out", type=Path,
        default=Path("benchmarks/results/BENCH_suite.json"),
        help="where to write the consolidated JSON artifact "
             "(default: benchmarks/results/BENCH_suite.json, relative "
             "to the working directory)",
    )

    update = commands.add_parser(
        "update",
        parents=[store_options, plan_options(rewrite_default="none")],
        help="apply EDB fact deltas (+atom / -atom lines) through the "
             "incremental-maintenance layer and print what it did",
    )
    update.add_argument("file", type=Path, help="program + facts file")
    update.add_argument(
        "--changes", default="-", metavar="PATH",
        help="delta file: one '+atom.' (insert) or '-atom.' (retract) "
             "per line, '#' comments, a line of just '--' separating "
             "batches; '-' reads stdin (default)",
    )
    update.add_argument(
        "--query", action="append", default=[], metavar="CQ",
        help="query to answer before and after the deltas (repeatable); "
             "warms the fixpoint cache so maintenance has something to "
             "upgrade (hence --rewrite defaults to none here: the first "
             "bound query of a cold session would build a demand-specific "
             "magic fixpoint, which is dropped instead)",
    )

    rewrite = commands.add_parser(
        "rewrite",
        parents=[store_options],
        help="rewrite (Σ, q) into an equivalent (PWL) Datalog program "
             "(Theorem 6.3 / Lemma 6.4)",
    )
    rewrite.add_argument("file", type=Path, help="program file")
    rewrite.add_argument(
        "--query", required=True, help='e.g. "q(X,Y) :- t(X,Y)."'
    )
    rewrite.add_argument(
        "--width", type=int, default=None,
        help="node-width bound (default: the theorem's polynomial)",
    )
    rewrite.add_argument(
        "--max-states", type=int, default=20000,
        help="canonical-CQ budget before truncating (default 20000)",
    )

    serve = commands.add_parser(
        "serve",
        parents=[store_options],
        help="run the concurrent reasoning server on a program "
             "(newline-delimited JSON over TCP; see repro.server)",
    )
    serve.add_argument("file", type=Path, help="program + facts file")
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=7777,
        help="TCP port; 0 binds an ephemeral port (default 7777)",
    )
    serve.add_argument(
        "--port-file", type=Path, default=None, metavar="PATH",
        help="write the bound port here once listening (for --port 0 "
             "callers that need to discover the address)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="grace period for open connections on shutdown (default 5)",
    )
    serve.add_argument(
        "--state-dir", type=Path, default=None, metavar="DIR",
        help="persist EDB + promoted fixpoints here; a restart over the "
             "same program warm-starts from the checkpoint instead of "
             "resaturating",
    )

    client = commands.add_parser(
        "client",
        help="talk to a running reasoning server",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7777)
    client_ops = client.add_subparsers(dest="client_command", required=True)

    client_query = client_ops.add_parser(
        "query",
        parents=[plan_options()],
        help="answer one or more queries against the server",
    )
    client_query.add_argument(
        "query", nargs="+", help='CQ text, e.g. "q(X,Y) :- t(X,Y)."'
    )
    client_query.add_argument(
        "--first", type=_positive_int, default=None, metavar="N",
        help="stop each answer stream after N tuples",
    )

    client_update = client_ops.add_parser(
        "update", help="apply an EDB change batch on the server"
    )
    client_update.add_argument(
        "--changes", default="-", metavar="PATH",
        help="delta file of '+atom.' / '-atom.' lines; '-' reads stdin "
             "(default)",
    )

    client_lint = client_ops.add_parser(
        "lint", help="lint a program text through the server's lint op"
    )
    client_lint.add_argument(
        "file", type=Path, help="program file to send for linting"
    )
    client_lint.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on warnings too, not only errors",
    )
    client_lint.add_argument(
        "--select", metavar="CODES",
        help="comma-separated code prefixes to keep",
    )
    client_lint.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated code prefixes to drop",
    )

    client_ops.add_parser(
        "stats", help="print the server's /stats payload as JSON"
    )
    client_ops.add_parser("ping", help="liveness check; prints the version")
    client_ops.add_parser("shutdown", help="ask the server to stop")

    trace = commands.add_parser(
        "trace",
        help="generate, replay, or summarize workload traces "
             "(repro.workloads)",
    )
    trace_ops = trace.add_subparsers(dest="trace_command", required=True)

    trace_generate = trace_ops.add_parser(
        "generate",
        help="generate a seeded, zipf-skewed NDJSON op trace over a "
             "scenario family",
    )
    trace_generate.add_argument(
        "--ops", type=_positive_int, default=500, metavar="N",
        help="trace length in operations (default 500)",
    )
    trace_generate.add_argument(
        "--mix", default="read-heavy", choices=TRACE_MIXES,
        help="op mix: read-heavy 90/5/5, churn 25/50/25, lookup-heavy "
             "25/5/70 (query/update/point_lookup; default: read-heavy)",
    )
    trace_generate.add_argument(
        "--family", default="churn", choices=TRACE_FAMILIES,
        help="scenario family the trace runs over (default: churn)",
    )
    trace_generate.add_argument(
        "--skew", type=float, default=1.1, metavar="S",
        help="zipfian skew exponent; 0 is uniform (default 1.1)",
    )
    trace_generate.add_argument("--seed", type=int, default=2019)
    trace_generate.add_argument(
        "--rate", type=float, default=200.0, metavar="OPS_PER_SEC",
        help="recorded arrival schedule: op i at i/rate seconds "
             "(default 200; only open-loop replay reads it)",
    )
    trace_generate.add_argument(
        "--vertices", type=_positive_int, default=64, metavar="N",
        help="scenario key-space size (default 64)",
    )
    trace_generate.add_argument(
        "--edges", type=_positive_int, default=128, metavar="N",
        help="scenario base edge count (default 128)",
    )
    trace_generate.add_argument(
        "--clusters", type=_positive_int, default=8, metavar="N",
        help="scenario cluster count (default 8)",
    )
    trace_generate.add_argument(
        "--out", default="-", metavar="PATH",
        help="trace file to write; '-' prints NDJSON to stdout "
             "(default)",
    )

    trace_replay = trace_ops.add_parser(
        "replay",
        parents=[store_options, plan_options()],
        help="replay a trace file and report latency percentiles, "
             "throughput, and answer-verification results",
    )
    trace_replay.add_argument("file", type=Path, help="trace file (NDJSON)")
    trace_replay.add_argument(
        "--target", default="service",
        choices=("session", "service", "server"),
        help="what to drive: an in-process Session (lock-serialized "
             "baseline), an in-process snapshot-isolated "
             "ReasoningService, or a live server over sockets "
             "(default: service)",
    )
    trace_replay.add_argument(
        "--host", default="127.0.0.1",
        help="server address for --target server",
    )
    trace_replay.add_argument(
        "--port", type=int, default=7777,
        help="server port for --target server (default 7777)",
    )
    trace_replay.add_argument(
        "--workers", type=_positive_int, default=4, metavar="N",
        help="concurrent replay workers (default 4)",
    )
    trace_replay.add_argument(
        "--rate", type=_replay_rate, default=None, metavar="OPS_PER_SEC",
        help="open-loop pacing: a target ops/sec, or 'trace' to honour "
             "each op's recorded schedule; omit for closed-loop "
             "(as-fast-as-possible)",
    )
    trace_replay.add_argument(
        "--no-verify", action="store_true",
        help="skip ground-truth answer verification (pure load run)",
    )
    trace_replay.add_argument(
        "--json", action="store_true",
        help="print the full replay result as JSON instead of the "
             "human summary",
    )

    trace_summarize = trace_ops.add_parser(
        "summarize",
        help="print a trace file's op mix, schedule, and key skew",
    )
    trace_summarize.add_argument(
        "file", type=Path, help="trace file (NDJSON)"
    )

    return parser


def _load_session(args) -> Session:
    session = Session(store=_resolve_store(args))
    try:
        session.load(Path(args.file))
    except OSError as error:
        raise SystemExit(f"repro: cannot read {args.file}: {error}")
    return session


def _load(path: Path):
    try:
        text = path.read_text()
    except OSError as error:
        raise SystemExit(f"repro: cannot read {path}: {error}")
    return parse_program(text, name=path.stem)


def _cmd_classify(args, out) -> int:
    session = _load_session(args)
    compiled = session.programs[0]
    analysis = compiled.analysis
    program = compiled.program
    print(f"program: {program.name or args.file.stem}", file=out)
    print(f"  TGDs: {len(program)}, facts: {len(session.edb)}", file=out)
    print(f"  warded:               {analysis.warded}", file=out)
    print(f"  piece-wise linear:    {analysis.piecewise_linear}", file=out)
    print(f"  intensionally linear: {is_intensionally_linear(program)}",
          file=out)
    print(f"  linear Datalog:       {is_linear_datalog(program)}", file=out)
    print(f"  full (Datalog):       {analysis.full}", file=out)
    print(f"  max predicate level:  {analysis.max_level}", file=out)
    for predicate in sorted(analysis.levels):
        print(f"    level({predicate}) = {analysis.levels[predicate]}",
              file=out)
    if args.query:
        query = parse_query(args.query)
        normalized = analysis.normalized
        print(
            "  f_WARD∩PWL(q, Σ) = "
            f"{node_width_bound_pwl(query, normalized)}",
            file=out,
        )
        print(
            "  f_WARD(q, Σ)     = "
            f"{node_width_bound_ward(query, normalized)}",
            file=out,
        )
    return 0


def _split_codes(value: Optional[str]) -> Optional[list]:
    """``--select``/``--ignore`` values: comma-separated code prefixes."""
    if not value:
        return None
    return [code.strip() for code in value.split(",") if code.strip()]


def _cmd_lint(args, out) -> int:
    import json

    from .lint import lint_source

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    reports = []
    failed = False
    for path in args.files:
        try:
            text = path.read_text()
        except OSError as error:
            raise SystemExit(f"repro: cannot read {path}: {error}")
        report = lint_source(
            text,
            name=path.stem,
            query=args.query,
            select=select,
            ignore=ignore,
        )
        reports.append((path, report))
        failed = failed or report.fails(args.strict)
    payload = {
        "strict": args.strict,
        "failed": failed,
        "files": [
            {"path": str(path), **report.as_payload()}
            for path, report in reports
        ],
    }
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        for path, report in reports:
            for line in report.render(str(path)):
                print(line, file=out)
            print(f"{path}: {report.summary()}", file=out)
    return 1 if failed else 0


def _answer_one(session, query_text, args, out) -> None:
    stream = session.query(
        query_text,
        method=args.method,
        rewrite=args.rewrite,
    )
    if getattr(args, "explain", False):
        print(stream.explain(), file=out)
    limit = getattr(args, "first", None)
    if limit is not None:
        rows = stream.first(limit)
        for row in rows:
            print("(" + ", ".join(str(c) for c in row) + ")", file=out)
        print(
            f"-- first {len(rows)} answer(s), stream "
            f"{'exhausted' if stream.exhausted else 'not exhausted'}",
            file=out,
        )
        return
    count = 0
    for row in stream:
        count += 1
        print("(" + ", ".join(str(c) for c in row) + ")", file=out)
    print(f"-- {count} certain answer(s)", file=out)


def _cmd_answer(args, out) -> int:
    session = _load_session(args)
    stream = session.query(
        args.query, method=args.method, rewrite=args.rewrite
    )
    if args.explain:
        print(stream.explain(), file=out)
    # Canonical rendering (unlike `query`, which prints in stream
    # order): the full set, sorted — the historical `answer` contract.
    rows = stream.to_sorted()
    for row in rows:
        print("(" + ", ".join(str(c) for c in row) + ")", file=out)
    print(f"-- {len(rows)} certain answer(s)", file=out)
    return 0


def _cmd_query(args, out, stdin) -> int:
    """Compile once, answer many — the session as a subcommand."""
    session = _load_session(args)
    compiled = session.programs[0]
    if args.query:
        for index, query_text in enumerate(args.query):
            if index:
                print("", file=out)
            print(f"?- {query_text.strip()}", file=out)
            _answer_one(session, query_text, args, out)
        return 0
    # Interactive: one query per line until EOF / "quit".
    stdin = stdin if stdin is not None else sys.stdin
    interactive = getattr(stdin, "isatty", lambda: False)()
    print(
        f"loaded {compiled.name}: {compiled.rules} rule(s), "
        f"{len(session.edb)} fact(s), class "
        f"{compiled.analysis.program_class}; one query per line "
        '(e.g. "q(X,Y) :- t(X,Y)."), "quit" to exit',
        file=out,
    )
    while True:
        if interactive:
            print("?- ", file=out, end="", flush=True)
        try:
            line = stdin.readline()
        except KeyboardInterrupt:
            # ^C at the prompt ends the session like EOF — cleanly,
            # with exit 0, not a traceback (nor the batch-mode 130).
            print("", file=out)
            break
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line in ("quit", "exit", r"\q"):
            break
        if not interactive:
            print(f"?- {line}", file=out)
        try:
            _answer_one(session, line, args, out)
        except KeyboardInterrupt:
            # ^C mid-query abandons that stream, keeps the REPL alive.
            print("interrupted", file=out)
        except Exception as error:  # keep the loop alive on bad queries
            print(f"error: {error}", file=out)
    return 0


def _cmd_chase(args, out) -> int:
    program, database = _load(args.file)
    result = chase(
        database, program, variant="restricted", max_atoms=args.max_atoms,
        store=_resolve_store(args),
    )
    for atom in sorted(result.instance, key=str):
        print(atom, file=out)
    status = "saturated" if result.saturated else "truncated"
    print(
        f"-- {len(result.instance)} atoms, {result.fired} firings, {status}",
        file=out,
    )
    if args.memory_report:
        print(f"-- {result.instance.memory_report()}", file=out)
    return 0 if result.saturated else 3


def _cmd_rewrite(args, out) -> int:
    from .expressiveness import pwl_to_datalog, ward_to_datalog

    session = _load_session(args)
    compiled = session.programs[0]
    program = compiled.program
    query = parse_query(args.query)
    rewriter = (
        pwl_to_datalog
        if compiled.analysis.piecewise_linear
        else ward_to_datalog
    )
    rewriting = rewriter(
        query, program, width_bound=args.width, max_states=args.max_states
    )
    for rule in rewriting.program:
        print(rule, file=out)
    print(
        f"-- {rewriting.rules} rules over {rewriting.states} canonical "
        f"CQs, width bound {rewriting.width_bound}, "
        f"{'complete' if rewriting.complete else 'TRUNCATED'}",
        file=out,
    )
    print(f"-- query: {rewriting.query}", file=out)
    return 0 if rewriting.complete else 3


def _cmd_update(args, out, stdin) -> int:
    """EDB deltas through ``Session.apply``: maintain, don't recompute."""
    from .incremental import ChangeSet

    session = _load_session(args)
    for query_text in args.query:
        # Materialize once: the cached fixpoint is what maintenance
        # upgrades (and what the post-update answers are served from) —
        # hence --rewrite defaults to "none" here: the session is cold,
        # so ``auto`` would build its first bound query a demand-specific
        # magic fixpoint, which apply() drops (later ones read the full).
        session.query(
            query_text, method=args.method, rewrite=args.rewrite
        ).to_set()
    if args.changes == "-":
        stdin = stdin if stdin is not None else sys.stdin
        text = stdin.read()
    else:
        try:
            text = Path(args.changes).read_text()
        except OSError as error:
            raise SystemExit(f"repro: cannot read {args.changes}: {error}")

    batches: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip() == "--":
            batches.append([])
        else:
            batches[-1].append(line)
    failed = False
    for index, lines in enumerate(batches):
        try:
            changes = ChangeSet.parse("\n".join(lines))
        except ValueError as error:
            # Batches are sequential: applying batch N+1 after batch N
            # failed would produce a state no corrected input reaches.
            print(
                f"error in batch {index + 1}: {error}; stopping before "
                f"it (applied {index} batch(es))",
                file=out,
            )
            failed = True
            break
        if not changes and len(batches) > 1:
            continue
        report = session.apply(changes)
        if len(batches) > 1:
            print(f"batch {index + 1}:", file=out)
        print(report.describe(), file=out)
    for query_text in args.query:
        print(f"?- {query_text.strip()}", file=out)
        _answer_one(session, query_text, args, out)
    return 3 if failed else 0


def _cmd_bench(args, out) -> int:
    """The scenario-matrix suite: one command, one JSON artifact."""
    from .benchsuite.harness import SUITES, run_matrix

    def progress(cell):
        line = (
            f"{cell.suite}/{cell.scenario}  {cell.engine}×{cell.store}  "
            f"{cell.status}"
        )
        if cell.status == "ok":
            line += (
                f"  {cell.seconds:.3f}s  {cell.answers} answer(s)  "
                f"{cell.resident_bytes / 1024:.0f} KiB resident"
            )
        print(line, file=out)

    # dict.fromkeys: repeatable flags dedupe while keeping order, so
    # `--engine pwl --engine pwl` doesn't run every cell twice.
    report = run_matrix(
        engines=tuple(dict.fromkeys(args.engine)) if args.engine else ENGINES,
        stores=tuple(dict.fromkeys(args.store)) if args.store else BACKENDS,
        scale=args.scale,
        base_seed=args.seed,
        suites=tuple(dict.fromkeys(args.suite)) if args.suite else SUITES,
        queries_per_scenario=args.queries,
        progress=progress,
    )
    path = report.write(args.out)
    ok = len(report.ok_cells)
    print(
        f"-- {len(report.cells)} cells ({ok} ok), "
        f"{report.agreement_groups_checked} (scenario, query) group(s) "
        f"cross-checked, {len(report.disagreements)} disagreement(s)",
        file=out,
    )
    print(f"-- wrote {path}", file=out)
    for record in report.disagreements:
        print(f"DISAGREEMENT: {record}", file=out)
    for cell in report.error_cells:
        print(
            f"ERROR CELL: {cell.suite}/{cell.scenario} "
            f"{cell.engine}×{cell.store}: {cell.detail}",
            file=out,
        )
    if ok == 0:
        # A matrix where every cell was skipped or failed measured
        # nothing — a silent green here would let a typo'd slice pass
        # CI without a single number behind it.
        print(
            "-- no successful cells: the selected suites/engines/stores "
            "measured nothing",
            file=out,
        )
        return 3
    return 0 if not report.disagreements and not report.error_cells else 3


def _cmd_serve(args, out) -> int:
    """Run the reasoning daemon until SIGTERM/SIGINT, then drain."""
    import signal

    from .server import ReasoningServer, ReasoningService

    try:
        service = ReasoningService(
            Path(args.file),
            store=_resolve_store(args),
            state_dir=args.state_dir,
        )
    except OSError as error:
        raise SystemExit(f"repro: cannot read {args.file}: {error}")
    server = ReasoningServer(
        service,
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
    )
    host, port = server.address
    if args.port_file is not None:
        args.port_file.write_text(f"{port}\n")
    warm = ", warm-started" if service.warm_started else ""
    print(
        f"repro: serving {service.program_name} "
        f"({len(service.snapshots.head.store)} fact(s), "
        f"store={args.store}{warm}) "
        f"on {host}:{port}",
        file=out,
        flush=True,
    )

    def request_stop(signum, frame):
        # shutdown() would deadlock from a signal handler running on
        # the serve_forever thread; hand it to a helper thread.
        server.shutdown_async()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, request_stop)
        except ValueError:
            pass  # not the main thread (in-process tests drive stop())
    try:
        server.serve_forever()
        drained = server.drain()
    finally:
        server.server_close()
        # Final checkpoint so a graceful stop captures fixpoints cached
        # since the last update (a pure-query workload never applies).
        service.checkpoint()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(
        "repro: server stopped"
        + ("" if drained else " (drain timed out; connections cut)"),
        file=out,
    )
    return 0


def _cmd_client(args, out, stdin) -> int:
    """One client operation against a running server."""
    import json

    from .server import ReasoningClient

    try:
        client = ReasoningClient(args.host, args.port)
    except OSError as error:
        print(
            f"repro: error: cannot connect to {args.host}:{args.port}: "
            f"{error}",
            file=sys.stderr,
        )
        return 2
    with client:
        command = args.client_command
        if command == "ping":
            print(f"ok (version {client.ping()})", file=out)
        elif command == "query":
            for index, query_text in enumerate(args.query):
                if index:
                    print("", file=out)
                print(f"?- {query_text.strip()}", file=out)
                result = client.query(
                    query_text,
                    method=args.method,
                    rewrite=args.rewrite,
                    first=args.first,
                )
                for row in result.answers:
                    print("(" + ", ".join(row) + ")", file=out)
                print(
                    f"-- {len(result)} answer(s) @ version "
                    f"{result.version}, {result.wall_ms:.2f}ms engine"
                    + (" (truncated)" if result.truncated else ""),
                    file=out,
                )
        elif command == "update":
            if args.changes == "-":
                stdin = stdin if stdin is not None else sys.stdin
                text = stdin.read()
            else:
                try:
                    text = Path(args.changes).read_text()
                except OSError as error:
                    raise SystemExit(
                        f"repro: cannot read {args.changes}: {error}"
                    )
            payload = client.update(text)
            print(
                f"version {payload['version']}: +{payload['added']} "
                f"-{payload['dropped']} fact(s), "
                f"{payload['migrated']} cache(s) migrated, "
                f"{len(payload['fallbacks'])} fallback(s)",
                file=out,
            )
            for label, reason in payload["fallbacks"]:
                print(f"  fallback: {label}: {reason}", file=out)
        elif command == "lint":
            try:
                text = args.file.read_text()
            except OSError as error:
                raise SystemExit(
                    f"repro: cannot read {args.file}: {error}"
                )
            payload = client.lint(
                text,
                select=_split_codes(args.select),
                ignore=_split_codes(args.ignore),
            )
            for finding in payload["diagnostics"]:
                location = (
                    f"{finding['line']}:{finding['column']}"
                    if "line" in finding
                    else "-"
                )
                print(
                    f"{args.file}:{location} {finding['code']} "
                    f"{finding['name']}: {finding['message']}",
                    file=out,
                )
            print(f"{args.file}: {payload['summary']}", file=out)
            if payload["errors"] or (args.strict and payload["warnings"]):
                return 1
        elif command == "stats":
            print(json.dumps(client.stats(), indent=2, default=str), file=out)
        else:  # shutdown
            stopping = client.shutdown()
            print("server stopping" if stopping else "server did not stop",
                  file=out)
    return 0


def _cmd_trace(args, out) -> int:
    """The workload harness: generate / replay / summarize traces."""
    import json

    from .workloads import Trace, generate_trace

    if args.trace_command == "generate":
        trace = generate_trace(
            ops=args.ops,
            mix=args.mix,
            skew=args.skew,
            seed=args.seed,
            rate=args.rate,
            family=args.family,
            vertices=args.vertices,
            edges=args.edges,
            clusters=args.clusters,
        )
        if args.out == "-":
            out.write(trace.dumps())
            return 0
        trace.dump(Path(args.out))
        summary = trace.summary()
        print(
            f"wrote {args.out}: {summary['ops']} op(s) "
            f"({', '.join(f'{k}={v}' for k, v in summary['kinds'].items())}), "
            f"{summary['duration_seconds']:.1f}s schedule, "
            f"{summary['distinct_keys']} distinct key(s)",
            file=out,
        )
        return 0

    # Trace.load wraps unreadable/malformed files in TraceError, which
    # main() renders as the one-line exit-2 diagnostic.
    trace = Trace.load(args.file)

    if args.trace_command == "summarize":
        print(json.dumps(trace.summary(), indent=2, default=str), file=out)
        return 0

    # replay
    from .workloads import (
        ClientTarget,
        ServiceTarget,
        SessionTarget,
        materialize_scenario,
        replay_trace,
    )

    engine_opts = dict(method=args.method, rewrite=args.rewrite)
    if args.target == "server":
        try:
            target = ClientTarget(args.host, args.port, **engine_opts)
        except OSError as error:
            print(
                f"repro: error: cannot connect to {args.host}:{args.port}: "
                f"{error}",
                file=sys.stderr,
            )
            return 2
        scenario = None if args.no_verify else materialize_scenario(trace)
    else:
        scenario = materialize_scenario(trace)
        factory = (
            SessionTarget if args.target == "session" else ServiceTarget
        )
        target = factory.for_scenario(
            scenario, store=_resolve_store(args), **engine_opts
        )
    try:
        result = replay_trace(
            trace,
            target,
            workers=args.workers,
            rate=args.rate,
            verify=not args.no_verify,
            scenario=scenario,
        )
    finally:
        target.close()
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, default=str), file=out)
    else:
        print(result.describe(), file=out)
    return 0 if result.ok else 3


def _cmd_stats(args, out) -> int:
    from .benchsuite import classify_corpus, default_corpus

    stats = classify_corpus(
        default_corpus(base_seed=args.seed, scale=args.scale)
    )
    for bucket, count, fraction in stats.rows():
        print(f"{bucket:38s} {count:4d}  {fraction:6.1%}", file=out)
    print(
        f"{'piece-wise linear total':38s} "
        f"{stats.direct_pwl + stats.linearizable:4d}  "
        f"{stats.pwl_fraction:6.1%}",
        file=out,
    )
    return 0


def _dispatch(args, out, stdin) -> int:
    if args.command == "query":
        return _cmd_query(args, out, stdin)
    if args.command == "update":
        return _cmd_update(args, out, stdin)
    if args.command == "client":
        return _cmd_client(args, out, stdin)
    handlers = {
        "classify": _cmd_classify,
        "lint": _cmd_lint,
        "answer": _cmd_answer,
        "chase": _cmd_chase,
        "stats": _cmd_stats,
        "bench": _cmd_bench,
        "rewrite": _cmd_rewrite,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args, out)


def main(
    argv: Optional[Sequence[str]] = None, out=None, stdin=None
) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out, stdin)
    except KeyboardInterrupt:
        # ^C mid-command: the conventional 128 + SIGINT, no traceback.
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly (the
        # conventional 128 + SIGPIPE), don't traceback into stderr.
        return 141
    except Exception as error:
        # Engine/parse/server errors are diagnostics, not crashes: one
        # line on stderr, exit 2.  (SystemExit — argparse errors and
        # the "cannot read" paths — propagates untouched.)
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
