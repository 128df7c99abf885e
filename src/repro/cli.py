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
* ``rewrite FILE --query ...`` — the Theorem 6.3 / Lemma 6.4 rewriting;
* ``serve FILE`` — run the concurrent reasoning daemon
  (:mod:`repro.server`): many clients over newline-delimited JSON,
  every query snapshot-isolated against live ``update`` batches;
  SIGTERM/SIGINT drain gracefully;
* ``client query|update|lint|stats|ping|shutdown`` — talk to a running
  server with :class:`repro.server.ReasoningClient`.

Exit codes: 0 success, 1 lint findings (errors, or warnings under
``--strict``), 2 usage and engine errors (one line on stderr, no
traceback: a bad flag value, an unreadable input file, out-of-core
flags without ``--store sharded``, a rejected query), 3 truncation or
a failed update batch, 130 on interrupt.

Every command but ``lint`` and ``client`` accepts ``--store`` naming a
fact-storage backend (see :data:`repro.storage.BACKENDS`); an unknown
name fails fast with the valid choices.  An input path of ``-`` reads
stdin.  Program files use the same Vadalog-style surface syntax the
parser accepts everywhere else: facts ``e(a, b).`` and rules
``t(X, Z) :- e(X, Y), t(Y, Z).`` with head-only variables existential.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .analysis import (
    is_intensionally_linear,
    is_linear_datalog,
    node_width_bound_pwl,
    node_width_bound_ward,
)
from .api import ENGINES, REWRITES, Session
from .chase import chase
from .lang.parser import parse_program, parse_query
from .lint import lint_source, registered_codes
from .storage import BACKENDS

__all__ = ["main", "build_parser"]


def _store_backend(value: str) -> str:
    """argparse type for ``--store``: validate against the registry."""
    if value not in BACKENDS:
        raise argparse.ArgumentTypeError(
            f"unknown storage backend {value!r}; choose one of "
            f"{', '.join(BACKENDS)}"
        )
    return value


def _number(parse, noun: str, within, bounds: str):
    """An argparse type: *parse* the value, then require *within*."""

    def convert(value: str):
        try:
            parsed = parse(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {value!r}")
        if not within(parsed):
            raise argparse.ArgumentTypeError(
                f"must be {bounds}, got {parsed}"
            )
        return parsed

    return convert


#: Counts, ``--port`` and ``--drain-timeout`` (nan would make drain()
#: return at once, inf could hang shutdown forever).
_positive_int = _number(int, "an integer", lambda n: n >= 1, ">= 1")
_port = _number(int, "an integer", lambda n: 0 <= n <= 65535, "in 0..65535")
_seconds = _number(
    float, "a number", lambda s: math.isfinite(s) and s >= 0,
    "finite and >= 0",
)


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
    except (ValueError, OverflowError):  # OverflowError: "inf", "1e400"
        raise argparse.ArgumentTypeError(
            f"not a byte size: {value!r} (use e.g. 8000000, 8m, 2g)"
        )
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value!r}")
    return parsed


def _fail(message: str):
    """A usage error found after parsing: one line on stderr, exit 2
    (the code argparse gives its own usage errors)."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read(path, stdin) -> str:
    """The text of an input file; ``-`` reads *stdin*."""
    if str(path) == "-":
        return stdin.read()
    try:
        return Path(path).read_text()
    except OSError as error:
        _fail(f"cannot read {path}: {error}")


def _resolve_store(args):
    """The ``store=`` choice the engines get: the backend name, or a
    configured sharded factory when out-of-core flags are present."""
    budget, spill_dir = args.memory_budget, args.spill_dir
    if args.store != "sharded":
        if budget is not None or spill_dir is not None:
            _fail("--memory-budget/--spill-dir require --store sharded")
        return args.store
    if budget is None and spill_dir is None:
        return args.store
    from .storage import sharded_store_factory

    return sharded_store_factory(budget, spill_dir)


def _split_codes(value: Optional[str]) -> Optional[list]:
    """argparse type for ``--select``/``--ignore``: comma-separated
    code prefixes."""
    if not value:
        return None
    return [code.strip() for code in value.split(",") if code.strip()]


def _option(*flags, **spec):
    """One ``add_argument`` call, as data."""
    return flags, spec


_FILE = (_option("file", type=Path, help="program + facts file"),)

_STORE = (
    _option(
        "--store",
        default="instance",
        type=_store_backend,
        metavar="BACKEND",
        help="fact-storage backend for materializing engines "
             f"({', '.join(BACKENDS)}; default: instance)",
    ),
    _option(
        "--memory-budget",
        type=_byte_size,
        default=None,
        metavar="BYTES",
        help="resident-byte budget for --store sharded (suffixes k/m/g; "
             "cold shards spill to disk beyond it)",
    ),
    _option(
        "--spill-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for --store sharded spill files (default: a "
             "private temporary directory)",
    ),
)


def _plan(rewrite_default: str = "auto"):
    """The engine and the demand rewriting, for every command that
    plans queries; ``update`` needs its own ``--rewrite`` default."""
    return (
        _option(
            "--method",
            default="auto",
            choices=("auto",) + ENGINES,
            help="engine selection (default: dispatch on the program "
                 "class)",
        ),
        _option(
            "--rewrite",
            default=rewrite_default,
            choices=REWRITES,
            help="demand (magic-set) rewriting of bound queries on full "
                 "programs; auto applies it exactly when it pays "
                 "(default: %(default)s)",
        ),
    )


_QUERY = (
    _option("--query", required=True, help='e.g. "q(X,Y) :- t(X,Y)."'),
)

_EXPLAIN = (
    _option(
        "--explain", action="store_true",
        help="print each query's plan before its answers",
    ),
)

_ADDRESS = (
    _option(
        "--host", default="127.0.0.1",
        help="server address (default: loopback)",
    ),
    _option(
        "--port", type=_port, default=7777,
        help="server TCP port (default 7777; serve --port 0 binds an "
             "ephemeral port)",
    ),
)

_FIRST = (
    _option(
        "--first", type=_positive_int, default=None, metavar="N",
        help="stop each answer stream after N tuples (demonstrates the "
             "pull-based stream: the engine is not run to completion)",
    ),
)

_CHANGES = (
    _option(
        "--changes", default="-", metavar="PATH",
        help="delta file: one '+atom.' (insert) or '-atom.' (retract) "
             "per line, '#' comments, a line of just '--' separating "
             "batches; '-' reads stdin (default)",
    ),
)

_LINT_FILTERS = (
    _option(
        "--strict", action="store_true",
        help="fail (exit 1) on warnings too, not only errors",
    ),
    _option(
        "--select", type=_split_codes, metavar="CODES",
        help="comma-separated code prefixes to keep (e.g. E,W2); "
             "default: all",
    ),
    _option(
        "--ignore", type=_split_codes, metavar="CODES",
        help="comma-separated code prefixes to drop (e.g. I,W104)",
    ),
)


class _Command(NamedTuple):
    name: str  # "answer", or "client query" for a client operation
    help: str
    handler: Optional[Callable]  # (args, out) -> exit code; None: has ops
    options: tuple
    parser_keywords: dict = {}  # more add_parser arguments


def _commands() -> list:
    """The command table, in help order.  Built with each parser, so a
    row holds the handler its module binds at that time."""
    syntax = ("E001", "syntax-error", "error",
              "the program does not parse (position of the failure)")
    code_lines = ["diagnostic codes (E error, W warning, I info):"]
    code_lines.extend(
        f"  {code} {name:26s} {severity:8s} {summary}"
        for code, name, severity, summary in (syntax, *registered_codes())
    )
    return [
        _Command(
            "classify", "print class memberships and analysis of a program",
            _cmd_classify, _FILE + _STORE + (
                _option("--query", help="optional CQ for the node-width "
                                        "bounds"),
            ),
        ),
        _Command(
            "lint", "run the static diagnostics engine over program files",
            _cmd_lint, (
                _option(
                    "files", nargs="+", type=Path, metavar="FILE",
                    help="program file(s) in the Vadalog-style surface "
                         "syntax",
                ),
                _option(
                    "--query", metavar="CQ",
                    help="a target query; enables the query-scoped "
                         "reachability pass (W205)",
                ),
                _option(
                    "--format", choices=("text", "json"), default="text",
                    help="output format (default: text, one line per "
                         "finding)",
                ),
                *_LINT_FILTERS,
                _option(
                    "--out", type=Path, metavar="PATH",
                    help="also write the JSON report to PATH (CI artifact)",
                ),
            ),
            dict(
                description=(
                    "Run every repro.lint pass over each FILE and report "
                    "the findings with stable codes and source positions."
                    "  Exits 1 when any file has error-severity findings "
                    "(or warnings under --strict), 0 when everything "
                    "passes, 2 when a FILE cannot be read."
                ),
                epilog="\n".join(code_lines),
                formatter_class=_TableEpilogFormatter,
            ),
        ),
        _Command(
            "answer", "compute certain answers of a query",
            _cmd_answer, _FILE + _STORE + _plan() + _QUERY + _EXPLAIN,
        ),
        _Command(
            "query", "load a program once, then answer many queries "
                     "against it",
            _cmd_query, _FILE + _STORE + _plan() + _FIRST + _EXPLAIN + (
                _option(
                    "--query", action="append", default=[], metavar="CQ",
                    help="a query to answer (repeatable; without any, "
                         "read queries interactively from stdin)",
                ),
            ),
        ),
        _Command(
            "chase", "run the restricted chase and print the instance",
            _cmd_chase, _FILE + _STORE + (
                _option(
                    "--max-atoms", type=_positive_int, default=10000,
                    help="instance-size budget (default 10000)",
                ),
                _option(
                    "--memory-report", action="store_true",
                    help="print the store's per-component byte accounting",
                ),
            ),
        ),
        _Command(
            "stats", "Section 1.2 recursion statistics over the corpus",
            _cmd_stats, _STORE + (
                _option("--scale", type=_positive_int, default=2),
                _option("--seed", type=int, default=2019),
            ),
        ),
        _Command(
            "update", "apply EDB fact deltas (+atom / -atom lines) through "
                      "the incremental-maintenance layer and print what "
                      "it did",
            _cmd_update, _FILE + _STORE + _plan("none") + _CHANGES + (
                _option(
                    "--query", action="append", default=[], metavar="CQ",
                    help="query to answer before and after the deltas "
                         "(repeatable); warms the fixpoint cache so "
                         "maintenance has something to upgrade (hence "
                         "--rewrite defaults to none here: the first "
                         "bound query of a cold session would build a "
                         "demand-specific magic fixpoint, which is "
                         "dropped instead)",
                ),
            ),
        ),
        _Command(
            "rewrite", "rewrite (Σ, q) into an equivalent (PWL) Datalog "
                       "program (Theorem 6.3 / Lemma 6.4)",
            _cmd_rewrite, _FILE + _STORE + _QUERY + (
                _option(
                    "--width", type=_positive_int, default=None,
                    help="node-width bound (default: the theorem's "
                         "polynomial)",
                ),
                _option(
                    "--max-states", type=_positive_int, default=20000,
                    help="canonical-CQ budget before truncating (default "
                         "20000)",
                ),
            ),
        ),
        _Command(
            "serve", "run the concurrent reasoning server on a program "
                     "(newline-delimited JSON over TCP; see repro.server)",
            _cmd_serve, _FILE + _STORE + _ADDRESS + (
                _option(
                    "--port-file", type=Path, default=None, metavar="PATH",
                    help="write the bound port here once listening (for "
                         "--port 0 callers that need to discover the "
                         "address)",
                ),
                _option(
                    "--drain-timeout", type=_seconds, default=5.0,
                    metavar="SECONDS",
                    help="grace period for open connections on shutdown "
                         "(default 5)",
                ),
                _option(
                    "--state-dir", type=Path, default=None, metavar="DIR",
                    help="persist EDB + promoted fixpoints here; a "
                         "restart over the same program warm-starts from "
                         "the checkpoint instead of resaturating",
                ),
            ),
        ),
        _Command("client", "talk to a running reasoning server",
                 None, _ADDRESS),
        _Command(
            "client query", "answer one or more queries against the server",
            _client_query, _plan() + _FIRST + (
                _option(
                    "query", nargs="+",
                    help='CQ text, e.g. "q(X,Y) :- t(X,Y)."',
                ),
            ),
        ),
        _Command("client update", "apply EDB change batches on the server",
                 _client_update, _CHANGES),
        _Command("client lint", "lint a program text through the server",
                 _client_lint, _FILE + _LINT_FILTERS),
        _Command("client stats", "print the server's /stats payload as JSON",
                 _client_stats, ()),
        _Command("client ping", "liveness check; prints the version",
                 _client_ping, ()),
        _Command("client shutdown", "ask the server to stop",
                 _client_shutdown, ()),
    ]


class _TableEpilogFormatter(argparse.RawDescriptionHelpFormatter):
    """Wraps one-paragraph text (a description) to the terminal; text
    with line breaks (the lint code table in the epilog) is printed as
    written, so its columns stay aligned."""

    def _fill_text(self, text, width, indent):
        if "\n" in text:
            return super()._fill_text(text, width, indent)
        return argparse.HelpFormatter._fill_text(self, text, width, indent)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Warded Datalog∃ with piece-wise linear recursion — "
            "a reproduction of 'The Space-Efficient Core of Vadalog' "
            "(PODS 2019)."
        ),
    )
    subcommands = {"": parser.add_subparsers(dest="command", required=True)}
    for row in _commands():
        parent, _, name = row.name.rpartition(" ")
        command = subcommands[parent].add_parser(
            name, help=row.help, **row.parser_keywords
        )
        for flags, spec in row.options:
            command.add_argument(*flags, **spec)
        if row.handler is None:  # "client": its rows are its operations
            subcommands[row.name] = command.add_subparsers(
                dest=f"{row.name}_command", required=True
            )
        else:
            command.set_defaults(handler=row.handler)
    return parser


def _load_session(args) -> Session:
    session = Session(store=args.resolved_store)
    session.load(_read(args.file, args.stdin), name=args.file.stem)
    return session


def _each_query(queries, out):
    """Yield each query text after printing its ``?-`` header, with a
    blank line between queries."""
    for index, query_text in enumerate(queries):
        if index:
            print("", file=out)
        print(f"?- {query_text.strip()}", file=out)
        yield query_text


def _print_rows(rows, out) -> int:
    """Print answer tuples one per line as ``(a, b)``; return how many."""
    count = 0
    for count, row in enumerate(rows, 1):
        print("(" + ", ".join(str(c) for c in row) + ")", file=out)
    return count


def _answer_one(session, query_text, args, out, ordered=False) -> None:
    """Print one query's answers: its plan under ``--explain``, then the
    rows — the first N under ``--first``, else all of them, sorted when
    *ordered* and in stream order otherwise — and a footer."""
    stream = session.query(
        query_text,
        method=args.method,
        rewrite=args.rewrite,
    )
    if getattr(args, "explain", False):
        print(stream.explain(), file=out)
    limit = getattr(args, "first", None)
    if limit is not None:
        count = _print_rows(stream.first(limit), out)
        print(
            f"-- first {count} answer(s), stream "
            f"{'exhausted' if stream.exhausted else 'not exhausted'}",
            file=out,
        )
        return
    count = _print_rows(stream.to_sorted() if ordered else stream, out)
    print(f"-- {count} certain answer(s)", file=out)


def _apply_batches(text, apply, out) -> int:
    """Apply the change batches of *text* — ``--`` lines separate them —
    in order, each through ``apply(changes, batch_text)``, which prints
    its report.  The first batch that does not parse stops the run
    (exit 3): applying batch N+1 after batch N failed would produce a
    state no corrected input reaches."""
    from .incremental import ChangeSet

    batches: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip() == "--":
            batches.append([])
        else:
            batches[-1].append(line)
    for index, lines in enumerate(batches):
        batch = "\n".join(lines)
        try:
            changes = ChangeSet.parse(batch)
        except ValueError as error:
            print(
                f"error in batch {index + 1}: {error}; stopping before "
                f"it (applied {index} batch(es))",
                file=out,
            )
            return 3
        if not changes and len(batches) > 1:
            continue
        if len(batches) > 1:
            print(f"batch {index + 1}:", file=out)
        apply(changes, batch)
    return 0


def _print_findings(path, payload, out) -> None:
    """The text rendering of one program's lint payload (local or from
    the server): a line per finding, then the summary."""
    for finding in payload["diagnostics"]:
        location = (
            f"{finding['line']}:{finding['column']}"
            if "line" in finding
            else "-"
        )
        print(
            f"{path}:{location} {finding['code']} "
            f"{finding['name']}: {finding['message']}",
            file=out,
        )
    print(f"{path}: {payload['summary']}", file=out)


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


def _cmd_lint(args, out) -> int:
    files = []
    failed = False
    for path in args.files:
        report = lint_source(
            _read(path, args.stdin),
            name=path.stem,
            query=args.query,
            select=args.select,
            ignore=args.ignore,
        )
        files.append({"path": str(path), **report.as_payload()})
        failed = failed or report.fails(args.strict)
    payload = {"strict": args.strict, "failed": failed, "files": files}
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        for entry in files:
            _print_findings(entry["path"], entry, out)
    return 1 if failed else 0


def _cmd_answer(args, out) -> int:
    # Canonical rendering (unlike `query`, which prints in stream
    # order): the full set, sorted — the historical `answer` contract.
    _answer_one(_load_session(args), args.query, args, out, ordered=True)
    return 0


def _cmd_query(args, out) -> int:
    """Compile once, answer many — the session as a subcommand."""
    session = _load_session(args)
    compiled = session.programs[0]
    if args.query:
        for query_text in _each_query(args.query, out):
            _answer_one(session, query_text, args, out)
        return 0
    # Interactive: one query per line until EOF / "quit".
    interactive = getattr(args.stdin, "isatty", lambda: False)()
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
            line = args.stdin.readline()
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
    program, database = parse_program(
        _read(args.file, args.stdin), name=args.file.stem
    )
    result = chase(
        database, program, variant="restricted", max_atoms=args.max_atoms,
        store=args.resolved_store,
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


def _cmd_update(args, out) -> int:
    """EDB deltas through ``Session.apply``: maintain, don't recompute."""
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
    def apply(changes, batch) -> None:
        print(session.apply(changes).describe(), file=out)

    code = _apply_batches(_read(args.changes, args.stdin), apply, out)
    for query_text in _each_query(args.query, out):
        _answer_one(session, query_text, args, out)
    return code


def _cmd_serve(args, out) -> int:
    """Run the reasoning daemon until SIGTERM/SIGINT, then drain."""
    import signal

    from .server import ReasoningServer, ReasoningService

    service = ReasoningService(
        _read(args.file, args.stdin),
        name=args.file.stem,
        store=args.resolved_store,
        state_dir=args.state_dir,
    )
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


def _over_the_wire(operation):
    """The handler of a ``client`` row: connect to ``--host``/``--port``,
    run ``operation(client, args, out)``, close."""

    def handler(args, out) -> int:
        from .server import ReasoningClient

        try:
            client = ReasoningClient(args.host, args.port)
        except OSError as error:
            raise ConnectionError(
                f"cannot connect to {args.host}:{args.port}: {error}"
            ) from error
        with client:
            return operation(client, args, out)

    return handler


@_over_the_wire
def _client_query(client, args, out) -> int:
    for query_text in _each_query(args.query, out):
        result = client.query(
            query_text,
            method=args.method,
            rewrite=args.rewrite,
            first=args.first,
        )
        _print_rows(result.answers, out)
        print(
            f"-- {len(result)} answer(s) @ version "
            f"{result.version}, {result.wall_ms:.2f}ms engine"
            + (" (truncated)" if result.truncated else ""),
            file=out,
        )
    return 0


@_over_the_wire
def _client_update(client, args, out) -> int:
    def send(changes, batch) -> None:
        payload = client.update(batch)
        print(
            f"version {payload['version']}: +{payload['added']} "
            f"-{payload['dropped']} fact(s), "
            f"{payload['migrated']} cache(s) migrated, "
            f"{len(payload['fallbacks'])} fallback(s)",
            file=out,
        )
        for label, reason in payload["fallbacks"]:
            print(f"  fallback: {label}: {reason}", file=out)

    return _apply_batches(_read(args.changes, args.stdin), send, out)


@_over_the_wire
def _client_lint(client, args, out) -> int:
    payload = client.lint(
        _read(args.file, args.stdin),
        select=args.select,
        ignore=args.ignore,
    )
    _print_findings(args.file, payload, out)
    failed = payload["errors"] or (args.strict and payload["warnings"])
    return 1 if failed else 0


@_over_the_wire
def _client_stats(client, args, out) -> int:
    print(json.dumps(client.stats(), indent=2, default=str), file=out)
    return 0


@_over_the_wire
def _client_ping(client, args, out) -> int:
    print(f"ok (version {client.ping()})", file=out)
    return 0


@_over_the_wire
def _client_shutdown(client, args, out) -> int:
    stopping = client.shutdown()
    print("server stopping" if stopping else "server did not stop", file=out)
    return 0


def main(
    argv: Optional[Sequence[str]] = None, out=None, stdin=None
) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    args.stdin = stdin if stdin is not None else sys.stdin
    try:
        if "store" in args:
            args.resolved_store = _resolve_store(args)
        return args.handler(args, out)
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
        # line on stderr, exit 2.  (SystemExit — argparse's usage errors
        # and _fail's — propagates untouched.)
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
