"""Unit tests for the command-line interface."""

import argparse
import io

import pytest

from repro.cli import main
from repro.storage import BACKENDS

TC_PROGRAM = """
    e(a,b). e(b,c).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "tc.vada"
    path.write_text(TC_PROGRAM)
    return path


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def assert_usage_error(argv, message, capsys):
    """A usage error: exit 2 with one ``repro: error:`` line on stderr."""
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("repro: error: ") and message in stderr


class TestClassify:
    def test_reports_memberships(self, program_file):
        code, output = run(["classify", str(program_file)])
        assert code == 0
        assert "warded:               True" in output
        assert "piece-wise linear:    True" in output
        assert "full (Datalog):       True" in output

    def test_reports_bounds_with_query(self, program_file):
        code, output = run(
            ["classify", str(program_file), "--query", "q(X,Y) :- t(X,Y)."]
        )
        assert code == 0
        assert "f_WARD∩PWL(q, Σ) = 8" in output
        assert "f_WARD(q, Σ)     = 4" in output

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.vada"
        assert_usage_error(
            ["classify", str(path)], f"cannot read {path}", capsys
        )


class TestAnswer:
    def test_prints_answers(self, program_file):
        code, output = run(
            ["answer", str(program_file), "--query", "q(X,Y) :- t(X,Y)."]
        )
        assert code == 0
        assert "(a, c)" in output
        assert "3 certain answer(s)" in output

    def test_explicit_method(self, program_file):
        code, output = run(
            [
                "answer", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
                "--method", "pwl",
            ]
        )
        assert code == 0
        assert "3 certain answer(s)" in output

    @pytest.mark.parametrize("store", BACKENDS)
    def test_negated_program(self, tmp_path, store):
        path = tmp_path / "complement.vada"
        path.write_text(TC_PROGRAM + """
            n(a). n(b). n(c).
            u(X) :- n(X), not t(a,X).
        """)
        code, output = run(
            ["answer", str(path), "--query", "q(X) :- u(X).",
             "--store", store]
        )
        assert code == 0
        assert "(a)" in output
        assert "1 certain answer(s)" in output

    def test_chase_refuses_a_negated_program(self, tmp_path):
        path = tmp_path / "complement.vada"
        path.write_text(TC_PROGRAM + "n(a). u(X) :- n(X), not t(a,X).")
        code, output = run(["chase", str(path)])
        assert code == 2


class TestChase:
    def test_saturating_chase(self, program_file):
        code, output = run(["chase", str(program_file)])
        assert code == 0
        assert "saturated" in output
        assert "t(a,c)" in output

    def test_truncated_chase_exit_code(self, tmp_path):
        path = tmp_path / "runaway.vada"
        path.write_text("""
            p(c).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        code, output = run(["chase", str(path), "--max-atoms", "20"])
        assert code == 3
        assert "truncated" in output


class TestStats:
    def test_prints_buckets(self):
        code, output = run(["stats", "--scale", "1"])
        assert code == 0
        assert "directly piece-wise linear" in output
        assert "piece-wise linear total" in output


class TestQuery:
    """The compile-once-query-many subcommand."""

    def test_many_queries_one_load(self, program_file):
        code, output = run(
            [
                "query", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
                "--query", "q(X) :- t(a,X).",
            ]
        )
        assert code == 0
        assert "?- q(X,Y) :- t(X,Y)." in output
        assert "3 certain answer(s)" in output
        assert "?- q(X) :- t(a,X)." in output
        assert "2 certain answer(s)" in output

    def test_stdin_repl(self, program_file):
        stdin = io.StringIO("q(X,Y) :- t(X,Y).\nnot a query\nquit\n")
        out = io.StringIO()
        code = main(["query", str(program_file)], out=out, stdin=stdin)
        output = out.getvalue()
        assert code == 0
        assert "loaded tc" in output
        assert "3 certain answer(s)" in output
        assert "error:" in output          # bad query keeps the loop alive

    def test_explain_prints_plan(self, program_file):
        code, output = run(
            [
                "query", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
                "--explain",
            ]
        )
        assert code == 0
        assert "engine  : datalog" in output
        assert "pipeline:" in output

    def test_first_leaves_stream_unexhausted(self, program_file):
        code, output = run(
            [
                "query", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
                "--first", "1",
            ]
        )
        assert code == 0
        assert "first 1 answer(s)" in output
        assert "not exhausted" in output

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_first_must_be_positive(self, program_file, count, capsys):
        # ``--first -1`` used to print "first 0 answer(s)" and exit 0.
        with pytest.raises(SystemExit) as exit_info:
            run(["query", str(program_file), "--query", "q(X,Y) :- t(X,Y).",
                 "--first", count])
        assert exit_info.value.code == 2
        assert f"must be >= 1, got {count}" in capsys.readouterr().err


class TestStoreOption:
    """--store is accepted by every subcommand and validated."""

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["--query", "q(X,Y) :- t(X,Y)."],
            [],
        ],
    )
    def test_answer_and_chase_accept_backends(self, program_file, argv_tail):
        command = "answer" if argv_tail else "chase"
        for backend in BACKENDS:
            code, _ = run(
                [command, str(program_file), "--store", backend] + argv_tail
            )
            assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "FILE"],
            ["answer", "FILE", "--query", "q(X,Y) :- t(X,Y)."],
            ["query", "FILE", "--query", "q(X,Y) :- t(X,Y)."],
            ["chase", "FILE"],
            ["stats"],
            ["rewrite", "FILE", "--query", "q(X,Y) :- t(X,Y)."],
            ["update", "FILE", "--changes", "nope.delta"],
        ],
    )
    def test_every_subcommand_validates_store(self, program_file, argv,
                                              capsys):
        argv = [
            str(program_file) if token == "FILE" else token for token in argv
        ]
        with pytest.raises(SystemExit):
            run(argv + ["--store", "bogus"])
        stderr = capsys.readouterr().err
        assert "unknown storage backend 'bogus'" in stderr
        assert "instance, columnar, sharded" in stderr


    def test_delta_is_not_a_backend(self, program_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["chase", str(program_file), "--store", "delta"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "argument --store: unknown storage backend 'delta'" in stderr

    def test_help_lists_the_three_backends(self, capsys):
        with pytest.raises(SystemExit):
            run(["answer", "--help"])
        assert "(instance, columnar, sharded;" in " ".join(
            capsys.readouterr().out.split()
        )


#: Subcommands that plan queries, with the argv that reaches each one.
PLANNING_SUBCOMMANDS = {
    "answer": ["answer", "FILE", "--query", "q(X,Y) :- t(X,Y)."],
    "query": ["query", "FILE", "--query", "q(X,Y) :- t(X,Y)."],
    "update": ["update", "FILE", "--changes", "nope.delta"],
    "client query": ["client", "query", "q(X,Y) :- t(X,Y)."],
}


class TestPlanOptions:
    """--method/--rewrite come from one parent parser; how a rule runs
    is not an option at all."""

    @pytest.fixture(params=sorted(PLANNING_SUBCOMMANDS))
    def argv(self, request, program_file):
        return [
            str(program_file) if token == "FILE" else token
            for token in PLANNING_SUBCOMMANDS[request.param]
        ]

    def test_method_and_rewrite_parse_everywhere(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            argv + ["--method", "datalog", "--rewrite", "magic"]
        )
        assert (args.method, args.rewrite) == ("datalog", "magic")

    def test_defaults(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv)
        assert args.method == "auto"
        # `update` maintains what it materialized; a magic fixpoint
        # would be dropped instead.
        expected = "none" if argv[0] == "update" else "auto"
        assert args.rewrite == expected

    def test_choices_validated(self, argv, capsys):
        with pytest.raises(SystemExit):
            run(argv + ["--rewrite", "bogus"])
        assert "argument --rewrite: invalid choice" in capsys.readouterr().err

    def test_exec_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--exec", "kernel"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --exec" in capsys.readouterr().err


METHODS = "in auto|datalog|pwl|ward|chase"
REWRITES = "in auto|magic|none"
STORE = ["--memory-budget=None", "--spill-dir=None", "--store='instance'"]

#: Every command path's options as ``name=default [in choices]
#: [required]``, recorded from the parser before it was table-driven.
CLI_SURFACE = {
    "": ["command=None in classify|lint|answer|query|chase|stats|update|"
         "rewrite|serve|client required"],
    "answer": ["--explain=False", f"--method='auto' {METHODS}",
               "--query=None required", f"--rewrite='auto' {REWRITES}",
               "file=None required", *STORE],
    "chase": ["--max-atoms=10000", "--memory-report=False",
              "file=None required", *STORE],
    "classify": ["--query=None", "file=None required", *STORE],
    "client": ["--host='127.0.0.1'", "--port=7777",
               "client_command=None in query|update|lint|stats|ping|"
               "shutdown required"],
    "client lint": ["--ignore=None", "--select=None", "--strict=False",
                    "file=None required"],
    "client ping": [],
    "client query": ["--first=None", f"--method='auto' {METHODS}",
                     f"--rewrite='auto' {REWRITES}", "query=None required"],
    "client shutdown": [],
    "client stats": [],
    "client update": ["--changes='-'"],
    "lint": ["--format='text' in text|json", "--ignore=None", "--out=None",
             "--query=None", "--select=None", "--strict=False",
             "files=None required"],
    "query": ["--explain=False", "--first=None", f"--method='auto' {METHODS}",
              "--query=[]", f"--rewrite='auto' {REWRITES}",
              "file=None required", *STORE],
    "rewrite": ["--max-states=20000", "--query=None required", "--width=None",
                "file=None required", *STORE],
    "serve": ["--drain-timeout=5.0", "--host='127.0.0.1'", "--port-file=None",
              "--port=7777", "--state-dir=None", "file=None required",
              *STORE],
    "stats": ["--scale=2", "--seed=2019", *STORE],
    "update": ["--changes='-'", f"--method='auto' {METHODS}", "--query=[]",
               f"--rewrite='none' {REWRITES}", "file=None required", *STORE],
}


def surface(parser, path=""):
    """``{command path: sorted option entries}`` of *parser*."""
    rows = {path: []}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        entry = f"{' '.join(action.option_strings) or action.dest}="
        entry += repr(action.default)
        if action.choices:
            entry += " in " + "|".join(action.choices)
        if action.required:
            entry += " required"
        rows[path].append(entry)
        if isinstance(action, argparse._SubParsersAction):
            for command, subparser in action.choices.items():
                rows.update(surface(subparser, f"{path} {command}".strip()))
    rows[path].sort()
    return rows


class TestSurface:
    """The command table builds the same parser the per-command code
    did, without loading the modules only handlers need."""

    def test_every_command_keeps_its_options(self):
        from repro.cli import build_parser

        expected = {path: sorted(entries)
                    for path, entries in CLI_SURFACE.items()}
        assert surface(build_parser()) == expected

    def test_building_the_parser_loads_no_handler_module(self):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        lazy = ("repro.server", "repro.benchsuite", "repro.expressiveness",
                "repro.workloads")
        script = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            f"print([m for m in sys.modules if m.startswith({lazy!r})])"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestParserErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    def test_port_range(self):
        from repro.cli import _port

        assert _port("0") == 0
        assert _port("65535") == 65535
        for value in ("-1", "65536", "99999", "http"):
            with pytest.raises(argparse.ArgumentTypeError):
                _port(value)

    @pytest.mark.parametrize(
        "argv",
        [
            # 99999 used to wrap to port 34463 and talk to whatever
            # listened there.
            ["client", "--port", "99999", "ping"],
            ["serve", "FILE", "--port", "65536"],
            # A width bound below 1 printed "complete" for a rewriting
            # that answers nothing.
            ["rewrite", "FILE", "--query", "q(X,Y) :- t(X,Y).",
             "--width", "-3"],
            ["rewrite", "FILE", "--query", "q(X,Y) :- t(X,Y).",
             "--width", "0"],
            ["rewrite", "FILE", "--query", "q(X,Y) :- t(X,Y).",
             "--max-states", "-1"],
            ["chase", "FILE", "--max-atoms", "-5"],
            ["stats", "--scale", "-1"],
            # nan made the drain return at once ("drain timed out"), inf
            # could hang shutdown forever.
            ["serve", "FILE", "--drain-timeout", "nan"],
            ["serve", "FILE", "--drain-timeout", "inf"],
            ["serve", "FILE", "--drain-timeout", "-1"],
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, program_file, argv,
                                                   capsys):
        argv = [
            str(program_file) if token == "FILE" else token for token in argv
        ]
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 2
        assert "must be" in capsys.readouterr().err


class TestRewrite:
    def test_rewrites_pwl_program(self, program_file):
        code, output = run(
            [
                "rewrite", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
                "--width", "3",
            ]
        )
        assert code == 0
        assert "complete" in output
        assert "→" in output          # TGDs print with the arrow form
        assert "Answer" in output

    def test_truncation_exit_code(self, program_file):
        code, output = run(
            [
                "rewrite", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
                "--max-states", "2",
            ]
        )
        assert code == 3
        assert "TRUNCATED" in output


class TestUpdate:
    def run_with_stdin(self, argv, text):
        out = io.StringIO()
        code = main(argv, out=out, stdin=io.StringIO(text))
        return code, out.getvalue()

    def test_insert_and_retract_maintain_cached_fixpoint(self, program_file):
        code, output = self.run_with_stdin(
            [
                "update", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
            ],
            "+e(c,d).\n-e(a,b).\n",
        )
        assert code == 0
        assert "edb: +1 fact(s), -1 fact(s)" in output
        assert "maintained datalog×instance fixpoint" in output
        # the post-update answers reflect both the insert and retract
        assert "(b, d)" in output and "(a, b)" not in output

    def test_changes_file_and_store_flag(self, program_file, tmp_path):
        delta = tmp_path / "changes.delta"
        delta.write_text("# new edge\n+e(c,d).\n")
        code, output = run(
            [
                "update", str(program_file),
                "--changes", str(delta),
                "--query", "q(X,Y) :- t(X,Y).",
                "--store", "columnar",
            ]
        )
        assert code == 0
        assert "maintained datalog×columnar fixpoint" in output
        assert "(a, d)" in output

    def test_batch_separator_applies_sequentially(self, program_file):
        code, output = self.run_with_stdin(
            [
                "update", str(program_file),
                "--query", "q(X,Y) :- t(X,Y).",
            ],
            "+e(c,d).\n--\n-e(c,d).\n",
        )
        assert code == 0
        assert "batch 1:" in output and "batch 2:" in output
        # net effect of the two batches is zero
        assert "3 certain answer(s)" in output

    def test_no_cached_fixpoint_reports_nothing_to_maintain(
        self, program_file
    ):
        code, output = self.run_with_stdin(
            ["update", str(program_file)], "+e(c,d).\n"
        )
        assert code == 0
        assert "no cached fixpoints to maintain" in output

    def test_rederive_counter_surfaces(self, tmp_path):
        # two parallel paths a→b: retracting one rederives t(a,b)
        path = tmp_path / "diamond.vada"
        path.write_text("""
            e(a,b). f(a,b).
            t(X,Y) :- e(X,Y).
            t(X,Y) :- f(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        code, output = self.run_with_stdin(
            ["update", str(path), "--query", "q(X,Y) :- t(X,Y)."],
            "-e(a,b).\n",
        )
        assert code == 0
        assert "1 rederived" in output
        assert "(a, b)" in output  # still derivable through f

    def test_bad_delta_line_fails_with_batch_diagnostic(self, program_file):
        code, output = self.run_with_stdin(
            ["update", str(program_file)], "+e(X,b).\n"
        )
        assert code == 3
        assert "error in batch 1" in output

    def test_failed_batch_stops_later_batches(self, program_file):
        """Batches are sequential: nothing after a failed batch may
        apply (a 1,3 application with a gap matches no valid input)."""
        code, output = self.run_with_stdin(
            ["update", str(program_file),
             "--query", "q(X,Y) :- t(X,Y)."],
            "+e(c,d).\n--\n+bad(X.\n--\n-e(c,d).\n",
        )
        assert code == 3
        assert "error in batch 2" in output
        assert "applied 1 batch(es)" in output
        assert "batch 3:" not in output
        # batch 1 applied, batch 3 did not revert it
        assert "(c, d)" in output

    def test_missing_changes_file(self, program_file, capsys):
        assert_usage_error(
            ["update", str(program_file), "--changes", "missing.delta"],
            "cannot read missing.delta", capsys,
        )


class TestExitCodes:
    """Engine errors are diagnostics (exit 2, one line on stderr), not
    tracebacks; interrupts exit 130."""

    def test_engine_error_exits_2(self, program_file, capsys):
        code, output = run(
            ["answer", str(program_file), "--query", "q(X) :- broken(("]
        )
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, program_file,
                                          capsys):
        import repro.cli as cli

        def interrupt(args, out):
            raise KeyboardInterrupt

        monkeypatch.setitem(
            cli.__dict__, "_cmd_answer", interrupt
        )
        code, _ = run(
            ["answer", str(program_file), "--query", "q(X,Y) :- t(X,Y)."]
        )
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_repl_interrupt_ends_session_cleanly(self, program_file):
        class InterruptingStdin:
            def __init__(self):
                self.calls = 0

            def isatty(self):
                return False

            def readline(self):
                self.calls += 1
                if self.calls == 1:
                    return "q(X,Y) :- t(X,Y).\n"
                raise KeyboardInterrupt

        out = io.StringIO()
        code = main(
            ["query", str(program_file)], out=out,
            stdin=InterruptingStdin(),
        )
        assert code == 0
        assert "3 certain answer(s)" in out.getvalue()


class TestServeAndClient:
    SERVER_PROGRAM = TC_PROGRAM

    @pytest.fixture
    def running_server(self, program_file):
        from repro.server import ReasoningServer, ReasoningService

        service = ReasoningService(program_file, store="columnar")
        server = ReasoningServer(service, port=0)
        server.serve_in_thread()
        yield server.address
        server.close()

    def test_client_query(self, running_server):
        host, port = running_server
        code, output = run(
            ["client", "--host", host, "--port", str(port),
             "query", "q(X,Y) :- t(X,Y)."]
        )
        assert code == 0
        assert "(a, c)" in output
        assert "3 answer(s) @ version 0" in output

    def test_client_update_then_query(self, running_server, tmp_path):
        host, port = running_server
        delta = tmp_path / "batch.delta"
        delta.write_text("+e(c,d).\n")
        code, output = run(
            ["client", "--host", host, "--port", str(port),
             "update", "--changes", str(delta)]
        )
        assert code == 0
        assert "version 1: +1 -0" in output
        code, output = run(
            ["client", "--host", host, "--port", str(port),
             "query", "q(X) :- t(a, X)."]
        )
        assert code == 0
        assert "(d)" in output

    def test_client_update_applies_batches_in_order(self, running_server,
                                                     tmp_path):
        # The batch file `repro update` accepts, over the wire.
        host, port = running_server
        delta = tmp_path / "two.delta"
        delta.write_text("+e(c,d).\n--\n# second\n+e(d,f).\n")
        code, output = run(
            ["client", "--host", host, "--port", str(port),
             "update", "--changes", str(delta)]
        )
        assert code == 0
        assert output.splitlines() == [
            "batch 1:",
            "version 1: +1 -0 fact(s), 0 cache(s) migrated, 0 fallback(s)",
            "batch 2:",
            "version 2: +1 -0 fact(s), 0 cache(s) migrated, 0 fallback(s)",
        ]

    def test_client_update_stops_at_a_failing_batch(self, running_server):
        host, port = running_server
        out = io.StringIO()
        code = main(
            ["client", "--host", host, "--port", str(port), "update"],
            out=out,
            stdin=io.StringIO("+e(c,d).\n--\n+bad(X.\n--\n-e(c,d).\n"),
        )
        assert code == 3
        assert "error in batch 2" in out.getvalue()
        assert "batch 3:" not in out.getvalue()
        code, output = run(
            ["client", "--host", host, "--port", str(port), "ping"]
        )
        assert "ok (version 1)" in output  # batch 1 applied, 3 did not

    def test_client_stats_and_ping(self, running_server):
        host, port = running_server
        code, output = run(
            ["client", "--host", host, "--port", str(port), "ping"]
        )
        assert code == 0 and "ok (version 0)" in output
        code, output = run(
            ["client", "--host", host, "--port", str(port), "stats"]
        )
        assert code == 0
        assert '"queries_total"' in output

    def test_client_engine_error_exits_2(self, running_server, capsys):
        host, port = running_server
        code, _ = run(
            ["client", "--host", running_server[0],
             "--port", str(running_server[1]), "query", "q(X) :- broken(("]
        )
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_client_connection_refused_exits_2(self, capsys):
        import socket

        # An ephemeral port bound then closed is very likely free.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, _ = run(
            ["client", "--port", str(port), "ping"]
        )
        assert code == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_serve_shutdown_via_client(self, program_file, tmp_path):
        import threading

        port_file = tmp_path / "port.txt"
        out = io.StringIO()
        result = {}

        def serve():
            result["code"] = main(
                ["serve", str(program_file), "--port", "0",
                 "--port-file", str(port_file)],
                out=out,
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        import time
        deadline = time.monotonic() + 10
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        port = int(port_file.read_text().strip())
        code, output = run(
            ["client", "--port", str(port), "shutdown"]
        )
        assert code == 0 and "server stopping" in output
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["code"] == 0
        assert "server stopped" in out.getvalue()


class TestShardedStoreFlags:
    def test_answer_with_budget_and_spill_dir(self, program_file, tmp_path):
        code, output = run(
            ["answer", str(program_file),
             "--query", "q(X,Y) :- t(X,Y).",
             "--store", "sharded",
             "--memory-budget", "64k",
             "--spill-dir", str(tmp_path / "spill")]
        )
        assert code == 0
        assert "3 certain answer(s)" in output

    def test_chase_with_sharded_store(self, program_file):
        code, output = run(
            ["chase", str(program_file), "--store", "sharded"]
        )
        assert code == 0
        assert "saturated" in output

    def test_budget_requires_sharded(self, program_file, capsys):
        assert_usage_error(
            ["answer", str(program_file),
             "--query", "q(X,Y) :- t(X,Y).",
             "--store", "columnar",
             "--memory-budget", "64k"],
            "require --store sharded", capsys,
        )

    def test_spill_dir_requires_sharded(self, program_file, tmp_path,
                                        capsys):
        assert_usage_error(
            ["answer", str(program_file),
             "--query", "q(X,Y) :- t(X,Y).",
             "--spill-dir", str(tmp_path)],
            "require --store sharded", capsys,
        )

    def test_stats_checks_the_store_flags_too(self, capsys):
        # `stats` takes the store options but used to skip their check.
        assert_usage_error(
            ["stats", "--scale", "1", "--memory-budget", "8m"],
            "require --store sharded", capsys,
        )

    def test_byte_size_suffixes(self):
        from repro.cli import _byte_size

        assert _byte_size("4096") == 4096
        assert _byte_size("64k") == 64 * 1024
        assert _byte_size("2M") == 2 * 1024 * 1024
        assert _byte_size("1g") == 1024 ** 3
        with pytest.raises(Exception):
            _byte_size("0")
        with pytest.raises(Exception):
            _byte_size("12q")
        # Overflowing floats are usage errors, not OverflowError tracebacks.
        for value in ("inf", "1e400"):
            with pytest.raises(argparse.ArgumentTypeError):
                _byte_size(value)


class TestClientMemoryStats:
    @pytest.fixture
    def sharded_server(self, program_file):
        from repro.server import ReasoningServer, ReasoningService
        from repro.storage import sharded_store_factory

        service = ReasoningService(
            program_file, store=sharded_store_factory(None, None)
        )
        server = ReasoningServer(service, port=0)
        server.serve_in_thread()
        yield server.address
        server.close()

    def test_stats_reports_per_version_bytes(self, sharded_server, tmp_path):
        import json

        host, port = sharded_server
        delta = tmp_path / "batch.delta"
        delta.write_text("+e(c,d).\n")
        code, _ = run(
            ["client", "--host", host, "--port", str(port),
             "update", "--changes", str(delta)]
        )
        assert code == 0
        code, output = run(
            ["client", "--host", host, "--port", str(port), "stats"]
        )
        assert code == 0
        stats = json.loads(output)
        memory = stats["memory"]
        assert memory["resident_bytes_total"] > 0
        assert "spilled_bytes_total" in memory
        versions = memory["versions"]
        assert versions  # at least the head
        for entry in versions.values():
            assert set(entry) == {"atoms", "resident_bytes",
                                  "spilled_bytes"}


class TestLint:
    CLEAN = TC_PROGRAM
    DEFECTIVE = """
        e(a, b).
        p(X) :- e(X, Y).
        q(X, Y) :- p(X).
        pair(Y, Z) :- q(X, Y), q(W, Z).
        odd(X) :- e(X, Y), not even(X).
        even(X) :- e(X, Y), not odd(X).
        bad(Z) :- e(X, Y), not e(Y, Z).
    """
    WARN_ONLY = """
        p(a). q(b).
        pair(X, Y) :- p(X), q(Y).
    """

    def write(self, tmp_path, text, name="prog.vada"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_clean_program_exits_0(self, tmp_path):
        path = self.write(tmp_path, self.CLEAN)
        code, output = run(["lint", str(path)])
        assert code == 0
        assert "clean" in output

    def test_defective_program_exits_1_with_codes(self, tmp_path):
        path = self.write(tmp_path, self.DEFECTIVE)
        code, output = run(["lint", str(path)])
        assert code == 1
        for expected in ["E101", "E103", "W201"]:
            assert expected in output
        # Findings carry the file path and line:column locations.
        assert f"{path}:" in output

    def test_warnings_gate_only_under_strict(self, tmp_path):
        path = self.write(tmp_path, self.WARN_ONLY)
        code, output = run(["lint", str(path)])
        assert code == 0
        assert "W203" in output
        code, _ = run(["lint", "--strict", str(path)])
        assert code == 1

    def test_select_and_ignore(self, tmp_path):
        path = self.write(tmp_path, self.DEFECTIVE)
        code, output = run(["lint", str(path), "--select", "E1"])
        assert code == 1
        assert "E101" in output and "W201" not in output
        code, output = run(["lint", str(path), "--ignore", "E,W"])
        assert code == 0
        assert "E101" not in output

    def test_json_format_and_out_file(self, tmp_path):
        import json

        path = self.write(tmp_path, self.DEFECTIVE)
        report_path = tmp_path / "report.json"
        code, output = run(
            ["lint", str(path), "--format", "json",
             "--out", str(report_path)]
        )
        assert code == 1
        payload = json.loads(output)
        assert payload["failed"] is True
        (entry,) = payload["files"]
        assert entry["path"] == str(path)
        codes = {d["code"] for d in entry["diagnostics"]}
        assert {"E101", "E103", "W201"} <= codes
        for diagnostic in entry["diagnostics"]:
            assert diagnostic["severity"] in ("error", "warning", "info")
            assert diagnostic["line"] >= 1
        # --out writes the same payload to disk.
        assert json.loads(report_path.read_text()) == payload

    def test_multiple_files_aggregate(self, tmp_path):
        clean = self.write(tmp_path, self.CLEAN, "clean.vada")
        bad = self.write(tmp_path, self.DEFECTIVE, "bad.vada")
        code, output = run(["lint", str(clean), str(bad)])
        assert code == 1
        assert f"{clean}: clean" in output
        assert "E101" in output

    def test_syntax_error_becomes_e001(self, tmp_path):
        path = self.write(tmp_path, "t(X) :- e(X\n")
        code, output = run(["lint", str(path)])
        assert code == 1
        assert "E001" in output and "syntax-error" in output

    def test_missing_file_exits_via_systemexit(self, tmp_path, capsys):
        path = tmp_path / "nope.vada"
        assert_usage_error(["lint", str(path)], f"cannot read {path}", capsys)

    def test_help_lists_registered_codes(self, capsys):
        from repro.lint import registered_codes

        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        help_text = capsys.readouterr().out
        assert "E001" in help_text
        for code, _, _, _ in registered_codes():
            assert code in help_text

    def test_help_wraps_the_description_and_keeps_the_table(
        self, capsys, monkeypatch
    ):
        from repro.lint import registered_codes

        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        help_text = capsys.readouterr().out
        head, _, table = help_text.partition("diagnostic codes")
        assert head.startswith("usage: repro lint")
        assert "Run every repro.lint pass" in head
        assert max(map(len, head.splitlines())) <= 80
        syntax, *rows = table.splitlines()[1:]
        assert syntax.startswith(f"  E001 {'syntax-error':26s} {'error':8s} ")
        assert len(rows) == len(registered_codes())
        for row, (code, name, severity, _) in zip(rows, registered_codes()):
            assert row.startswith(f"  {code} {name:26s} {severity:8s} ")


class TestClientLint:
    @pytest.fixture
    def running_server(self, program_file):
        from repro.server import ReasoningServer, ReasoningService

        service = ReasoningService(program_file, store="columnar")
        server = ReasoningServer(service, port=0)
        server.serve_in_thread()
        yield server.address
        server.close()

    def test_client_lint_clean_and_defective(self, running_server, tmp_path):
        host, port = running_server
        clean = tmp_path / "clean.vada"
        clean.write_text(TC_PROGRAM)
        code, output = run(
            ["client", "--host", host, "--port", str(port),
             "lint", str(clean)]
        )
        assert code == 0
        assert "clean" in output

        bad = tmp_path / "bad.vada"
        bad.write_text("bad(Z) :- e(X, Y), not e(Y, Z).\ne(a, b).\n")
        code, output = run(
            ["client", "--host", host, "--port", str(port),
             "lint", str(bad)]
        )
        assert code == 1
        assert "E101" in output

    def test_client_lint_strict_gates_warnings(self, running_server,
                                               tmp_path):
        host, port = running_server
        warn = tmp_path / "warn.vada"
        warn.write_text("p(a). q(b).\npair(X, Y) :- p(X), q(Y).\n")
        code, output = run(
            ["client", "--host", host, "--port", str(port),
             "lint", str(warn)]
        )
        assert code == 0 and "W203" in output
        code, _ = run(
            ["client", "--host", host, "--port", str(port),
             "lint", str(warn), "--strict"]
        )
        assert code == 1
