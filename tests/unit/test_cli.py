"""Unit tests for the command-line interface."""

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            run(["classify", str(tmp_path / "nope.vada")])


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


class TestBench:
    def test_choice_mirrors_match_harness(self):
        # The parser's static choices must track the harness constants.
        from repro.benchsuite.harness import SCALES, SUITES
        from repro.cli import BENCH_SCALES, BENCH_SUITES

        assert BENCH_SCALES == tuple(SCALES)
        assert BENCH_SUITES == SUITES

    def test_trace_mirrors_match_workloads(self):
        from repro.cli import TRACE_FAMILIES, TRACE_MIXES
        from repro.workloads import MIXES
        from repro.workloads import TRACE_FAMILIES as WORKLOAD_FAMILIES

        assert TRACE_MIXES == tuple(MIXES)
        assert TRACE_FAMILIES == WORKLOAD_FAMILIES

    def test_matrix_subcommand_writes_artifact(self, tmp_path):
        import json

        out_path = tmp_path / "results" / "BENCH_suite.json"
        code, output = run(
            [
                "bench", "--scale", "smoke",
                "--suite", "industrial",
                "--engine", "pwl", "--engine", "ward",
                "--store", "instance", "--store", "columnar",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "0 disagreement(s)" in output
        assert f"wrote {out_path}" in output
        payload = json.loads(out_path.read_text())
        assert payload["scale"] == "smoke"
        assert payload["suites"] == ["industrial"]
        assert {c["engine"] for c in payload["cells"]} == {"pwl", "ward"}
        assert {c["store"] for c in payload["cells"]} == {
            "instance", "columnar"
        }
        assert all(c["status"] == "ok" for c in payload["cells"])

    def test_rejects_unknown_engine_and_store(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["bench", "--engine", "warp"])
        with pytest.raises(SystemExit):
            run(["bench", "--store", "ram"])

    def test_rejects_nonpositive_queries(self, tmp_path):
        # argparse-level rejection: usage error, nothing runs.
        with pytest.raises(SystemExit):
            run(
                ["bench", "--queries", "0",
                 "--out", str(tmp_path / "b.json")]
            )

    def test_vacuous_matrix_fails(self, tmp_path):
        # Every iwarded cell is skipped for the datalog engine (the
        # programs have existentials): measuring nothing must not exit 0.
        code, output = run(
            [
                "bench", "--scale", "smoke", "--suite", "iwarded",
                "--engine", "datalog", "--store", "instance",
                "--out", str(tmp_path / "b.json"),
            ]
        )
        assert code == 3
        assert "no successful cells" in output


class TestTrace:
    """The workload-harness subcommand: generate / replay / summarize."""

    GENERATE = [
        "trace", "generate", "--ops", "40", "--seed", "11",
        "--vertices", "16", "--edges", "32", "--clusters", "2",
    ]

    def test_generate_to_stdout_is_ndjson(self):
        import json

        code, output = run(self.GENERATE)
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 41  # header + one line per op
        header = json.loads(lines[0])
        assert header["schema"] == "repro/trace/v1"
        assert json.loads(lines[1])["index"] == 0

    def test_generate_to_file_then_summarize(self, tmp_path):
        import json

        path = tmp_path / "t.ndjson"
        code, output = run(self.GENERATE + ["--out", str(path)])
        assert code == 0
        assert "40 op(s)" in output
        code, output = run(["trace", "summarize", str(path)])
        assert code == 0
        summary = json.loads(output)
        assert summary["ops"] == 40
        assert summary["schema"] == "repro/trace/v1"

    def test_generate_is_deterministic(self):
        _, first = run(self.GENERATE)
        _, second = run(self.GENERATE)
        assert first == second

    def test_replay_session_and_service(self, tmp_path):
        path = tmp_path / "t.ndjson"
        run(self.GENERATE + ["--out", str(path)])
        for target in ("session", "service"):
            code, output = run(
                ["trace", "replay", str(path), "--target", target,
                 "--workers", "2"]
            )
            assert code == 0, output
            assert "0 mismatch(es)" in output
            assert "0 error(s)" in output

    def test_replay_json_output(self, tmp_path):
        import json

        path = tmp_path / "t.ndjson"
        run(self.GENERATE + ["--out", str(path)])
        code, output = run(
            ["trace", "replay", str(path), "--json", "--workers", "2"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["ok"] is True
        assert payload["ops_run"] == 40
        assert "p99_ms" in payload["latency"]["all"]

    def test_replay_open_loop(self, tmp_path):
        path = tmp_path / "t.ndjson"
        run(self.GENERATE + ["--out", str(path), "--rate", "2000"])
        code, output = run(
            ["trace", "replay", str(path), "--rate", "trace",
             "--workers", "2"]
        )
        assert code == 0
        assert "lateness" in output

    def test_replay_missing_file_errors(self, tmp_path):
        code, _ = run(
            ["trace", "replay", str(tmp_path / "absent.ndjson")]
        )
        assert code == 2  # one-line diagnostic, no traceback

    def test_rejects_bad_rate_and_mix(self):
        with pytest.raises(SystemExit):
            run(["trace", "generate", "--mix", "write-only"])
        with pytest.raises(SystemExit):
            run(["trace", "replay", "t.ndjson", "--rate", "-2"])

    def test_replay_server_connection_refused(self, tmp_path):
        path = tmp_path / "t.ndjson"
        run(self.GENERATE + ["--out", str(path)])
        code, _ = run(
            ["trace", "replay", str(path), "--target", "server",
             "--port", "1"]  # nothing listens on port 1
        )
        assert code == 2


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
    "trace replay": ["trace", "replay", "FILE"],
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


class TestParserErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])


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

    def test_missing_changes_file(self, program_file):
        with pytest.raises(SystemExit, match="cannot read"):
            run(["update", str(program_file), "--changes", "missing.delta"])


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

    def test_budget_requires_sharded(self, program_file):
        with pytest.raises(SystemExit, match="require --store sharded"):
            run(
                ["answer", str(program_file),
                 "--query", "q(X,Y) :- t(X,Y).",
                 "--store", "columnar",
                 "--memory-budget", "64k"]
            )

    def test_spill_dir_requires_sharded(self, program_file, tmp_path):
        with pytest.raises(SystemExit, match="require --store sharded"):
            run(
                ["answer", str(program_file),
                 "--query", "q(X,Y) :- t(X,Y).",
                 "--spill-dir", str(tmp_path)]
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

    def test_missing_file_exits_via_systemexit(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            run(["lint", str(tmp_path / "nope.vada")])

    def test_help_lists_registered_codes(self, capsys):
        from repro.lint import registered_codes

        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        help_text = capsys.readouterr().out
        assert "E001" in help_text
        for code, _, _, _ in registered_codes():
            assert code in help_text


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
