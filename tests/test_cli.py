"""Tests for the experiment CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in ("list", "fig4", "fig5", "fig6", "fig7", "fig12",
                        "fig13", "screen"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_fig4_arguments(self):
        args = build_parser().parse_args(
            ["fig4", "--model", "grm", "--vary", "num_users", "--trials", "2"]
        )
        assert args.model == "grm"
        assert args.vary == "num_users"
        assert args.trials == 2

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--model", "rasch"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "pokemon" in output
        assert "science" in output

    def test_fig4_small_run(self, capsys):
        exit_code = main(
            ["fig4", "--vary", "num_items", "--users", "20", "--options", "3",
             "--trials", "1", "--values", "20", "30"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "HnD" in output

    def test_fig5_small_run(self, capsys):
        exit_code = main(
            ["fig5", "--dimension", "users", "--fixed-size", "20", "--repeats", "1",
             "--values", "20", "30", "--max-size", "100"]
        )
        assert exit_code == 0
        assert "HnD-Power" in capsys.readouterr().out

    def test_fig6_small_run(self, capsys):
        exit_code = main(["fig6", "--users", "25", "--items", "25", "--repeats", "1",
                          "--values", "4"])
        assert exit_code == 0
        assert "ABH" in capsys.readouterr().out

    def test_fig13_small_run(self, capsys):
        exit_code = main(["fig13", "--users", "25", "--items", "25", "--runs", "1"])
        assert exit_code == 0
        assert "HnD" in capsys.readouterr().out


class TestFigureCountValidation:
    """A count or size below 1 exits 2 with one error line, before any work.

    Zero trials/repeats/runs used to print an empty or all-NaN table and
    exit 0; a zero size died with an ``InvalidResponseMatrixError``
    traceback from inside the experiment.
    """

    @pytest.mark.parametrize("argv", [
        ["fig4", "--trials", "0"],
        ["fig4", "--users", "0"],
        ["fig4", "--items", "0"],
        ["fig4", "--trials", "-2"],
        ["fig5", "--repeats", "0"],
        ["fig5", "--fixed-size", "0"],
        ["fig6", "--repeats", "0"],
        ["fig6", "--users", "0"],
        ["fig6", "--items", "0"],
        ["fig12", "--runs", "0"],
        ["fig12", "--students", "0"],
        ["fig13", "--runs", "0"],
        ["fig13", "--users", "0"],
        ["fig13", "--items", "0"],
    ], ids=" ".join)
    def test_below_one_exits_2_before_any_work(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s must be >= 1, got %s\n" % (argv[1], argv[2])


class TestFig4GeneratorValidation:
    """``fig4`` refuses, before any work, the values its generators refuse.

    Each of these used to die with a ``ValueError`` or
    ``InvalidResponseMatrixError`` traceback (exit 1) from inside the sweep.
    """

    @pytest.mark.parametrize("argv,message", [
        (["fig4", "--options", "1"], "--options must be >= 2, got 1"),
        (["fig4", "--model", "grm", "--options", "1"],
         "--options must be >= 2, got 1"),
        (["fig4", "--vary", "num_options", "--values", "1"],
         "--values must be >= 2, got 1"),
        (["fig4", "--vary", "answer_probability", "--values", "0"],
         "--values must lie in (0, 1] for answer_probability, got 0"),
        (["fig4", "--vary", "answer_probability", "--values", "0.5", "1.5"],
         "--values must lie in (0, 1] for answer_probability, got 1.5"),
        (["fig4", "--vary", "num_items", "--values", "25", "0"],
         "--values must be >= 1, got 0"),
    ], ids=["options", "grm-options", "num_options", "probability-0",
            "probability-1.5", "num_items"])
    def test_refused_with_exit_2_before_any_work(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_c1p_still_takes_one_option(self, capsys):
        argv = ["fig4", "--vary", "c1p", "--options", "1", "--values", "5",
                "--users", "12", "--trials", "1"]
        assert main(argv) == 0
        assert "num_items(C1P)" in capsys.readouterr().out


class TestGrmEstimatorValidation:
    """A figure run that fits the GRM estimator refuses one user up front.

    The cheating baselines (always on in ``fig12`` and ``fig13``) fit the
    GRM estimator, which needs at least two users; each of these used to
    die with its ``EstimationError`` traceback (exit 1).
    """

    @pytest.mark.parametrize("argv,flag", [
        (["fig12", "--students", "1"], "--students"),
        (["fig13", "--users", "1"], "--users"),
        (["fig4", "--cheating", "--users", "1"], "--users"),
        (["fig4", "--cheating", "--vary", "num_users", "--values", "1"],
         "--values"),
        (["fig4", "--cheating", "--vary", "c1p", "--users", "1"], "--users"),
    ], ids=["fig12", "fig13", "fig4", "fig4-num_users", "fig4-c1p"])
    def test_one_user_exits_2_before_any_work(self, argv, flag, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s must be >= 2, got 1\n" % flag

    def test_fig4_without_cheating_takes_one_user(self, capsys):
        argv = ["fig4", "--users", "1", "--items", "5", "--values", "5",
                "--trials", "1"]
        assert main(argv) == 0
        assert "HnD" in capsys.readouterr().out


class TestScreenValidation:
    def test_negative_floor_margin_exits_2_before_any_cell(self, tmp_path,
                                                           capsys):
        out, baseline = tmp_path / "screening", tmp_path / "BENCH.json"
        argv = ["screen", "--out", str(out), "--scenarios", "burst-append",
                "--methods", "MajorityVote", "--scales", "40x16",
                "--baseline", str(baseline), "--update-screening",
                "--floor-margin", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --floor-margin must be >= 0, got -1\n"
        assert not out.exists()
        assert not baseline.exists()


class TestRankCommand:
    """The serving entry point: load, fused rank, cache."""

    @pytest.fixture
    def saved_matrix(self, tmp_path):
        import numpy as np

        from repro.core.response import ResponseMatrix

        rng = np.random.default_rng(9)
        mask = rng.random((80, 25)) < 0.5
        users, items = np.nonzero(mask)
        options = rng.integers(0, 3, size=users.size)
        response = ResponseMatrix.from_triples(
            users, items, options, shape=(80, 25), num_options=3
        )
        path = tmp_path / "crowd.npz"
        response.save(path)
        return path

    def test_rank_arguments(self):
        args = build_parser().parse_args(
            ["rank", "crowd.npz", "--method", "Dawid-Skene", "--repeat", "3"]
        )
        assert args.input == "crowd.npz"
        assert args.method == "Dawid-Skene"
        assert args.repeat == 3

    def test_rank_requires_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank"])

    @pytest.mark.parametrize("method", ["HnD", "Dawid-Skene", "MajorityVote"])
    def test_rank_runs_sharded(self, saved_matrix, capsys, method):
        exit_code = main(
            ["rank", str(saved_matrix), "--method", method,
             "--repeat", "2", "--top", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "computed" in output
        assert "cache hit" in output
        assert "top 3 users" in output

    def test_rank_single_process_path(self, saved_matrix, capsys):
        exit_code = main(["rank", str(saved_matrix), "--repeat", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cache hit" not in output

    def test_rank_repeat_zero_still_ranks_once(self, saved_matrix, capsys):
        exit_code = main(["rank", str(saved_matrix), "--repeat", "0"])
        assert exit_code == 0
        assert "top" in capsys.readouterr().out

    def test_rank_accelerated(self, saved_matrix, capsys):
        exit_code = main(["rank", str(saved_matrix), "--repeat", "1",
                          "--acceleration", "momentum"])
        assert exit_code == 0
        assert "top" in capsys.readouterr().out


class TestRankErrorPaths:
    """Bad invocations exit 2 with actionable messages, never tracebacks."""

    def test_unknown_method_prints_did_you_mean_hint(self, capsys):
        # Validation runs before the input loads: no file needed.
        exit_code = main(["rank", "no-such-file.npz", "--method", "HnDD"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "'HnD'" in err

    def test_supervised_method_rejected(self, capsys):
        exit_code = main(["rank", "no-such-file.npz", "--method", "True-Answer"])
        assert exit_code == 2
        assert "supervised" in capsys.readouterr().err

    def test_warm_start_rejects_non_warm_startable_method(self, capsys):
        """GLAD has chaotic dynamics: no warm start, clear error."""
        exit_code = main(["rank", "no-such-file.npz", "--method", "GLAD",
                          "--warm-start"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "does not support warm starts" in err
        assert "warm-startable methods" in err

    def test_warm_start_rejects_nondeterministic_configuration(self, capsys):
        exit_code = main(["rank", "no-such-file.npz", "--warm-start",
                          "--random-state", "none"])
        assert exit_code == 2
        assert "deterministic" in capsys.readouterr().err

    def test_bad_random_state_rejected(self, capsys):
        exit_code = main(["rank", "no-such-file.npz", "--random-state", "seven"])
        assert exit_code == 2
        assert "--random-state" in capsys.readouterr().err

    def test_random_state_on_seedless_method_rejected(self, capsys):
        """The flag must not be silently dropped for methods without it."""
        exit_code = main(["rank", "no-such-file.npz", "--method", "Dawid-Skene",
                          "--random-state", "3"])
        assert exit_code == 2
        assert "no random_state parameter" in capsys.readouterr().err

    def test_acceleration_on_unaccelerated_method_rejected(self, capsys):
        exit_code = main(["rank", "no-such-file.npz", "--method", "GLAD",
                          "--acceleration", "momentum"])
        assert exit_code == 2
        assert "no acceleration parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--cache-size", "0"],
        ["--top", "-3"],
        ["--append", "-5", "--warm-start"],
    ], ids=["cache-size", "top", "append"])
    def test_numeric_flag_out_of_range_exits_2(self, capsys, args):
        # Checked before the input loads: no file needed.
        exit_code = main(["rank", "no-such-file.npz", *args])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "error: %s must be >=" % args[0] in err

    @pytest.mark.parametrize("name, content", [
        ("absent.npz", None),
        ("junk.npz", b"junk"),
        # A saved CSV cut inside its last row.
        ("crowd.csv", b"# repro-response-matrix v1 m=2 n=2 num_options=2,2\n"
                      b"user,item,option\n0,0,1\n0,1,0\n1,0"),
    ], ids=["missing", "junk-npz", "truncated-csv"])
    def test_unreadable_input_exits_2(self, capsys, tmp_path, name, content):
        """One line of prose naming the file on stderr, no traceback."""
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert main(["rank", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(path) in lines[0]


class TestRankWarmStart:
    """The --warm-start / --append serving demo path."""

    @pytest.fixture
    def saved_matrix(self, tmp_path):
        import numpy as np

        from repro.core.response import ResponseMatrix

        rng = np.random.default_rng(3)
        truth = rng.integers(0, 3, size=25)
        ability = rng.uniform(0.5, 0.95, size=120)
        mask = rng.random((120, 25)) < 0.5
        users, items = np.nonzero(mask)
        correct = rng.random(users.size) < ability[users]
        wrong = (truth[items] + rng.integers(1, 3, size=users.size)) % 3
        options = np.where(correct, truth[items], wrong)
        response = ResponseMatrix.from_triples(
            users, items, options, shape=(120, 25), num_options=3
        )
        path = tmp_path / "warm-crowd.npz"
        response.save(path)
        return path

    def test_warm_start_with_append_reconverges_warm(self, saved_matrix, capsys):
        exit_code = main(
            ["rank", str(saved_matrix), "--warm-start", "--append", "40",
             "--repeat", "3", "--top", "3"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "warm-started" in out
        assert "warm_start=cold" in out   # first solve has no state yet
        assert "warm_start=warm" in out   # post-append solves resume
        assert out.count("appended 40 answers") == 2

    def test_warm_start_without_append_serves_cache_hits(self, saved_matrix,
                                                         capsys):
        exit_code = main(
            ["rank", str(saved_matrix), "--warm-start", "--repeat", "2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cache hit" in out

    def test_append_without_warm_start_recomputes_cold(self, saved_matrix,
                                                       capsys):
        exit_code = main(
            ["rank", str(saved_matrix), "--append", "10", "--repeat", "2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "appended 10 answers" in out
        assert "warm_start=" not in out

    def test_append_respects_heterogeneous_option_counts(self, tmp_path,
                                                         capsys):
        """Appended options stay below each item's own option count."""
        import numpy as np

        from repro.core.response import ResponseMatrix

        rng = np.random.default_rng(5)
        num_options = np.array([2] + [4] * 11)  # one binary item among 4-option
        mask = rng.random((40, 12)) < 0.6
        mask[0, 0] = True
        users, items = np.nonzero(mask)
        options = rng.integers(0, num_options[items])
        response = ResponseMatrix.from_triples(
            users, items, options, shape=(40, 12), num_options=num_options
        )
        path = tmp_path / "hetero.npz"
        response.save(path)
        # The appended answers must draw each option below its own item's
        # count — an out-of-range option on the binary item would raise
        # InvalidResponseMatrixError at the next materialization.
        exit_code = main(["rank", str(path), "--method", "MajorityVote",
                          "--append", "30", "--repeat", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "appended 30 answers" in out
        assert "rank() call 3" in out

    def test_appended_cells_skip_the_taken_ones_when_m_times_n_passes_2_31(self):
        """The cell key ``user * n + item`` is int64 over int32 users: the
        candidate draws repeat every taken cell, and none is appended."""
        import numpy as np

        from repro.api import CrowdSession
        from repro.cli import _append_random_answers
        from repro.core.response import ResponseMatrix

        num_users, num_items = 100_000, 30_000  # m * n is about 1.4 * 2**31
        taken = [(5, 0), (80_000, 5), (99_999, 3)]
        free = [(99_999, 10), (99_999, 20), (99_999, 29_999)]
        users, items = (np.array(column) for column in zip(*taken))
        matrix = ResponseMatrix.from_triples(users, items, [0, 0, 0],
                                             shape=(num_users, num_items),
                                             num_options=4)
        assert matrix.triples[0].dtype == np.int32

        class Draws:
            """Candidate cells: the taken ones first, then the free ones."""

            @staticmethod
            def integers(low, high, size=None, dtype=np.int64):
                if size is None:  # one option per appended answer
                    return np.ones(np.shape(high), dtype=np.int64)
                cells = np.array(taken + free, dtype=np.int64)
                return np.resize(cells[:, 0] * num_items + cells[:, 1], size)

            @staticmethod
            def permutation(values):
                return np.asarray(values)

        session = CrowdSession.from_matrix(matrix)
        assert _append_random_answers(session, 3, Draws()) == 3
        users, items, options = session.matrix.triples
        assert sorted(zip(users.tolist(), items.tolist())) == sorted(taken + free)
        assert options.tolist() == [0, 0, 0, 1, 1, 1]


class TestServeCommand:
    def test_serve_arguments_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "8642", "--rate", "100", "--max-queue", "8"]
        )
        assert args.port == 8642
        assert args.rate == 100.0
        assert args.max_queue == 8
        assert callable(args.func)

    @pytest.mark.parametrize("argv", [
        ["serve", "--max-queue", "0"],
        ["serve", "--solver-threads", "0"],
        ["serve", "--rate", "-1"],
        ["serve", "--burst", "0"],
        ["serve", "--burst", "0.5"],
        ["serve", "--max-sessions", "0"],
        ["serve", "--max-pending-answers", "0"],
        ["serve", "--cache-size", "0"],
    ])
    def test_invalid_configuration_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_ready_line_and_shutdown_over_the_wire(self):
        """The CLI binds, prints READY host/port, and serves until the
        shutdown op — the contract CI's smoke job builds on."""
        import re
        import subprocess
        import sys as _sys

        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            match = re.match(r"READY host=(\S+) port=(\d+)$", line)
            assert match, "expected a READY line, got %r" % line
            from repro.serve import ServeClient

            with ServeClient(match.group(1), int(match.group(2))) as client:
                assert client.ping()["server"] == "repro.serve"
                client.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - failure path
                proc.kill()
