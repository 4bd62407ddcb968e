"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["info"],
            ["run", "fig01"],
            ["all"],
            ["bfs", "--scale", "10"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table4"])
        assert args.scale == 15
        assert args.candidates == 1000
        assert args.save is None

    @pytest.mark.parametrize(
        "argv",
        [["monitor", "drift"], ["callgraph", "--cache", "x.json"]],
        ids=["monitor-drift", "callgraph-cache"],
    )
    def test_removed_drift_and_cache_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "table4" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cpu-snb" in out and "RCMB" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(
            ["run", "roofline", "--scale", "10", "--save", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "RCMB" in out
        assert (tmp_path / "roofline_rcmb.json").exists()

    def test_bfs_command(self, capsys):
        rc = main(
            [
                "bfs",
                "--scale",
                "10",
                "--edgefactor",
                "8",
                "--engine",
                "hybrid",
                "--m",
                "20",
                "--n",
                "100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GTEPS" in out and "validated" in out

    def test_library_error_is_one_stderr_line(self, capsys):
        assert main(["graph500", "--scale", "8", "--roots", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "repro-bfs: BenchError: num_roots must be >= 1, got 0\n"

    def test_bfs_argument_error_is_one_stderr_line(self, capsys):
        assert main(["bfs", "--scale", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "repro-bfs: GraphError: scale must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph500", "--roots", "2"],
            ["sanitize"],
            ["bfs"],
            ["trace", "--out", "{tmp}/t"],
            ["profile", "--out", "{tmp}/p"],
            ["monitor", "record", "--history", "{tmp}/h.jsonl"],
        ],
        ids=["graph500", "sanitize", "bfs", "trace", "profile", "record"],
    )
    def test_negative_seed_is_one_stderr_line(self, capsys, tmp_path, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--scale", "8", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "repro-bfs: GraphError: seed must be >= 0, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_closed_stdout_exits_1_without_traceback(self):
        """The reader leaves after one line, as ``| head -1`` does.  The
        child writes unbuffered, so the next ``print`` meets the closed
        pipe."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "bfs", "--scale", "10",
             "--engine", "hybrid", "--m", "20", "--n", "100"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as child:
            try:
                first = child.stdout.readline()
                child.stdout.close()
                err = child.stderr.read()
                status = child.wait(timeout=120)
            finally:
                child.kill()
        assert first.startswith(b"generating R-MAT scale=10")
        assert (status, err) == (1, b"")

    def test_graph500_scale_beyond_int32_ids(self, capsys):
        assert main(["graph500", "--scale", "32", "--roots", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro-bfs: GraphError: scale must be <= 31 "
            "(vertex ids are int32), got 32\n"
        )

    def test_bfs_lone_threshold_is_kept(self, capsys):
        # only the missing threshold is predicted
        assert main(["bfs", "--scale", "8", "--m", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "auto"
        assert payload["m"] == 7.0
        assert payload["n"] > 0

    def test_bfs_zero_threshold_is_rejected(self, capsys):
        # NaN fails every comparison, so it must fail the check too
        for bad in ("0", "nan"):
            assert main(["bfs", "--scale", "8", "--m", bad]) == 2
            out, err = capsys.readouterr()
            # the given M is not reported as a prediction
            predicted = [
                line for line in out.splitlines()
                if line.startswith("predicted switching point:")
            ]
            assert len(predicted) == 1
            assert "N=" in predicted[0] and "M=" not in predicted[0]
            assert err.startswith(
                "repro-bfs: BFSError: M and N must be positive, "
            )
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            (["trace", "--scale", "6", "--out", "{missing}/x"],
             "{missing}/x"),
            (["callgraph", "{src}", "--format", "dot", "--out",
              "{missing}/cg.dot"], "{missing}/cg.dot"),
        ],
        ids=["trace", "callgraph"],
    )
    def test_unwritable_output_is_one_stderr_line(
        self, capsys, tmp_path, argv, named
    ):
        src = tmp_path / "src"
        src.mkdir()
        (src / "m.py").write_text("def f():\n    return 1\n")
        fill = {"missing": tmp_path / "missing", "src": src}
        assert main([a.format(**fill) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-bfs: {named.format(**fill)}")
        assert err.count("\n") == 1

    def test_bfs_topdown(self, capsys):
        assert main(["bfs", "--scale", "9", "--engine", "td"]) == 0
        assert "GTEPS" in capsys.readouterr().out

    def test_bfs_bottomup(self, capsys):
        assert main(["bfs", "--scale", "9", "--engine", "bu"]) == 0
        assert "GTEPS" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_graph500_command(self, capsys):
        rc = main(
            [
                "graph500",
                "--scale",
                "9",
                "--edgefactor",
                "8",
                "--roots",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "TEPS_harmonic_mean" in out
        assert "validated: True" in out

    def test_graph500_engine_choice(self, capsys):
        assert (
            main(
                [
                    "graph500",
                    "--scale",
                    "8",
                    "--roots",
                    "2",
                    "--engine",
                    "td",
                ]
            )
            == 0
        )
        assert "headline" in capsys.readouterr().out


class TestLintCommand:
    def test_parser_accepts_lint(self):
        args = build_parser().parse_args(["lint", "src", "--format", "json"])
        assert args.command == "lint"
        assert args.paths == ["src"]
        assert args.fmt == "json"

    def test_lint_package_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_lint_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR001" in out and "RPR006" in out

    def test_lint_flags_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("__all__ = []\nimport time\nt0 = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "RPR008" in captured.out
        assert "1 violation" in captured.err

    def test_lint_json_output(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("__all__ = []\nassert 1\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data[0]["rule"] == "RPR004"

    def test_lint_select_restricts_rules(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("assert 1\n")  # RPR004 + RPR006
        assert main(["lint", str(bad), "--select", "RPR006"]) == 1
        out = capsys.readouterr().out
        assert "RPR006" in out and "RPR004" not in out

    def test_lint_unknown_rule_is_usage_error(self, capsys, tmp_path):
        good = tmp_path / "ok.py"
        good.write_text("__all__ = []\n")
        assert main(["lint", str(good), "--select", "RPR999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestDeepLintAndDataflow:
    DEAD_STORE = (
        "import numpy as np\n"
        "__all__ = ['gather_step']\n"
        "def gather_step(workspace, frontier):\n"
        "    out = workspace.buffer('gathered', frontier.size, np.int64)\n"
        "    out[: frontier.size] = frontier\n"
        "    return int(frontier.size)\n"
    )

    def test_parser_accepts_deep_flag(self):
        args = build_parser().parse_args(["lint", "src", "--deep"])
        assert args.deep is True

    def test_lint_deep_package_clean(self, capsys):
        assert main(["lint", "--deep"]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_lint_rules_lists_deep_tag(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR010" in out and "[deep]" in out

    def test_lint_without_deep_skips_deep_rules(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.DEAD_STORE)
        assert main(["lint", str(bad)]) == 0
        assert main(["lint", str(bad), "--deep"]) == 1


class TestSanitizeCommand:
    def test_sanitize_clean_run(self, capsys):
        rc = main(
            ["sanitize", "--scale", "10", "--edgefactor", "8", "--m", "20",
             "--n", "100"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 invariant violations" in out
        assert "dimensionally consistent" in out

    def test_sanitize_engine_choices(self, capsys):
        for engine in ("td", "bu"):
            assert (
                main(
                    ["sanitize", "--scale", "9", "--edgefactor", "8",
                     "--engine", engine]
                )
                == 0
            )

    def test_sanitize_skip_units(self, capsys):
        rc = main(
            ["sanitize", "--scale", "9", "--edgefactor", "8", "--skip-units"]
        )
        assert rc == 0
        assert "dimensionally" not in capsys.readouterr().out


CHAIN = (
    "def _claim(rows, parent, depth):\n"
    "    parent[rows] = depth\n"
    "\n"
    "def level(frontier, parent, depth):\n"
    "    _claim(frontier, parent, depth)\n"
    "\n"
    "def outer(frontier, parent, depth):\n"
    "    level(frontier, parent, depth)\n"
)


class TestCallgraphCommand:
    def test_parser_accepts_callgraph(self):
        args = build_parser().parse_args(
            ["callgraph", "src", "--format", "dot", "--out", "cg.dot"]
        )
        assert args.command == "callgraph"
        assert args.fmt == "dot"
        assert args.out == "cg.dot"

    def test_stats_output(self, capsys, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(CHAIN, encoding="utf-8")
        assert main(["callgraph", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "whole-program call graph" in out
        assert "functions: 3" in out

    def test_dot_export_to_file(self, capsys, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(CHAIN, encoding="utf-8")
        out_file = tmp_path / "cg.dot"
        assert main(
            ["callgraph", str(tmp_path), "--format", "dot",
             "--out", str(out_file)]
        ) == 0
        dot = out_file.read_text(encoding="utf-8")
        assert dot.startswith("digraph callgraph {")
        assert '"m.outer" -> "m.level"' in dot

    def test_json_with_summaries(self, capsys, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(CHAIN, encoding="utf-8")
        assert main(
            ["callgraph", str(mod), "--format", "json", "--summaries"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis.callgraph/1"
        assert "parent" in payload["summaries"]["m.outer"]["writes"]

    def test_who_writes(self, capsys, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(CHAIN, encoding="utf-8")
        assert main(["callgraph", str(mod), "--who-writes", "parent"]) == 0
        out = capsys.readouterr().out
        assert "m.outer" in out and "m._claim" in out

    def test_who_calls_unknown_function_is_an_error(self, capsys, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(CHAIN, encoding="utf-8")
        assert main(["callgraph", str(mod), "--who-calls", "m.nope"]) == 2

    def test_write_baseline(self, capsys, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(CHAIN, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(
            ["callgraph", str(mod), "--write-baseline", str(baseline)]
        ) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["schema"] == (
            "repro.analysis.wholeprogram_baseline/1"
        )
        assert payload["program_rules"] == ["RPR015", "RPR019"]

    def test_no_inputs_is_an_error(self, capsys, tmp_path):
        assert main(["callgraph", str(tmp_path)]) == 2
        assert "callgraph error" in capsys.readouterr().err

    def test_parser_accepts_lint_changed(self):
        args = build_parser().parse_args(["lint", "--changed", "src"])
        assert args.changed is True
