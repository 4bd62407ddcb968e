"""The ``repro-bfs monitor`` subcommands and the history-aware
``--json`` outputs of ``bfs``/``graph500``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph500 import HybridEngine
from repro.obs.history import HistoryStore, RunRecord


def _seed_history(path, teps_series, *, audit_slowdown=None):
    """A synthetic graph500 trajectory at a fixed workload."""
    store = HistoryStore(path)
    for teps in teps_series:
        audit = (
            None
            if audit_slowdown is None
            else {"slowdown": audit_slowdown, "arch": "cpu-snb"}
        )
        store.append(
            RunRecord(
                kind="graph500",
                workload="rmat-s10-ef16-r4",
                teps=teps,
                audit=audit,
            )
        )
    return store


class TestParser:
    def test_monitor_defaults(self):
        args = build_parser().parse_args(["monitor", "check"])
        assert args.command == "monitor"
        assert args.monitor_command == "check"
        assert str(args.history).endswith("runs.jsonl")
        assert args.window == 8 and args.min_samples == 3

    def test_record_defaults(self):
        args = build_parser().parse_args(["monitor", "record"])
        assert args.scale == 10 and args.roots == 8
        assert args.m == 20.0 and args.n == 100.0


class TestMonitorCheck:
    def test_clean_trajectory_passes(self, capsys, tmp_path):
        hist = tmp_path / "runs.jsonl"
        _seed_history(hist, [1e8, 1.02e8, 0.99e8, 1.01e8])
        rc = main(["monitor", "check", "--history", str(hist)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_2x_slowdown_fails_with_named_metric(
        self, capsys, tmp_path
    ):
        hist = tmp_path / "runs.jsonl"
        _seed_history(hist, [1e8, 1.02e8, 0.99e8, 1.01e8, 0.45e8])
        rc = main(["monitor", "check", "--history", str(hist)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "run.teps" in out  # the named metric
        assert "FAIL" in out

    def test_json_output(self, capsys, tmp_path):
        hist = tmp_path / "runs.jsonl"
        _seed_history(hist, [1e8, 1e8, 1e8, 0.4e8])
        rc = main(["monitor", "check", "--history", str(hist), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["ok"] is False
        assert payload["findings"][0]["metric"] == "run.teps"

    def test_empty_history_is_a_usage_error(self, capsys, tmp_path):
        rc = main(
            ["monitor", "check", "--history", str(tmp_path / "none.jsonl")]
        )
        assert rc == 2

    def test_short_series_passes_with_skips(self, capsys, tmp_path):
        hist = tmp_path / "runs.jsonl"
        _seed_history(hist, [1e8, 0.1e8])  # drop, but only 1 baseline run
        rc = main(["monitor", "check", "--history", str(hist)])
        assert rc == 0
        assert "skipped" in capsys.readouterr().out


class TestMonitorReportAndDrift:
    def test_report_lists_trajectory(self, capsys, tmp_path):
        hist = tmp_path / "runs.jsonl"
        _seed_history(hist, [1e8, 2e8], audit_slowdown=1.1)
        rc = main(["monitor", "report", "--history", str(hist)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "rmat-s10-ef16-r4" in out
        assert "1.100x" in out

    def test_report_json(self, capsys, tmp_path):
        hist = tmp_path / "runs.jsonl"
        _seed_history(hist, [1e8])
        rc = main(["monitor", "report", "--history", str(hist), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kind"] == "graph500"

    def test_report_rejects_negative_tail(self, capsys, tmp_path):
        hist = tmp_path / "runs.jsonl"
        _seed_history(hist, [1e8, 2e8, 3e8])
        rc = main(
            ["monitor", "report", "--history", str(hist), "--tail", "-2"]
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-bfs: HistoryError: tail needs n >= 0")
        assert err.count("\n") == 1

    def test_monitor_without_subcommand_errors(self, capsys):
        assert main(["monitor"]) == 2


class TestRecordedRunsEndToEnd:
    def test_bfs_json_carries_metrics_audit_and_history(
        self, capsys, tmp_path
    ):
        hist = tmp_path / "runs.jsonl"
        rc = main(
            [
                "bfs", "--scale", "10", "--engine", "hybrid",
                "--m", "20", "--n", "100", "--json",
                "--history", str(hist),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # the --json schema and the history entry share one shape
        assert payload["metrics"]["bfs.levels"]["type"] == "counter"
        assert payload["audit"]["slowdown"] >= 1.0
        records = HistoryStore(hist).read()
        assert len(records) == 1
        assert records[0].kind == "bfs"
        assert records[0].metrics == payload["metrics"]
        assert records[0].audit == payload["audit"]

    def test_graph500_json_carries_metrics_and_audit(self, capsys):
        rc = main(
            ["graph500", "--scale", "10", "--roots", "2", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "teps" in payload["metrics"]
        assert payload["audit"]["slowdown"] >= 1.0

    def test_bfs_and_graph500_report_the_same_audit(self, capsys):
        """At the hybrid engine's (M, N), graph500 audits the graph and
        source that bfs traverses, so both print one verdict."""
        engine = HybridEngine()
        audits = []
        for argv in (
            [
                "bfs", "--scale", "10", "--json",
                "--m", str(engine.m), "--n", str(engine.n),
            ],
            ["graph500", "--scale", "10", "--roots", "2", "--json"],
        ):
            assert main(argv) == 0
            audits.append(json.loads(capsys.readouterr().out)["audit"])
        assert audits[0] is not None
        assert audits[0] == audits[1]

    def test_monitor_record_then_check(self, capsys, tmp_path):
        hist = tmp_path / "runs.jsonl"
        for _ in range(2):
            rc = main(
                [
                    "monitor", "record", "--scale", "10", "--roots", "2",
                    "--history", str(hist),
                ]
            )
            assert rc == 0
        records = HistoryStore(hist).read()
        assert len(records) == 2
        assert records[0].teps is not None
        assert records[0].audit is not None
        assert records[0].environment["python"]
        # two runs -> below min_samples, so the gate passes with skips
        rc = main(["monitor", "check", "--history", str(hist)])
        assert rc == 0

