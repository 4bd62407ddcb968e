"""The ``repro-bfs profile`` subcommand."""

import json
import tracemalloc

import pytest

import repro.bfs.timing
import repro.obs.profile
from repro.bench.metrics import gteps
from repro.cli import build_parser, main
from repro.graph import rmat
from repro.obs import validate_chrome_trace


class TestParser:
    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.command == "profile"
        assert args.scale == 12
        assert args.engine == "hybrid"
        assert args.repeat == 5


class TestProfileCommand:
    def test_json_run_writes_validated_artifacts(self, capsys, tmp_path):
        rc = main(
            [
                "profile",
                "--scale", "8",
                "--repeat", "2",
                "--out", str(tmp_path),
                "--history", str(tmp_path / "runs.jsonl"),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale"] == 8
        assert payload["engine"] == "hybrid"
        assert payload["profile"]["alloc"]["windows"] > 0
        assert payload["explain"]["levels"]
        # per-level measured totals equal the level sum exactly
        assert payload["explain"]["measured_total_s"] == pytest.approx(
            sum(lv["measured_s"] for lv in payload["explain"]["levels"])
        )
        trace = tmp_path / "profile-s8-hybrid.trace.json"
        assert payload["artifacts"] == {"trace": str(trace)}
        assert validate_chrome_trace(trace) == payload["trace_events"]
        history = (tmp_path / "runs.jsonl").read_text().splitlines()
        assert len(history) == 1
        record = json.loads(history[0])
        assert record["kind"] == "profile"
        assert "explain" in record["meta"]

    def test_explain_and_teps_time_an_unwindowed_run(
        self, capsys, tmp_path, monkeypatch
    ):
        """The allocation windows run gc and tracemalloc snapshots inside
        every level span, so the run the explain report, GTEPS and the
        history record describe must be timed with tracemalloc off."""
        timed_bfs = repro.bfs.timing.timed_bfs
        explain_traversal = repro.obs.profile.explain_traversal
        calls = []
        explained = []

        def spy_timed_bfs(*args, **kwargs):
            run = timed_bfs(*args, **kwargs)
            calls.append((run, tracemalloc.is_tracing()))
            return run

        def spy_explain(run, *args, **kwargs):
            explained.append(run)
            return explain_traversal(run, *args, **kwargs)

        monkeypatch.setattr(repro.bfs.timing, "timed_bfs", spy_timed_bfs)
        monkeypatch.setattr(repro.obs.profile, "explain_traversal", spy_explain)
        rc = main(
            [
                "profile",
                "--scale", "8",
                "--repeat", "2",
                "--out", str(tmp_path),
                "--history", str(tmp_path / "runs.jsonl"),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        (run,) = explained
        assert [tracing for r, tracing in calls if r is run] == [False]
        # warm-up, two windowed runs, the timed run
        assert [tracing for _, tracing in calls] == [False, True, True, False]
        assert payload["explain"]["measured_total_s"] == run.total_seconds
        traversed = run.result.traversed_edges(rmat(8, 16, seed=0))
        assert payload["gteps"] == gteps(traversed, run.total_seconds)
        record = json.loads((tmp_path / "runs.jsonl").read_text())
        assert record["teps"] == traversed / run.total_seconds
        # the windowed runs leave no timing in the record's metrics
        assert record["metrics"]["teps"]["count"] == 1

    def test_history_record_carries_one_teps(self, capsys, tmp_path):
        """The record's ``teps`` and its ``teps`` histogram (gated as
        ``run.teps`` and ``teps.p50``) are the same Graph 500 figure."""
        rc = main(
            [
                "profile",
                "--scale", "8",
                "--repeat", "1",
                "--out", str(tmp_path),
                "--history", str(tmp_path / "runs.jsonl"),
                "--json",
            ]
        )
        assert rc == 0
        record = json.loads((tmp_path / "runs.jsonl").read_text())
        assert record["teps"] == record["metrics"]["teps"]["p50"]

    def test_warm_kernels_report_clean(self, capsys, tmp_path):
        """PR 2's claim, adjudicated on a real run: the warm workspace
        allocates nothing graph-sized inside level kernels."""
        rc = main(
            [
                "profile",
                "--scale", "9",
                "--repeat", "2",
                "--out", str(tmp_path),
                "--history", str(tmp_path / "runs.jsonl"),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["alloc"]["clean"] is True

    def test_text_output_renders_report(self, capsys, tmp_path):
        rc = main(
            [
                "profile",
                "--scale", "8",
                "--repeat", "1",
                "--out", str(tmp_path),
                "--history", str(tmp_path / "runs.jsonl"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "explain report" in out
        assert "alloc:" in out

    def test_rejects_bad_repeat(self, capsys, tmp_path):
        rc = main(
            [
                "profile",
                "--scale", "8",
                "--repeat", "0",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
