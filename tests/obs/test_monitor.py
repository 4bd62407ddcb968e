"""Regression detector on synthetic series.

The synthetic histories isolate each statistical behaviour: a stable
noisy series must pass, an injected 2x slowdown must fail with the
metric named, a constant baseline (MAD = 0) must still gate on the
relative threshold, and short series must be skipped — never failed.
"""

import math

import pytest

from repro.errors import MonitorError
from repro.obs.history import RunRecord
from repro.obs.monitor import (
    DEFAULT_POLICIES,
    MetricPolicy,
    detect_regressions,
    flatten_metrics,
)


def _run(teps, *, workload="rmat-s10", levels=25.0, audit=None):
    return RunRecord(
        kind="graph500",
        workload=workload,
        metrics={"bfs.levels": {"type": "counter", "value": levels}},
        teps=teps,
        audit=audit,
    )


class TestFlattenMetrics:
    def test_counter_gauge_histogram_teps_audit(self):
        rec = RunRecord(
            kind="bfs",
            workload="w",
            metrics={
                "bfs.levels": {"type": "counter", "value": 7.0},
                "frontier.size": {"type": "gauge", "value": 3.0},
                "teps": {
                    "type": "histogram",
                    "count": 4,
                    "sum": 10.0,
                    "mean": 2.5,
                    "p50": 2.0,
                    "p90": 3.7,
                    "p99": 3.97,
                },
                "empty": {"type": "histogram", "count": 0},
            },
            teps=9.0,
            audit={"slowdown": 1.5},
        )
        flat = flatten_metrics(rec)
        assert flat["bfs.levels"] == 7.0
        assert flat["frontier.size"] == 3.0
        assert flat["teps.p50"] == 2.0
        assert flat["teps.count"] == 4.0
        assert flat["run.teps"] == 9.0
        assert flat["audit.slowdown"] == 1.5
        assert not any(k.startswith("empty") for k in flat)


class TestDetectRegressions:
    def test_stable_noisy_series_passes(self):
        records = [_run(1e8 * (1 + 0.02 * (i % 3 - 1))) for i in range(8)]
        report = detect_regressions(records)
        assert report.ok
        assert report.exit_code == 0
        assert any(c["metric"] == "run.teps" for c in report.checked)

    def test_injected_2x_slowdown_fails_and_names_metric(self):
        records = [_run(1e8 * (1 + 0.02 * (i % 3 - 1))) for i in range(7)]
        records.append(_run(0.45e8))  # the injected >2x slowdown
        report = detect_regressions(records)
        assert not report.ok
        assert report.exit_code == 1
        assert [f.metric for f in report.findings] == ["run.teps"]
        finding = report.findings[0]
        assert finding.degradation > 0.49
        assert "run.teps" in report.render()
        assert report.as_dict()["findings"][0]["metric"] == "run.teps"

    def test_mad_zero_baseline_still_gates_on_threshold(self):
        # Perfectly constant baseline: MAD = 0 makes any deviation
        # infinitely surprising; the relative threshold decides alone.
        records = [_run(1e8) for _ in range(6)] + [_run(0.4e8)]
        report = detect_regressions(records)
        assert not report.ok
        assert math.isinf(report.findings[0].score)
        # ... and a tiny wiggle on a constant baseline is NOT flagged.
        records = [_run(1e8) for _ in range(6)] + [_run(0.99e8)]
        assert detect_regressions(records).ok

    def test_min_samples_guard_skips_short_series(self):
        records = [_run(1e8), _run(0.1e8)]  # huge drop, 1 baseline run
        report = detect_regressions(records, min_samples=3)
        assert report.ok
        assert any(
            s["metric"] == "run.teps" and "need 3" in s["reason"]
            for s in report.skipped
        )

    def test_lower_is_better_direction(self):
        policies = {
            "audit.slowdown": MetricPolicy(higher_is_better=False, threshold=0.25)
        }
        base = [
            _run(None, audit={"slowdown": 1.0 + 0.01 * (i % 2)})
            for i in range(6)
        ]
        good = detect_regressions(
            base + [_run(None, audit={"slowdown": 1.02})], policies=policies
        )
        assert good.ok
        bad = detect_regressions(
            base + [_run(None, audit={"slowdown": 2.0})], policies=policies
        )
        assert [f.metric for f in bad.findings] == ["audit.slowdown"]

    def test_series_isolated_by_workload(self):
        # A scale-10 smoke run must not be judged against scale-15 data.
        records = [_run(1e8, workload="rmat-s15") for _ in range(6)]
        records.append(_run(1e4, workload="rmat-s10"))
        report = detect_regressions(records)  # newest series: rmat-s10
        assert report.workload == "rmat-s10"
        assert report.ok  # no baseline in its own series yet
        assert report.baseline_runs == 0

    def test_window_bounds_baseline(self):
        records = [_run(1e4) for _ in range(20)] + [_run(1e8) for _ in range(9)]
        report = detect_regressions(records, window=8)
        # All 8 baseline runs come from the fast regime; no regression.
        assert report.baseline_runs == 8
        assert report.ok

    def test_unpoliced_metrics_ignored(self):
        records = [
            RunRecord(kind="bfs", workload="w",
                      metrics={"exotic.thing": {"type": "gauge", "value": v}})
            for v in (1.0, 1.0, 1.0, 1.0, 100.0)
        ]
        assert detect_regressions(records).ok

    def test_empty_history_raises(self):
        with pytest.raises(MonitorError):
            detect_regressions([])

    def test_unknown_series_raises(self):
        with pytest.raises(MonitorError, match="no records"):
            detect_regressions([_run(1.0)], kind="bench.kernels", workload="x")

    def test_parameter_validation(self):
        with pytest.raises(MonitorError):
            detect_regressions([_run(1.0)], window=0)
        with pytest.raises(MonitorError):
            detect_regressions([_run(1.0)], min_samples=1)
        with pytest.raises(MonitorError):
            MetricPolicy(higher_is_better=True, threshold=0.0)

    def test_default_policies_cover_the_emitted_names(self):
        for name in ("run.teps", "audit.slowdown", "bfs.edges_examined"):
            assert name in DEFAULT_POLICIES
