"""Statistical regression gate over the run history.

:func:`detect_regressions` compares the latest run of a
``(kind, workload)`` series in the :mod:`repro.obs.history` trajectory
against a rolling baseline window using **median + MAD**: a metric
regresses only when it both degrades past its policy's relative
threshold *and* sits ``nsigma`` robust standard deviations away from
the baseline median (with a MAD ≈ 0 fallback so a perfectly flat
baseline still gates on the threshold alone).  The result is a
structured :class:`RegressionReport` with text and JSON renderers and a
CI-ready pass/fail verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import MonitorError
from repro.obs.history import RunRecord

__all__ = [
    "MetricPolicy",
    "DEFAULT_POLICIES",
    "flatten_metrics",
    "RegressionFinding",
    "RegressionReport",
    "detect_regressions",
]

#: Consistency constant turning a median absolute deviation into a
#: robust standard-deviation estimate for normal data.
MAD_SIGMA = 1.4826


@dataclass(frozen=True)
class MetricPolicy:
    """How one flattened metric series is judged.

    ``threshold`` is the relative degradation that fails the gate
    (0.5 = latest may not be 50% worse than the baseline median);
    ``nsigma`` additionally requires the latest point to be a robust
    outlier, so noisy-but-stable series don't flap.  A per-metric
    ``min_samples`` overrides the detector-wide guard.
    """

    higher_is_better: bool
    threshold: float
    nsigma: float = 3.0
    min_samples: int | None = None

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise MonitorError(
                f"threshold must be > 0, got {self.threshold}"
            )
        if self.nsigma < 0:
            raise MonitorError(f"nsigma must be >= 0, got {self.nsigma}")
        if self.min_samples is not None and self.min_samples < 2:
            raise MonitorError(
                f"min_samples must be >= 2, got {self.min_samples}"
            )


#: The metrics the repository's own trajectory is gated on.  Wall-clock
#: series get lenient thresholds (cross-machine noise is real); the
#: deterministic counters get tight ones — at fixed workload and seed
#: they only move when the algorithm changes.
DEFAULT_POLICIES: dict[str, MetricPolicy] = {
    # throughput (higher is better): fail on a 2x slowdown
    "run.teps": MetricPolicy(higher_is_better=True, threshold=0.5),
    "teps.p50": MetricPolicy(higher_is_better=True, threshold=0.5),
    "teps.mean": MetricPolicy(higher_is_better=True, threshold=0.5),
    # wall-clock seconds (lower is better): fail on a 2x slowdown
    "graph500.bfs_seconds.p50": MetricPolicy(
        higher_is_better=False, threshold=1.0
    ),
    # committed kernel speedups vs the frozen legacy baselines
    "bench.claim_speedup": MetricPolicy(higher_is_better=True, threshold=0.3),
    "bench.hybrid_speedup": MetricPolicy(higher_is_better=True, threshold=0.3),
    # simulated mistuning cost: going from ~1.0x to >1.25x is drift
    "audit.slowdown": MetricPolicy(higher_is_better=False, threshold=0.25),
    # deterministic per-workload counters: any real movement is a change
    "bfs.edges_examined": MetricPolicy(
        higher_is_better=False, threshold=0.1
    ),
    "bfs.levels": MetricPolicy(higher_is_better=False, threshold=0.25),
    "frontier.claim_ratio.p50": MetricPolicy(
        higher_is_better=True, threshold=0.5
    ),
}


def flatten_metrics(record: RunRecord) -> dict[str, float]:
    """One flat ``{series_name: value}`` view of a record.

    Counters/gauges map to their value; histograms contribute
    ``<name>.p50/.p90/.p99/.mean/.count``; the record-level ``teps``
    lands as ``run.teps`` and the audit verdict as ``audit.slowdown``.
    """
    out: dict[str, float] = {}
    for name, snap in record.metrics.items():
        if not isinstance(snap, dict):
            continue
        kind = snap.get("type")
        value = snap.get("value")
        if kind in ("counter", "gauge"):
            if isinstance(value, (int, float)):
                out[name] = float(value)
        elif kind == "histogram" and snap.get("count", 0):
            for stat in ("p50", "p90", "p99", "mean"):
                if isinstance(snap.get(stat), (int, float)):
                    out[f"{name}.{stat}"] = float(snap[stat])
            out[f"{name}.count"] = float(snap["count"])
    if record.teps is not None:
        out["run.teps"] = float(record.teps)
    if isinstance(record.audit, dict):
        slowdown = record.audit.get("slowdown")
        if isinstance(slowdown, (int, float)):
            out["audit.slowdown"] = float(slowdown)
    return out


@dataclass(frozen=True)
class RegressionFinding:
    """One metric that failed its gate."""

    metric: str
    latest: float
    baseline_median: float
    baseline_mad: float
    baseline_runs: int
    degradation: float
    score: float
    threshold: float
    higher_is_better: bool

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "metric": self.metric,
            "latest": self.latest,
            "baseline_median": self.baseline_median,
            "baseline_mad": self.baseline_mad,
            "baseline_runs": self.baseline_runs,
            "degradation": self.degradation,
            "score": None if math.isinf(self.score) else self.score,
            "threshold": self.threshold,
            "higher_is_better": self.higher_is_better,
        }

    def render(self) -> str:
        """One human-readable line."""
        direction = "down" if self.higher_is_better else "up"
        score = "inf" if math.isinf(self.score) else f"{self.score:.1f}"
        return (
            f"{self.metric}: {self.latest:.6g} vs median "
            f"{self.baseline_median:.6g} over {self.baseline_runs} runs "
            f"({direction} {self.degradation:.0%}, limit "
            f"{self.threshold:.0%}, {score} MAD-sigmas)"
        )


@dataclass
class RegressionReport:
    """The verdict of one :func:`detect_regressions` call."""

    kind: str
    workload: str
    latest_timestamp: str
    window: int
    min_samples: int
    baseline_runs: int
    findings: list[RegressionFinding] = field(default_factory=list)
    checked: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no metric regressed."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        """CI convention: 0 clean, 1 regressed."""
        return 0 if self.ok else 1

    def as_dict(self) -> dict:
        """JSON-ready representation (the CI artifact payload)."""
        return {
            "kind": self.kind,
            "workload": self.workload,
            "latest_timestamp": self.latest_timestamp,
            "window": self.window,
            "min_samples": self.min_samples,
            "baseline_runs": self.baseline_runs,
            "ok": self.ok,
            "findings": [f.as_dict() for f in self.findings],
            "checked": self.checked,
            "skipped": self.skipped,
        }

    def to_json(self) -> str:
        """The JSON renderer."""
        return json.dumps(self.as_dict(), indent=2)

    def render(self) -> str:
        """The text renderer (the CI log block)."""
        head = (
            f"regression check: {self.kind}/{self.workload} "
            f"(latest {self.latest_timestamp or 'unknown'}, baseline "
            f"{self.baseline_runs} run(s), window {self.window})"
        )
        lines = [head]
        for f in self.findings:
            lines.append(f"  REGRESSED  {f.render()}")
        for c in self.checked:
            if not c["regressed"]:
                lines.append(
                    f"  ok         {c['metric']}: {c['latest']:.6g} "
                    f"vs median {c['baseline_median']:.6g}"
                )
        for s in self.skipped:
            lines.append(f"  skipped    {s['metric']}: {s['reason']}")
        verdict = "PASS" if self.ok else f"FAIL ({len(self.findings)} metric(s))"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def _judge(
    latest: float, baseline: Sequence[float], policy: MetricPolicy
) -> tuple[float, float, bool]:
    """``(degradation, score, regressed)`` for one metric series."""
    arr = np.asarray(baseline, dtype=np.float64)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    if abs(med) < 1e-300:
        # A zero baseline has no meaningful relative degradation; any
        # nonzero latest value on a lower-is-better series is suspect,
        # but without a scale we cannot grade it — treat as clean.
        return 0.0, 0.0, False
    if policy.higher_is_better:
        degradation = (med - latest) / abs(med)
    else:
        degradation = (latest - med) / abs(med)
    robust_sigma = MAD_SIGMA * mad
    if robust_sigma <= 1e-12 * max(1.0, abs(med)):
        # MAD ~ 0: the baseline is (near-)constant, so *any* deviation
        # is infinitely surprising — the verdict rests on the relative
        # threshold alone.
        score = 0.0 if latest == med else math.inf
    else:
        score = abs(latest - med) / robust_sigma
    regressed = degradation > policy.threshold and score >= policy.nsigma
    return float(degradation), float(score), bool(regressed)


def detect_regressions(
    records: Sequence[RunRecord],
    *,
    window: int = 8,
    min_samples: int = 3,
    policies: dict[str, MetricPolicy] | None = None,
    kind: str | None = None,
    workload: str | None = None,
) -> RegressionReport:
    """Gate the newest run of a series against its rolling baseline.

    ``records`` is the full history (oldest first, e.g.
    ``HistoryStore.read()``); the series to judge defaults to the
    ``(kind, workload)`` of the newest record.  Only metrics with a
    policy (``policies`` defaults to :data:`DEFAULT_POLICIES`) are
    gated; series with fewer than ``min_samples`` baseline points are
    reported as skipped, never failed — a fresh trajectory cannot
    regress.
    """
    if window < 1:
        raise MonitorError(f"window must be >= 1, got {window}")
    if min_samples < 2:
        raise MonitorError(f"min_samples must be >= 2, got {min_samples}")
    if not records:
        raise MonitorError("cannot check an empty history")
    policies = DEFAULT_POLICIES if policies is None else policies
    if kind is None or workload is None:
        kind, workload = records[-1].series_key
    series = [r for r in records if r.series_key == (kind, workload)]
    if not series:
        raise MonitorError(
            f"no records for kind={kind!r} workload={workload!r}"
        )
    latest = series[-1]
    baseline_records = series[max(0, len(series) - 1 - window):-1]
    report = RegressionReport(
        kind=kind,
        workload=workload,
        latest_timestamp=latest.timestamp,
        window=window,
        min_samples=min_samples,
        baseline_runs=len(baseline_records),
    )
    latest_values = flatten_metrics(latest)
    baseline_values = [flatten_metrics(r) for r in baseline_records]
    for metric in sorted(latest_values):
        policy = policies.get(metric)
        if policy is None:
            continue
        needed = policy.min_samples or min_samples
        samples = [
            vals[metric] for vals in baseline_values if metric in vals
        ]
        if len(samples) < needed:
            report.skipped.append(
                {
                    "metric": metric,
                    "reason": (
                        f"only {len(samples)} baseline sample(s), "
                        f"need {needed}"
                    ),
                }
            )
            continue
        degradation, score, regressed = _judge(
            latest_values[metric], samples, policy
        )
        med = float(np.median(np.asarray(samples, dtype=np.float64)))
        mad = float(
            np.median(np.abs(np.asarray(samples, dtype=np.float64) - med))
        )
        report.checked.append(
            {
                "metric": metric,
                "latest": latest_values[metric],
                "baseline_median": med,
                "baseline_mad": mad,
                "degradation": degradation,
                "score": None if math.isinf(score) else score,
                "regressed": regressed,
            }
        )
        if regressed:
            report.findings.append(
                RegressionFinding(
                    metric=metric,
                    latest=latest_values[metric],
                    baseline_median=med,
                    baseline_mad=mad,
                    baseline_runs=len(samples),
                    degradation=degradation,
                    score=score,
                    threshold=policy.threshold,
                    higher_is_better=policy.higher_is_better,
                )
            )
    return report
