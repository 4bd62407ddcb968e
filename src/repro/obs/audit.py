"""Decision audit: predicted switching points vs post-hoc optimal ones.

The paper's headline failure mode is a mistuned ``(M, N)``: the same
hybrid engine that beats both pure directions by integer factors turns
into a slowdown when its switching point is wrong (Fig. 8's worst case
is ~695× off best).  This module makes that signal *live*: given the
:class:`~repro.bfs.trace.LevelProfile` a traversal just produced and the
policy's chosen parameters, it prices the chosen plan and the post-hoc
best plan on the same cost model and emits a
:class:`MistuningReport` — predicted M vs best M, simulated cost of
each, and the per-level direction choices that differ.

Everything is priced through
:func:`~repro.tuning.search.evaluate_single` /
:func:`~repro.tuning.search.evaluate_cross`, so an audit costs
milliseconds (the offline/online asymmetry of Section III-E) and can run
after every traversal in production.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.costmodel import CostModel
from repro.arch.machine import SimulatedMachine
from repro.bfs.trace import LevelProfile
from repro.errors import ObsError
from repro.hetero.planner import cross_plan, mn_directions, oracle_plan
from repro.obs.tracer import Tracer, get_tracer
from repro.tuning.search import (
    candidate_cross_grid,
    candidate_mn_grid,
    evaluate_cross,
    evaluate_single,
)

__all__ = [
    "MistuningReport",
    "CrossMistuningReport",
    "audit_switching_point",
    "audit_cross_architecture",
]


@dataclass(frozen=True)
class MistuningReport:
    """Predicted vs post-hoc-best switching point for one traversal."""

    source: int
    predicted_m: float
    predicted_n: float
    best_m: float
    best_n: float
    predicted_seconds: float
    best_seconds: float
    predicted_directions: tuple[str, ...]
    best_directions: tuple[str, ...]
    candidates_searched: int
    meta: dict = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """Chosen plan's cost relative to the best plan (1.0 = optimal)."""
        if self.best_seconds <= 0:
            raise ObsError("best plan has non-positive simulated cost")
        return self.predicted_seconds / self.best_seconds

    @property
    def levels_mistuned(self) -> int:
        """Levels where the chosen direction differs from the best plan's."""
        return sum(
            1
            for a, b in zip(self.predicted_directions, self.best_directions)
            if a != b
        )

    def is_mistuned(self, tolerance: float = 1.05) -> bool:
        """True when the chosen plan costs more than ``tolerance`` ×
        the best plan's simulated seconds."""
        if tolerance < 1.0:
            raise ObsError(f"tolerance must be >= 1.0, got {tolerance}")
        return self.slowdown > tolerance

    def as_dict(self) -> dict:
        """JSON-ready representation (saved with bench results)."""
        return {
            "source": self.source,
            "predicted_m": self.predicted_m,
            "predicted_n": self.predicted_n,
            "best_m": self.best_m,
            "best_n": self.best_n,
            "predicted_seconds": self.predicted_seconds,
            "best_seconds": self.best_seconds,
            "slowdown": self.slowdown,
            "levels_mistuned": self.levels_mistuned,
            "predicted_directions": list(self.predicted_directions),
            "best_directions": list(self.best_directions),
            "candidates_searched": self.candidates_searched,
            "meta": self.meta,
        }

    def render(self) -> str:
        """Human-readable mistuning report (the CLI summary block)."""
        lines = [
            f"mistuning report (source {self.source}, "
            f"{self.candidates_searched} candidates)",
            f"  predicted (M, N) = ({self.predicted_m:.3g}, "
            f"{self.predicted_n:.3g})  ->  {self.predicted_seconds:.6f} s (simulated)",
            f"  best      (M, N) = ({self.best_m:.3g}, "
            f"{self.best_n:.3g})  ->  {self.best_seconds:.6f} s (simulated)",
            f"  slowdown vs best: {self.slowdown:.3f}x   "
            f"mistuned levels: {self.levels_mistuned}/{len(self.predicted_directions)}",
        ]
        marks = []
        for lvl, (a, b) in enumerate(
            zip(self.predicted_directions, self.best_directions)
        ):
            flag = " " if a == b else "!"
            marks.append(f"    level {lvl:>2}: chose {a:<9} best {b:<9} {flag}")
        lines.extend(marks)
        verdict = "MISTUNED" if self.is_mistuned() else "well-tuned"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CrossMistuningReport:
    """Predicted vs best (M1, N1, M2, N2) for an Algorithm-3 traversal."""

    source: int
    predicted: tuple[float, float, float, float]
    best: tuple[float, float, float, float]
    predicted_seconds: float
    best_seconds: float
    oracle_seconds: float
    candidates_searched: int

    @property
    def slowdown(self) -> float:
        """Chosen plan's cost relative to the best candidate."""
        if self.best_seconds <= 0:
            raise ObsError("best plan has non-positive simulated cost")
        return self.predicted_seconds / self.best_seconds

    def is_mistuned(self, tolerance: float = 1.05) -> bool:
        """True when the chosen plan exceeds ``tolerance`` × best."""
        if tolerance < 1.0:
            raise ObsError(f"tolerance must be >= 1.0, got {tolerance}")
        return self.slowdown > tolerance

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "source": self.source,
            "predicted": list(self.predicted),
            "best": list(self.best),
            "predicted_seconds": self.predicted_seconds,
            "best_seconds": self.best_seconds,
            "oracle_seconds": self.oracle_seconds,
            "slowdown": self.slowdown,
            "candidates_searched": self.candidates_searched,
        }

    def render(self) -> str:
        """Human-readable cross-architecture mistuning report."""
        p = ", ".join(f"{v:.3g}" for v in self.predicted)
        b = ", ".join(f"{v:.3g}" for v in self.best)
        verdict = "MISTUNED" if self.is_mistuned() else "well-tuned"
        return "\n".join(
            [
                f"cross-architecture mistuning report (source {self.source}, "
                f"{self.candidates_searched} candidates)",
                f"  predicted (M1, N1, M2, N2) = ({p})  ->  "
                f"{self.predicted_seconds:.6f} s (simulated)",
                f"  best      (M1, N1, M2, N2) = ({b})  ->  "
                f"{self.best_seconds:.6f} s (simulated)",
                f"  oracle placement: {self.oracle_seconds:.6f} s (simulated)",
                f"  slowdown vs best: {self.slowdown:.3f}x   verdict: {verdict}",
            ]
        )


def _check_profile(profile: LevelProfile) -> None:
    if len(profile) == 0:
        raise ObsError("cannot audit an empty profile")


def audit_switching_point(
    profile: LevelProfile,
    model: CostModel,
    predicted_m: float,
    predicted_n: float,
    *,
    candidates: np.ndarray | None = None,
    count: int = 1000,
    seed: int = 0,
    tracer: Tracer | None = None,
    **meta,
) -> MistuningReport:
    """Audit a single-device hybrid's chosen ``(M, N)``.

    Prices the chosen point and a candidate sweep (log-uniform grid by
    default, the paper's 1,000 cases) over the measured ``profile``, and
    records an ``audit.switching_point`` instant event on the tracer.
    The chosen point is always included in the sweep, so
    ``predicted_seconds >= best_seconds`` holds by construction.
    """
    _check_profile(profile)
    if not (predicted_m > 0 and predicted_n > 0):
        raise ObsError(
            f"M and N must be positive, got ({predicted_m}, {predicted_n})"
        )
    tr = tracer if tracer is not None else get_tracer()
    if candidates is None:
        candidates = candidate_mn_grid(count, seed=seed)
    candidates = np.vstack(
        [np.atleast_2d(candidates), [[predicted_m, predicted_n]]]
    )
    seconds = evaluate_single(profile, model, candidates)
    best = int(np.argmin(seconds))
    best_m, best_n = (float(v) for v in candidates[best])
    report = MistuningReport(
        source=profile.source,
        predicted_m=float(predicted_m),
        predicted_n=float(predicted_n),
        best_m=best_m,
        best_n=best_n,
        predicted_seconds=float(seconds[-1]),
        best_seconds=float(seconds[best]),
        predicted_directions=tuple(
            mn_directions(profile, predicted_m, predicted_n)
        ),
        best_directions=tuple(mn_directions(profile, best_m, best_n)),
        candidates_searched=int(candidates.shape[0]),
        meta=dict(meta),
    )
    tr.instant(
        "audit.switching_point",
        predicted_m=report.predicted_m,
        best_m=report.best_m,
        slowdown=report.slowdown,
        levels_mistuned=report.levels_mistuned,
    )
    return report


def audit_cross_architecture(
    profile: LevelProfile,
    machine: SimulatedMachine,
    predicted: tuple[float, float, float, float],
    *,
    candidates: np.ndarray | None = None,
    count: int = 200,
    seed: int = 0,
    cpu: str = "cpu",
    gpu: str = "gpu",
    tracer: Tracer | None = None,
) -> CrossMistuningReport:
    """Audit an Algorithm-3 traversal's chosen ``(M1, N1, M2, N2)``.

    The default candidate count is smaller than the single-device
    audit's because cross pricing is a Python loop over plans, not a
    vectorized matrix reduction.  Also prices the
    :func:`~repro.hetero.planner.oracle_plan` as the placement upper
    bound.
    """
    _check_profile(profile)
    predicted = tuple(float(v) for v in predicted)
    if len(predicted) != 4 or not all(v > 0 for v in predicted):
        raise ObsError(
            f"predicted must be 4 positive values (M1, N1, M2, N2), "
            f"got {predicted}"
        )
    tr = tracer if tracer is not None else get_tracer()
    if candidates is None:
        candidates = candidate_cross_grid(count, seed=seed)
    candidates = np.vstack([np.atleast_2d(candidates), [list(predicted)]])
    seconds = evaluate_cross(profile, machine, candidates, cpu=cpu, gpu=gpu)
    best = int(np.argmin(seconds))
    oracle = machine.run(profile, oracle_plan(machine, profile))
    m1, n1, m2, n2 = predicted
    predicted_seconds = float(
        machine.run(
            profile, cross_plan(profile, m1, n1, m2, n2, cpu=cpu, gpu=gpu)
        ).total_seconds
    )
    report = CrossMistuningReport(
        source=profile.source,
        predicted=predicted,
        best=tuple(float(v) for v in candidates[best]),
        predicted_seconds=predicted_seconds,
        best_seconds=float(seconds[best]),
        oracle_seconds=float(oracle.total_seconds),
        candidates_searched=int(candidates.shape[0]),
    )
    tr.instant(
        "audit.cross_architecture",
        predicted=list(report.predicted),
        best=list(report.best),
        slowdown=report.slowdown,
    )
    return report
