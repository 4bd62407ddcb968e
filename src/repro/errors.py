"""Exception hierarchy for :mod:`repro`.

All exceptions raised by the library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing the failure domain from the subclass.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "ValidationError",
    "BFSError",
    "ArchError",
    "CalibrationError",
    "ModelError",
    "NotFittedError",
    "ConvergenceWarning",
    "TuningError",
    "PlanError",
    "BenchError",
    "AnalysisError",
    "LintError",
    "CallGraphError",
    "SanitizerError",
    "UnitsError",
    "ObsError",
    "ExportError",
    "HistoryError",
    "MonitorError",
    "ProfileError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for invalid graph construction or graph-level operations."""


class GraphFormatError(GraphError):
    """Raised when parsing or writing an on-disk graph representation fails."""


class ValidationError(ReproError):
    """Raised when a BFS output fails Graph 500-style validation.

    The message identifies which of the specification checks failed
    (tree structure, level consistency, edge coverage, connectivity).
    """


class BFSError(ReproError):
    """Raised for invalid BFS invocations (bad source, mismatched maps)."""


class ArchError(ReproError):
    """Raised for invalid architecture specifications or cost-model inputs."""


class CalibrationError(ArchError):
    """Raised when cost-model calibration cannot meet its tolerance."""


class ModelError(ReproError):
    """Raised for invalid machine-learning model configuration or inputs."""


class NotFittedError(ModelError):
    """Raised when prediction is attempted on an unfitted estimator."""


class ConvergenceWarning(UserWarning):
    """Warned when an iterative solver stops at its iteration budget."""


class TuningError(ReproError):
    """Raised for invalid switching-point search configurations."""


class PlanError(ReproError):
    """Raised when a heterogeneous execution plan is malformed."""


class BenchError(ReproError):
    """Raised when a benchmark experiment is configured inconsistently."""


class AnalysisError(ReproError):
    """Base class for the static-analysis / sanitizer layer
    (:mod:`repro.analysis`)."""


class LintError(AnalysisError):
    """Raised when the lint engine itself cannot run (unparsable file,
    unknown rule code) — *not* for reporting violations, which are data."""


class CallGraphError(AnalysisError):
    """Raised when whole-program call-graph construction cannot run
    (no parsable inputs, malformed summary cache, unknown query)."""


class SanitizerError(AnalysisError):
    """Raised when the runtime BFS sanitizer detects a broken traversal
    invariant.

    Structured: ``level`` is the BFS depth at which the invariant broke
    (``None`` for whole-traversal checks) and ``vertices`` holds the
    offending vertex ids (possibly truncated for the message).
    """

    def __init__(
        self,
        message: str,
        *,
        level: int | None = None,
        vertices: tuple[int, ...] = (),
    ) -> None:
        detail = message
        if level is not None:
            detail += f" [level {level}]"
        if vertices:
            shown = ", ".join(str(v) for v in vertices[:8])
            more = "" if len(vertices) <= 8 else f", … +{len(vertices) - 8}"
            detail += f" [vertices: {shown}{more}]"
        super().__init__(detail)
        self.level = level
        self.vertices = tuple(int(v) for v in vertices)


class UnitsError(AnalysisError):
    """Raised when dimensional analysis of the cost model finds terms
    with incompatible units (e.g. seconds added to edge counts)."""


class ObsError(ReproError):
    """Raised for invalid observability usage (:mod:`repro.obs`):
    malformed spans, metric type conflicts, audit inputs that do not
    describe the same traversal."""


class ExportError(ObsError):
    """Raised when a trace export/import fails or an exported trace
    does not conform to its schema (JSONL event stream, Chrome
    trace-event format)."""


class HistoryError(ObsError):
    """Raised by the run-history store (:mod:`repro.obs.history`):
    unreadable files in strict mode, records from a newer schema
    version, non-serializable payloads."""


class MonitorError(ObsError):
    """Raised for invalid monitoring inputs (:mod:`repro.obs.monitor`):
    malformed metric policies, empty baselines where a verdict was
    demanded, direction sequences that do not match the profile."""


class ProfileError(ObsError):
    """Raised by the profiling tier (:mod:`repro.obs.profile`): sampler
    lifecycle misuse, explain inputs that do not describe the same
    traversal, malformed flight-recorder snapshots."""
