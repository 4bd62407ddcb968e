"""Observability for the BFS stack: tracing, metrics, telemetry audit.

Five pieces, designed to be threaded through every engine in the
repository:

* :mod:`repro.obs.tracer` — span-based tracing (nestable, thread-safe,
  near-zero-overhead when disabled) plus instant events for the
  decision-audit channel;
* :mod:`repro.obs.metrics` — counters/gauges/histograms with
  snapshot/reset semantics (``bfs.levels``, ``bfs.edges_examined``,
  ``frontier.claim_ratio``, ``teps``);
* :mod:`repro.obs.export` — JSONL event streams and Chrome trace-event
  JSON (open the ``.trace.json`` in Perfetto; one track per
  device/worker);
* :mod:`repro.obs.audit` — per-run mistuning reports comparing the
  policy's predicted switching point against the post-hoc best one
  priced on the measured :class:`~repro.bfs.trace.LevelProfile`;
* :mod:`repro.obs.profile` — the profiling tier: per-span
  ``tracemalloc`` allocation windows and measured-vs-predicted explain
  reports.

Nothing records unless a real :class:`Tracer` is installed
(:func:`set_tracer` / :func:`use_tracer`) or passed explicitly; the
default is :data:`NULL_TRACER`. See ``docs/observability.md``.
"""

from repro.obs.clock import ManualClock, now
from repro.obs.export import (
    JSONL_FORMAT,
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.log import ROOT_LOGGER_NAME, basic_config, get_logger
from repro.obs.metrics import (
    METRIC_CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    EventRecord,
    NullTracer,
    Span,
    SpanRecord,
    TraceListener,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

# The audit and monitor layers consume the tuning/arch stack, which
# itself imports the (tracer-instrumented) BFS engines — importing them
# eagerly here would close an import cycle.  PEP 562 lazy attributes
# break it: engines can `import repro.obs.tracer` freely, and the
# heavier modules load on first use.
_LAZY = {
    "MistuningReport": "audit",
    "CrossMistuningReport": "audit",
    "audit_switching_point": "audit",
    "audit_cross_architecture": "audit",
    "SCHEMA_VERSION": "history",
    "DEFAULT_HISTORY_PATH": "history",
    "RunRecord": "history",
    "HistoryStore": "history",
    "environment_fingerprint": "history",
    "snapshot_run": "history",
    "MetricPolicy": "monitor",
    "DEFAULT_POLICIES": "monitor",
    "flatten_metrics": "monitor",
    "RegressionFinding": "monitor",
    "RegressionReport": "monitor",
    "detect_regressions": "monitor",
    "AllocationProfiler": "profile",
    "ExplainReport": "profile",
    "explain_traversal": "profile",
}


def __getattr__(name: str):
    """Lazily resolve the audit/history/monitor exports (avoids cycles)."""
    modname = _LAZY.get(name)
    if modname is not None:
        import importlib

        module = importlib.import_module(f"repro.obs.{modname}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "now",
    "ManualClock",
    "METRIC_CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "EventRecord",
    "TraceListener",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "JSONL_FORMAT",
    "write_jsonl",
    "read_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "MistuningReport",
    "CrossMistuningReport",
    "audit_switching_point",
    "audit_cross_architecture",
    "SCHEMA_VERSION",
    "DEFAULT_HISTORY_PATH",
    "RunRecord",
    "HistoryStore",
    "environment_fingerprint",
    "snapshot_run",
    "MetricPolicy",
    "DEFAULT_POLICIES",
    "flatten_metrics",
    "RegressionFinding",
    "RegressionReport",
    "detect_regressions",
    "AllocationProfiler",
    "ExplainReport",
    "explain_traversal",
    "get_logger",
    "basic_config",
    "ROOT_LOGGER_NAME",
]
