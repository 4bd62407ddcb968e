"""Flight recorder: a bounded ring of recent telemetry plus anomaly
snapshots.

Exporters answer *"what happened during the run I chose to record"*;
the flight recorder answers *"what happened in the seconds before the
run went wrong"* — cheaply enough to leave on always.  It attaches to
the tracer as a :class:`~repro.obs.tracer.TraceListener` and keeps the
last N spans, instant events and top-level metric deltas in a
``deque(maxlen=N)`` — constant memory, no exporter required.

Anomaly triggers:

* **slow span** — a watched span (traversal roots by default) whose
  duration exceeds ``slow_factor`` × its learned per-name baseline
  (median of the first ``warmup`` durations), or an explicit
  ``baseline_s`` threshold;
* **alert event** — an instant event whose name is in
  ``alert_events`` (drift alerts, sanitizer violations);
* **manual** — :meth:`FlightRecorder.trigger` for operator-initiated
  dumps.

A trigger dumps the ring, the metrics snapshot, the context the caller
attached (graph fingerprint, workload), and any registered artifact
providers (the sampler's collapsed stacks, the allocation report) into
a timestamped snapshot directory; the snapshot's SHA-256 digest is the
handle that lands in ``runs.jsonl`` so the monitor can gate on it.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from repro.errors import ProfileError
from repro.obs.tracer import EventRecord, SpanRecord, TraceListener, Tracer

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SnapshotInfo",
    "FlightRecorder",
    "graph_fingerprint",
    "validate_snapshot",
]

#: Schema tag written into every snapshot's ``meta.json``.
SNAPSHOT_SCHEMA = "repro.obs.flight/1"

#: Span names watched for the slow-span trigger by default: every
#: engine's traversal root.
DEFAULT_WATCHED_SPANS = (
    "bfs.timed",
    "bfs.hybrid",
    "graph500.bfs",
    "hetero.execute_plan",
)

#: Instant-event names that trigger a snapshot immediately (the drift
#: monitor's alert channel; extend with ``alert_events=`` for custom
#: alarms).
DEFAULT_ALERT_EVENTS = ("tuning.drift_alert",)


def graph_fingerprint(graph) -> dict:
    """A compact, stable identity for a CSR graph (JSON-ready).

    Hashes the structure (offsets and targets bytes), not a Python
    object id, so the same graph loaded twice fingerprints identically
    and a mutated graph does not.
    """
    h = hashlib.sha256()
    h.update(graph.offsets.tobytes())
    h.update(graph.targets.tobytes())
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "max_degree": int(graph.degrees.max()) if graph.num_vertices else 0,
        "sha256": h.hexdigest()[:16],
    }


class SnapshotInfo:
    """Handle to one written snapshot: path, digest, reason."""

    __slots__ = ("path", "digest", "reason", "trigger")

    def __init__(
        self, path: Path, digest: str, reason: str, trigger: dict
    ) -> None:
        self.path = path
        self.digest = digest
        self.reason = reason
        self.trigger = trigger

    def as_dict(self) -> dict:
        """JSON-ready handle (what lands in history meta)."""
        return {
            "path": str(self.path),
            "digest": self.digest,
            "reason": self.reason,
        }


class FlightRecorder(TraceListener):
    """Bounded telemetry ring with anomaly-triggered snapshots.

    Use as a context manager to attach/detach from the tracer::

        with FlightRecorder(tracer, snapshot_dir="snapshots") as rec:
            run_graph500(...)
        assert not rec.snapshots  # no anomaly fired

    Parameters
    ----------
    capacity:
        Ring size — the last ``capacity`` entries (spans, events and
        metric deltas combined) survive.
    watch:
        Span names checked by the slow-span trigger.
    slow_factor:
        Trigger threshold relative to the learned baseline (the
        acceptance bar is an injected 3× slowdown, so the default 2.5
        fires on it with margin while double-duty noise does not).
    warmup:
        Closes of a watched span name needed before its baseline is
        trusted (the median of those durations).
    baseline_s:
        Optional explicit per-name thresholds ``{span_name: seconds}``;
        a watched name present here skips learning entirely.
    alert_events:
        Instant-event names that dump immediately.
    snapshot_dir:
        Where snapshots are written; without it triggers still count
        (``profile.anomalies``) and record themselves, but nothing is
        dumped.
    context:
        JSON-ready dict stored in every snapshot (graph fingerprint,
        workload, parameters).
    """

    def __init__(
        self,
        tracer: Tracer,
        *,
        capacity: int = 256,
        watch: tuple[str, ...] = DEFAULT_WATCHED_SPANS,
        slow_factor: float = 2.5,
        warmup: int = 3,
        baseline_s: dict[str, float] | None = None,
        alert_events: tuple[str, ...] = DEFAULT_ALERT_EVENTS,
        snapshot_dir: str | Path | None = None,
        context: dict | None = None,
    ) -> None:
        if capacity < 1:
            raise ProfileError(f"capacity must be >= 1, got {capacity}")
        if slow_factor <= 1.0:
            raise ProfileError(
                f"slow_factor must be > 1.0, got {slow_factor}"
            )
        if warmup < 1:
            raise ProfileError(f"warmup must be >= 1, got {warmup}")
        self.tracer = tracer
        self.capacity = int(capacity)
        self.watch = tuple(watch)
        self.slow_factor = float(slow_factor)
        self.warmup = int(warmup)
        self.baseline_s = dict(baseline_s or {})
        self.alert_events = tuple(alert_events)
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.context = dict(context or {})
        self.ring: collections.deque = collections.deque(maxlen=capacity)
        self.snapshots: list[SnapshotInfo] = []
        self.triggers: list[dict] = []
        self._lock = threading.Lock()
        self._history: dict[str, list[float]] = {}
        self._last_metrics: dict[str, float] = {}
        self._providers: dict[str, Callable[[], str]] = {}
        self._seq = itertools.count(1)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "FlightRecorder":
        self.tracer.add_listener(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer.remove_listener(self)

    def add_artifact_provider(
        self, name: str, provider: Callable[[], str]
    ) -> None:
        """Register extra snapshot content: ``provider()`` returns the
        text written as ``<name>`` inside every future snapshot (the
        profiler registers its collapsed stacks this way)."""
        if "/" in name or name.startswith("."):
            raise ProfileError(f"artifact name {name!r} must be a bare filename")
        self._providers[name] = provider

    # -- listener callbacks --------------------------------------------------

    def on_span_close(self, record: SpanRecord) -> None:
        """Ring the span; check the slow-span trigger and, for
        top-level spans, record the metric delta.

        The record object itself is ringed — serializing to a dict per
        close would tax every traversal for data that is only read when
        an anomaly dumps, so :meth:`_dump` serializes the survivors.
        """
        with self._lock:
            self.ring.append(record)
        if record.parent_id is None:
            self._ring_metric_delta()
        if record.name in self.watch:
            self._check_slow(record)

    def on_event(self, record: EventRecord) -> None:
        """Ring the event; fire on alert events."""
        with self._lock:
            self.ring.append(record)
        if record.name in self.alert_events:
            self.trigger(
                f"alert-event:{record.name}",
                {"event": record.name, "attrs": record.attrs},
            )

    # -- anomaly machinery ---------------------------------------------------

    def _ring_metric_delta(self) -> None:
        # registry.flat() skips quantile/bucket computation — this runs
        # on every top-level span close and must stay span-cheap.
        flat = self.tracer.metrics.flat()
        with self._lock:
            delta = {
                k: v - self._last_metrics.get(k, 0.0)
                for k, v in flat.items()
                if v != self._last_metrics.get(k, 0.0)
            }
            self._last_metrics = flat
            if delta:
                self.ring.append({"kind": "metrics", "delta": delta})

    def _check_slow(self, record: SpanRecord) -> None:
        threshold = self.baseline_s.get(record.name)
        if threshold is None:
            with self._lock:
                history = self._history.setdefault(record.name, [])
                if len(history) < self.warmup:
                    history.append(record.duration)
                    return
                ordered = sorted(history)
                median = ordered[len(ordered) // 2]
            threshold = self.slow_factor * median
        if record.duration > threshold:
            self.trigger(
                f"slow-span:{record.name}",
                {
                    "span": record.name,
                    "duration_s": record.duration,
                    "threshold_s": threshold,
                },
            )

    def trigger(self, reason: str, detail: dict | None = None) -> SnapshotInfo | None:
        """Record an anomaly and (when a snapshot dir is set) dump one.

        Returns the :class:`SnapshotInfo` or ``None`` when dumping is
        disabled.  Counted in ``profile.anomalies`` either way.
        """
        trigger = {"reason": reason, "detail": dict(detail or {})}
        self.triggers.append(trigger)
        self.tracer.count("profile.anomalies")
        if self.snapshot_dir is None:
            return None
        info = self._dump(reason, trigger)
        self.snapshots.append(info)
        return info

    # -- snapshot writing ----------------------------------------------------

    def _dump(self, reason: str, trigger: dict) -> SnapshotInfo:
        from repro.obs.history import environment_fingerprint

        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        directory = self.snapshot_dir / f"{stamp}-{next(self._seq):03d}"
        directory.mkdir(parents=True, exist_ok=True)

        with self._lock:
            entries = [
                e.as_dict() if hasattr(e, "as_dict") else e
                for e in self.ring
            ]
        ring_text = "\n".join(json.dumps(e) for e in entries)
        if ring_text:
            ring_text += "\n"
        files = {"ring.jsonl": ring_text}
        for name, provider in self._providers.items():
            try:
                files[name] = provider()
            except Exception as exc:  # a broken provider must not eat the dump
                files[name] = f"artifact provider failed: {exc!r}\n"
        for name, text in files.items():
            (directory / name).write_text(text, encoding="utf-8")

        digest = hashlib.sha256()
        for name in sorted(files):
            digest.update(name.encode("utf-8"))
            digest.update(files[name].encode("utf-8"))
        meta = {
            "schema": SNAPSHOT_SCHEMA,
            "reason": reason,
            "trigger": trigger,
            "written": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "context": self.context,
            "environment": environment_fingerprint(),
            "metrics": self.tracer.metrics.snapshot(),
            "ring_entries": len(entries),
            "files": sorted(files),
            "digest": digest.hexdigest(),
        }
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=1), encoding="utf-8"
        )
        return SnapshotInfo(directory, meta["digest"], reason, trigger)


def validate_snapshot(path: str | Path) -> dict:
    """Check a snapshot directory against the flight-recorder schema.

    Verifies ``meta.json`` (schema tag, required keys), that every
    listed file exists, that ``ring.jsonl`` parses, and that the
    content digest matches.  Returns the parsed meta; raises
    :class:`~repro.errors.ProfileError` on the first violation — the
    CI profile-smoke gate.
    """
    directory = Path(path)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise ProfileError(f"{directory}: missing meta.json")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{meta_path}: not JSON: {exc}") from exc
    if meta.get("schema") != SNAPSHOT_SCHEMA:
        raise ProfileError(
            f"{directory}: schema {meta.get('schema')!r}, "
            f"expected {SNAPSHOT_SCHEMA!r}"
        )
    for key in ("reason", "trigger", "context", "environment", "files", "digest"):
        if key not in meta:
            raise ProfileError(f"{directory}: meta.json missing {key!r}")
    digest = hashlib.sha256()
    for name in sorted(meta["files"]):
        file_path = directory / name
        if not file_path.is_file():
            raise ProfileError(f"{directory}: listed file {name!r} missing")
        text = file_path.read_text(encoding="utf-8")
        digest.update(name.encode("utf-8"))
        digest.update(text.encode("utf-8"))
        if name == "ring.jsonl":
            for lineno, line in enumerate(text.splitlines(), 1):
                try:
                    json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ProfileError(
                        f"{file_path}:{lineno}: not JSON: {exc}"
                    ) from exc
    if digest.hexdigest() != meta["digest"]:
        raise ProfileError(
            f"{directory}: content digest {digest.hexdigest()[:12]}… does "
            f"not match recorded {str(meta['digest'])[:12]}…"
        )
    return meta
