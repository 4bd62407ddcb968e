"""Persistent run history: an append-only, schema-versioned JSONL store.

PR 3's instruments (tracer, metrics registry, decision audit) see one
run at a time; this module is the longitudinal half of the monitoring
story.  Every benchmarked or traced run can be folded into a
:class:`RunRecord` — the metrics-registry snapshot, span-summary
aggregates, TEPS, the mistuning-audit verdict, and an environment
fingerprint — and appended to a :class:`HistoryStore` (one JSON object
per line, by default under ``benchmarks/results/history/``).  The
regression detector in :mod:`repro.obs.monitor` reads the same records
back.

Design constraints the format encodes:

* **append-only** — a run is one line; concurrent writers never rewrite
  earlier history, and a truncated final line (crashed writer) must not
  poison the file;
* **schema-versioned** — every record carries ``schema_version``;
  reading a record written by a *newer* library refuses loudly instead
  of silently misinterpreting it, while corrupt/truncated lines are
  skipped (and counted) by default;
* **environment-aware** — records fingerprint the git revision,
  interpreter, NumPy, CPU count and (hashed) hostname, so cross-machine
  noise is attributable when a trajectory looks like a regression.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import HistoryError

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_HISTORY_PATH",
    "RunRecord",
    "HistoryStore",
    "environment_fingerprint",
    "snapshot_run",
]

#: Version of the on-disk record layout.  Bump when a field changes
#: meaning; readers refuse records from the future.
SCHEMA_VERSION = 1

#: Where the repository keeps its own trajectory (relative to the repo
#: root; the CLI's ``--history`` default).
DEFAULT_HISTORY_PATH = Path("benchmarks/results/history/runs.jsonl")

_RECORD_FIELDS = (
    "schema_version",
    "kind",
    "workload",
    "timestamp",
    "metrics",
    "spans",
    "teps",
    "audit",
    "environment",
    "meta",
)


def _git_revision() -> str | None:
    """Current git commit sha, or ``None`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def environment_fingerprint() -> dict:
    """Where and with what a run executed (JSON-ready).

    The hostname is stored as a truncated SHA-256 so records can be
    shared (CI artifacts, committed trajectories) without leaking
    machine names, while still distinguishing machines.
    """
    return {
        "git_sha": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "hostname_hash": hashlib.sha256(
            socket.gethostname().encode("utf-8", "replace")
        ).hexdigest()[:12],
    }


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class RunRecord:
    """One run's monitoring payload (one JSONL line).

    ``kind`` names the producing flow (``"bfs"``, ``"graph500"``,
    ``"trace"``, ``"bench.experiment"``, ``"bench.kernels"``);
    ``workload`` is the comparability key — records are only compared
    against earlier records with the same ``(kind, workload)``, so a
    scale-10 smoke run never baselines a scale-16 measurement.
    """

    kind: str
    workload: str
    metrics: dict = field(default_factory=dict)
    spans: tuple = ()
    teps: float | None = None
    audit: dict | None = None
    environment: dict = field(default_factory=environment_fingerprint)
    meta: dict = field(default_factory=dict)
    timestamp: str = field(default_factory=_utc_now_iso)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise HistoryError(f"kind must be a non-empty str, got {self.kind!r}")
        if not self.workload or not isinstance(self.workload, str):
            raise HistoryError(
                f"workload must be a non-empty str, got {self.workload!r}"
            )
        if self.schema_version != SCHEMA_VERSION:
            raise HistoryError(
                f"cannot build a v{self.schema_version} record with a "
                f"v{SCHEMA_VERSION} library"
            )

    @property
    def series_key(self) -> tuple[str, str]:
        """The ``(kind, workload)`` pair baselines are grouped by."""
        return (self.kind, self.workload)

    def as_dict(self) -> dict:
        """JSON-ready representation (the JSONL line payload)."""
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "workload": self.workload,
            "timestamp": self.timestamp,
            "metrics": self.metrics,
            "spans": list(self.spans),
            "teps": self.teps,
            "audit": self.audit,
            "environment": self.environment,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Inverse of :meth:`as_dict`.

        Raises :class:`~repro.errors.HistoryError` when the payload is
        from a newer schema (refusal) or structurally malformed
        (treated as corruption by tolerant readers).
        """
        if not isinstance(payload, dict):
            raise HistoryError(f"record must be an object, got {type(payload).__name__}")
        version = payload.get("schema_version")
        if not isinstance(version, int):
            raise HistoryError("record lacks an integer schema_version")
        if version > SCHEMA_VERSION:
            raise HistoryError(
                f"record has schema_version {version}; this library reads "
                f"<= {SCHEMA_VERSION} — refusing to guess at future fields"
            )
        unknown = set(payload) - set(_RECORD_FIELDS)
        if unknown:
            raise HistoryError(f"record has unknown fields {sorted(unknown)}")
        try:
            return cls(
                kind=payload["kind"],
                workload=payload["workload"],
                metrics=dict(payload.get("metrics") or {}),
                spans=tuple(payload.get("spans") or ()),
                teps=payload.get("teps"),
                audit=payload.get("audit"),
                environment=dict(payload.get("environment") or {}),
                meta=dict(payload.get("meta") or {}),
                timestamp=str(payload.get("timestamp", "")),
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HistoryError(f"malformed record: {exc}") from exc


def snapshot_run(
    kind: str,
    workload: str,
    *,
    tracer=None,
    metrics: dict | None = None,
    spans: Iterable[dict] | None = None,
    teps: float | None = None,
    audit=None,
    **meta,
) -> RunRecord:
    """Fold one run's telemetry into a :class:`RunRecord`.

    ``tracer`` (when given and enabled) supplies the metrics-registry
    snapshot and per-span aggregate rows; explicit ``metrics``/``spans``
    override it.  ``audit`` accepts a
    :class:`~repro.obs.audit.MistuningReport`-like object (anything with
    ``as_dict()``) or a plain dict.  Remaining keyword arguments land in
    ``meta`` (seed, thresholds, labels, …).
    """
    if tracer is not None and getattr(tracer, "enabled", False):
        if metrics is None:
            metrics = tracer.metrics.snapshot()
        if spans is None:
            spans = tracer.summary_rows()
    if audit is not None and hasattr(audit, "as_dict"):
        audit = audit.as_dict()
    return RunRecord(
        kind=kind,
        workload=workload,
        metrics=dict(metrics or {}),
        spans=tuple(spans or ()),
        teps=None if teps is None else float(teps),
        audit=audit,
        meta=dict(meta),
    )


class HistoryStore:
    """Append-only JSONL store of :class:`RunRecord` lines.

    ``read()`` is tolerant by default: undecodable or structurally
    malformed lines are skipped and reported via :attr:`last_skipped`
    (a crashed writer must not poison the trajectory), while a record
    carrying a *newer* ``schema_version`` always raises — that is a
    version mismatch, not corruption.  ``strict=True`` upgrades skips
    to errors.
    """

    def __init__(self, path: str | Path = DEFAULT_HISTORY_PATH) -> None:
        self.path = Path(path)
        #: ``(line_number, reason)`` pairs skipped by the last ``read()``.
        self.last_skipped: tuple[tuple[int, str], ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HistoryStore({str(self.path)!r})"

    def append(self, record: RunRecord) -> Path:
        """Append one record; creates the file (and parents) on first use."""
        if not isinstance(record, RunRecord):
            raise HistoryError(
                f"append needs a RunRecord, got {type(record).__name__}"
            )
        try:
            line = json.dumps(record.as_dict(), sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise HistoryError(f"record is not JSON-serializable: {exc}") from exc
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return self.path

    def read(self, *, strict: bool = False) -> list[RunRecord]:
        """All readable records, oldest first.

        Sets :attr:`last_skipped`; raises on newer-schema records (see
        class docstring) and, with ``strict=True``, on any skip.
        """
        if not self.path.exists():
            self.last_skipped = ()
            return []
        records: list[RunRecord] = []
        skipped: list[tuple[int, str]] = []
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    if strict:
                        raise HistoryError(
                            f"{self.path}:{lineno}: corrupt line: {exc}"
                        ) from exc
                    skipped.append((lineno, f"undecodable JSON: {exc.msg}"))
                    continue
                try:
                    records.append(RunRecord.from_dict(payload))
                except HistoryError as exc:
                    if _is_schema_refusal(payload):
                        raise HistoryError(
                            f"{self.path}:{lineno}: {exc}"
                        ) from exc
                    if strict:
                        raise HistoryError(
                            f"{self.path}:{lineno}: {exc}"
                        ) from exc
                    skipped.append((lineno, str(exc)))
        self.last_skipped = tuple(skipped)
        return records

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.read())

    def __len__(self) -> int:
        return len(self.read())

    def tail(self, n: int) -> list[RunRecord]:
        """The newest ``n`` records (oldest-first order preserved)."""
        if n < 0:
            raise HistoryError(f"tail needs n >= 0, got {n}")
        return self.read()[-n:] if n else []

    def series(self, kind: str, workload: str) -> list[RunRecord]:
        """Records matching one ``(kind, workload)`` comparability key."""
        return [
            r for r in self.read() if r.series_key == (kind, workload)
        ]


def _is_schema_refusal(payload) -> bool:
    """Whether a failed parse was a newer-schema refusal (never skipped)."""
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("schema_version"), int)
        and payload["schema_version"] > SCHEMA_VERSION
    )
