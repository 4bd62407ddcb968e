"""Metrics registry: counters, gauges and histograms with snapshot/reset.

The registry is the *aggregated* half of the observability story (the
tracer is the per-event half): engines increment well-known instruments
(``bfs.levels``, ``bfs.edges_examined``, ``frontier.claim_ratio``,
``teps``) and a consumer reads a point-in-time :meth:`~MetricsRegistry.
snapshot` — a plain JSON-ready dict — then optionally
:meth:`~MetricsRegistry.reset` for the next measurement window.

All instruments are thread-safe (one registry lock; increments are
cheap) so the thread-parallel engine's workers can publish without
coordination.  Instrument names are namespaced with dots by convention;
registering the same name as two different instrument types raises
:class:`~repro.errors.ObsError`.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from repro.errors import ObsError

__all__ = [
    "METRIC_CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Every metric name the library emits through the registry, in one
#: place.  Lint rule ``RPR009`` enforces that registry/tracer metric
#: call sites in ``src/`` use lowercase dotted identifiers drawn from
#: this catalog — ad-hoc names fragment the history trajectory.  Add
#: the name here *before* emitting it.
METRIC_CATALOG = (
    "bfs.levels",
    "bfs.edges_examined",
    "frontier.claim_ratio",
    "teps",
    "graph500.bfs_seconds",
    "alloc.bytes",
    "alloc.blocks",
)


class Counter:
    """A monotonically increasing count (events, edges, levels)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def add(self, value: float = 1.0) -> None:
        """Increment by ``value`` (must be >= 0: counters only go up)."""
        if value < 0:
            raise ObsError(
                f"counter {self.name!r} cannot decrease (got {value})"
            )
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-ready state."""
        return {"type": "counter", "value": self._value}

    def reset(self) -> None:
        """Zero the count."""
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up or down (last-write-wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value: float | None = None
        self._lock = lock

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float | None:
        """Last recorded value (``None`` before the first set)."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-ready state."""
        return {"type": "gauge", "value": self._value}

    def reset(self) -> None:
        """Forget the recorded value."""
        with self._lock:
            self._value = None


class Histogram:
    """A distribution of observations (per-level ratios, per-root TEPS).

    Observations are retained, so the snapshot can report exact
    quantiles; the workloads here observe per-level or per-root (tens to
    hundreds of points per run), not per-edge.
    """

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def values(self) -> tuple[float, ...]:
        """The raw observations, in arrival order."""
        return tuple(self._values)

    def quantile(self, q: float) -> float:
        """Exact quantile ``q`` in [0, 1] over the observations.

        Defined on every histogram state: an empty histogram yields
        ``nan`` (a quantile of nothing is not 0 — and ``nan`` survives
        JSON round-trips as ``NaN`` while poisoning any arithmetic that
        forgets to check), and a single-sample histogram yields that
        sample for every ``q``.  Only an out-of-range ``q`` raises
        :class:`~repro.errors.ObsError`.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(
                f"histogram {self.name!r}: quantile must be in [0, 1], "
                f"got {q}"
            )
        with self._lock:
            vals = list(self._values)
        if not vals:
            return float("nan")
        if len(vals) == 1:
            return float(vals[0])
        return float(
            np.percentile(np.asarray(vals, dtype=np.float64), q * 100.0)
        )

    def quantiles(self, qs: Iterable[float] = (0.5, 0.9, 0.99)) -> dict:
        """``{q: value}`` for several quantiles at once (default
        p50/p90/p99 — the set the snapshot and regression detector
        report)."""
        return {float(q): self.quantile(q) for q in qs}

    def bucket_bounds(self, max_buckets: int = 10) -> tuple[float, ...]:
        """Data-derived finite bucket upper bounds, strictly increasing.

        Log-spaced between min and max when all observations are
        positive (durations and TEPS span orders of magnitude),
        linearly spaced otherwise; bounds that collapse after float
        rounding are deduplicated.  The last bound equals the maximum
        observation, so the final finite bucket is cumulative-complete
        and the implicit ``+Inf`` bucket adds nothing new.
        """
        if max_buckets < 1:
            raise ObsError(
                f"histogram {self.name!r}: need max_buckets >= 1, "
                f"got {max_buckets}"
            )
        with self._lock:
            vals = list(self._values)
        if not vals:
            return ()
        lo, hi = min(vals), max(vals)
        if lo == hi:
            return (float(hi),)
        if lo > 0:
            raw = np.geomspace(lo, hi, max_buckets)
        else:
            raw = np.linspace(lo, hi, max_buckets)
        bounds: list[float] = []
        for b in raw:
            b = float(b)
            if not bounds or b > bounds[-1]:
                bounds.append(b)
        bounds[-1] = max(bounds[-1], float(hi))
        return tuple(bounds)

    def buckets(self, max_buckets: int = 10) -> list[list[float]]:
        """Cumulative ``[upper_bound, count]`` pairs.

        Counts are cumulative (each bucket includes everything below
        it) and the last pair's count equals :attr:`count`; the
        ``+Inf`` bucket is implied.  Empty histogram → empty list.
        """
        bounds = self.bucket_bounds(max_buckets)
        if not bounds:
            return []
        with self._lock:
            arr = np.asarray(self._values, dtype=np.float64)
        return [[b, int((arr <= b).sum())] for b in bounds]

    def snapshot(self) -> dict:
        """JSON-ready summary: count/sum/min/max/mean/p50/p90/p99 plus
        cumulative ``buckets``."""
        with self._lock:
            vals = list(self._values)
        if not vals:
            return {"type": "histogram", "count": 0, "buckets": []}
        arr = np.asarray(vals, dtype=np.float64)
        p50, p90, p99 = np.percentile(arr, [50, 90, 99])
        return {
            "type": "histogram",
            "count": int(arr.size),
            "sum": float(arr.sum()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "mean": float(arr.mean()),
            "p50": float(p50),
            "p90": float(p90),
            "p99": float(p99),
            "buckets": self.buckets(),
        }

    def reset(self) -> None:
        """Drop all observations."""
        with self._lock:
            self._values.clear()


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    ``registry.counter("bfs.levels").add()`` — the first call registers
    the instrument, later calls return the same object.  A name is bound
    to one instrument type for the registry's lifetime.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        if not name or not isinstance(name, str):
            raise ObsError(f"instrument name must be a non-empty str, got {name!r}")
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, self._lock)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise ObsError(
                    f"metric {name!r} is a {type(inst).__name__}, "
                    f"not a {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """Point-in-time JSON-ready state of every instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: inst.snapshot() for name, inst in sorted(instruments.items())
        }

    def reset(self, names: Iterable[str] | None = None) -> None:
        """Reset all instruments (or just ``names``), keeping them
        registered so handles held by engines stay valid."""
        with self._lock:
            instruments = dict(self._instruments)
        targets = instruments if names is None else list(names)
        for name in targets:
            if name not in instruments:
                raise ObsError(f"no metric named {name!r}")
            instruments[name].reset()
