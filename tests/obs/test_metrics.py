"""Counters, gauges, histograms, and registry snapshot/reset semantics."""

import pytest

from repro.errors import ObsError
from repro.obs import MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_accumulates(self, registry):
        c = registry.counter("bfs.levels")
        c.add()
        c.add(4)
        assert c.value == 5.0

    def test_rejects_decrease(self, registry):
        with pytest.raises(ObsError):
            registry.counter("c").add(-1)

    def test_snapshot(self, registry):
        registry.counter("c").add(2)
        assert registry.counter("c").snapshot() == {
            "type": "counter",
            "value": 2.0,
        }


class TestGauge:
    def test_none_before_first_set(self, registry):
        assert registry.gauge("g").value is None

    def test_last_write_wins(self, registry):
        g = registry.gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_snapshot_stats(self, registry):
        h = registry.histogram("teps")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["mean"] == 2.5
        assert snap["p50"] == 2.5

    def test_empty_snapshot(self, registry):
        assert registry.histogram("h").snapshot() == {
            "type": "histogram",
            "count": 0,
            "buckets": [],
        }

    def test_empty_quantile_is_nan(self, registry):
        import math

        assert math.isnan(registry.histogram("h").quantile(0.5))

    def test_single_sample_quantile_is_that_sample(self, registry):
        h = registry.histogram("h")
        h.observe(3.25)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 3.25

    def test_quantile_out_of_range_raises(self, registry):
        with pytest.raises(ObsError):
            registry.histogram("h").quantile(1.5)

    def test_buckets_cumulative_and_complete(self, registry):
        h = registry.histogram("h")
        for v in (0.001, 0.01, 0.1, 1.0, 10.0):
            h.observe(v)
        buckets = h.buckets()
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)
        assert counts[-1] == h.count  # final finite bucket covers max
        assert bounds[-1] == 10.0

    def test_retains_values_in_order(self, registry):
        h = registry.histogram("h")
        h.observe(2.0)
        h.observe(1.0)
        assert h.values == (2.0, 1.0)
        assert h.count == 2


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_type_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ObsError):
            registry.gauge("x")

    def test_bad_name_raises(self, registry):
        with pytest.raises(ObsError):
            registry.counter("")

    def test_names_sorted(self, registry):
        registry.gauge("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]

    def test_snapshot_covers_all_instruments(self, registry):
        registry.counter("c").add(1)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(3)
        snap = registry.snapshot()
        assert set(snap) == {"c", "g", "h"}
        assert snap["c"]["type"] == "counter"
        assert snap["g"]["type"] == "gauge"
        assert snap["h"]["type"] == "histogram"

    def test_reset_all_keeps_instruments_registered(self, registry):
        c = registry.counter("c")
        c.add(5)
        registry.reset()
        assert registry.names() == ["c"]
        assert registry.counter("c") is c
        assert c.value == 0.0

    def test_reset_selected_names(self, registry):
        registry.counter("a").add(1)
        registry.counter("b").add(1)
        registry.reset(names=["a"])
        assert registry.counter("a").value == 0.0
        assert registry.counter("b").value == 1.0

    def test_flat_view(self, registry):
        registry.counter("c").add(2)
        registry.gauge("g").set(7.5)
        h = registry.histogram("h")
        h.observe(1.0)
        h.observe(3.0)
        flat = registry.flat()
        assert flat == {"c": 2.0, "g": 7.5, "h.count": 2.0, "h.sum": 4.0}

    def test_flat_skips_unset_and_empty(self, registry):
        registry.gauge("g")  # never set
        registry.histogram("h")  # no observations
        assert registry.flat() == {}

    def test_flat_matches_snapshot_values(self, registry):
        registry.counter("c").add(3)
        registry.histogram("h").observe(2.5)
        snap = registry.snapshot()
        flat = registry.flat()
        assert flat["c"] == snap["c"]["value"]
        assert flat["h.count"] == snap["h"]["count"]
        assert flat["h.sum"] == snap["h"]["sum"]

    def test_reset_unknown_name_raises(self, registry):
        with pytest.raises(ObsError):
            registry.reset(names=["missing"])

