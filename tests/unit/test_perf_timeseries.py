"""Unit tests for the fixed-capacity TimeSeries and percentile edges."""

import math

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.fleet.sketch import DEFAULT_ALPHA
from repro.obs.metrics import MetricsRegistry, NULL_METRIC
from repro.obs.perf.timeseries import TimeSeries, percentile_of
from repro.obs.report import render_metrics


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


class TestSampling:
    def test_samples_below_capacity(self):
        ts = TimeSeries("x", capacity=8)
        for i in range(5):
            ts.sample(float(i))
        assert len(ts) == 5
        assert ts.count == 5
        assert ts.values() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert ts.last() == 4.0

    def test_default_time_axis_is_lifetime_index(self):
        ts = TimeSeries("x", capacity=4)
        ts.sample(10.0)
        ts.sample(20.0)
        assert ts.window() == [(0.0, 10.0), (1.0, 20.0)]

    def test_explicit_times_pass_through(self):
        ts = TimeSeries("x", capacity=4)
        ts.sample(1.0, t=3.5)
        assert ts.window() == [(3.5, 1.0)]

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            TimeSeries("x", capacity=0)


class TestWrapAround:
    """Window semantics across the ring's wrap point."""

    def test_overwrites_oldest_past_capacity(self):
        ts = TimeSeries("x", capacity=4)
        for i in range(10):
            ts.sample(float(i))
        assert len(ts) == 4
        assert ts.count == 10
        assert ts.values() == [6.0, 7.0, 8.0, 9.0]

    def test_window_order_is_sample_order_at_every_head_position(self):
        # Drive the head through every slot and check ordering each time.
        ts = TimeSeries("x", capacity=4)
        for i in range(4 + 7):
            ts.sample(float(i))
            expect = [float(j) for j in range(max(0, i - 3), i + 1)]
            assert ts.values() == expect

    def test_partial_window_straddles_the_wrap(self):
        ts = TimeSeries("x", capacity=4)
        for i in range(6):  # head sits mid-ring now
            ts.sample(float(i), t=float(i) / 10.0)
        assert ts.window(3) == [(0.3, 3.0), (0.4, 4.0), (0.5, 5.0)]

    def test_window_larger_than_retained_returns_everything(self):
        ts = TimeSeries("x", capacity=4)
        ts.sample(1.0)
        assert ts.values(100) == [1.0]

    def test_stats_window_at_wrap(self):
        ts = TimeSeries("x", capacity=4)
        for i in range(10):
            ts.sample(float(i))
        stats = ts.stats(window=2)
        assert stats["count"] == 2
        assert stats["mean"] == 8.5
        assert stats["min"] == 8.0
        assert stats["max"] == 9.0


class TestStats:
    def test_empty_stats_are_none(self):
        ts = TimeSeries("x")
        stats = ts.stats()
        assert stats["count"] == 0
        assert stats["mean"] is None
        assert stats["p99"] is None
        assert ts.last() is None
        assert ts.rate() is None

    def test_single_sample_percentiles_collapse(self):
        ts = TimeSeries("x")
        ts.sample(7.0)
        stats = ts.stats()
        assert stats["p50"] == stats["p95"] == stats["p99"] == 7.0
        assert stats["min"] == stats["max"] == 7.0

    def test_all_equal_percentiles(self):
        ts = TimeSeries("x")
        for _ in range(50):
            ts.sample(3.0)
        stats = ts.stats()
        assert stats["p50"] == stats["p95"] == stats["p99"] == 3.0
        assert stats["mean"] == 3.0

    def test_nan_samples_counted_but_excluded_from_aggregates(self):
        ts = TimeSeries("x")
        ts.sample(1.0)
        ts.sample(float("nan"))
        ts.sample(3.0)
        stats = ts.stats()
        assert stats["count"] == 3
        assert stats["mean"] == 2.0
        assert stats["max"] == 3.0

    def test_all_nan_window(self):
        ts = TimeSeries("x")
        ts.sample(float("nan"))
        stats = ts.stats()
        assert stats["count"] == 1
        assert stats["mean"] is None

    def test_rate_of_binary_series(self):
        ts = TimeSeries("x")
        for v in (1, 1, 0, 1):
            ts.sample(v)
        assert ts.rate() == 0.75
        assert ts.rate(window=2) == 0.5

    def test_summary_shape(self):
        ts = TimeSeries("x", capacity=2)
        for i in range(3):
            ts.sample(float(i))
        s = ts.summary()
        assert s["type"] == "timeseries"
        assert s["count"] == 3
        assert s["capacity"] == 2
        assert s["retained"] == 2
        assert s["mean"] == 1.5


class TestPercentileHelper:
    def test_single_element(self):
        assert percentile_of([5.0], 0) == 5.0
        assert percentile_of([5.0], 100) == 5.0

    def test_extremes(self):
        xs = [float(i) for i in range(100)]
        assert percentile_of(xs, 0) == 0.0
        assert percentile_of(xs, 100) == 99.0
        # Linear interpolation: the median of 0..99 sits between 49 and 50.
        assert percentile_of(xs, 50) == 49.5

    def test_interpolates_between_ranks(self):
        assert percentile_of([0.0, 10.0], 25) == 2.5
        assert percentile_of([0.0, 10.0, 20.0], 75) == 15.0

    def test_small_sample_tail_percentiles_distinct(self):
        # Regression: nearest-rank rounding collapsed p95 and p99 onto
        # the same sample for any window under ~100 samples, making the
        # p99 gate in the benchmark baseline vacuous.
        xs = [float(i) for i in range(10)]
        p95 = percentile_of(xs, 95)
        p99 = percentile_of(xs, 99)
        assert p95 == pytest.approx(8.55)
        assert p99 == pytest.approx(8.91)
        assert p99 > p95

    def test_timeseries_stats_tails_distinct(self):
        ts = TimeSeries("x")
        for i in range(20):
            ts.sample(float(i))
        stats = ts.stats()
        assert stats["p99"] > stats["p95"] > stats["p50"]


class TestHistogramPercentileEdges:
    """Percentile edge cases on the registry's histogram (a DDSketch:
    estimates are within ``alpha`` of the sample)."""

    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("h")
        assert h.percentile(50) is None
        assert h.summary() == {"type": "quantile_sketch", "count": 0,
                               "alpha": DEFAULT_ALPHA, "buckets": 0}
        assert h.mean is None

    def test_single_sample(self):
        h = MetricsRegistry().histogram("h")
        h.observe(2.5)
        for p in (0, 50, 100):
            assert h.percentile(p) == pytest.approx(2.5, rel=DEFAULT_ALPHA)

    def test_all_equal(self):
        h = MetricsRegistry().histogram("h")
        h.observe_many([4.0] * 32)
        assert h.percentile(50) == pytest.approx(4.0, rel=DEFAULT_ALPHA)
        assert h.percentile(99) == h.percentile(50)
        assert h.summary()["p95"] == h.percentile(50)

    def test_percentile_domain_validation(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ConfigurationError):
            h.percentile(101)


class TestRegistryIntegration:
    def test_registry_creates_and_reuses(self):
        r = MetricsRegistry()
        ts = r.timeseries("s", capacity=4)
        assert r.timeseries("s") is ts
        ts.sample(1.0)
        assert r.snapshot()["s"]["type"] == "timeseries"

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("c")
        with pytest.raises(ConfigurationError):
            r.timeseries("c")

    def test_disabled_accessor_returns_null(self):
        assert obs.timeseries("anything") is NULL_METRIC
        # and the null metric swallows samples
        obs.timeseries("anything").sample(1.0)

    def test_enabled_accessor_returns_live_series(self):
        with obs.session(tracing=False) as (registry, _):
            obs.timeseries("live").sample(1.0)
            assert registry.snapshot()["live"]["count"] == 1

    def test_report_labels_ring_stats_as_windowed(self):
        r = MetricsRegistry()
        ts = r.timeseries("s", capacity=4)
        for i in range(10):
            ts.sample(float(i))
        assert r.snapshot()["s"]["retained"] == 4
        table = render_metrics(r.snapshot())
        assert "last 4 of 10: min=6 max=9 " in table
        assert "count=10" not in table
        r.timeseries("full", capacity=4).sample(1.0)
        assert "count=1 min=1 max=1 " in render_metrics(r.snapshot())

    def test_report_full_unwrapped_ring_keeps_the_run_count(self):
        # Exactly ``capacity`` samples: the ring still holds the whole
        # run, so its stats are the run's.
        r = MetricsRegistry()
        ts = r.timeseries("s", capacity=4)
        for i in range(4):
            ts.sample(float(i))
        table = render_metrics(r.snapshot())
        assert "count=4 min=0 max=3 " in table
        assert "last " not in table

    def test_report_sketch_stats_cover_the_whole_run(self):
        r = MetricsRegistry()
        r.histogram("h").observe_many([float(i) for i in range(2000)])
        table = render_metrics(r.snapshot())
        assert "count=2000 min=0 max=1999 " in table
        assert "last " not in table
