"""Unit tests for the obs metrics registry and trace spans."""

import math

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.fleet.sketch import DEFAULT_ALPHA, QuantileSketch
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    NULL_METRIC,
)
from repro.obs.tracing import Tracer
from repro.sim.link import run_uplink_ber


def _histogram():
    return MetricsRegistry().histogram("h")


def _within_alpha(estimate, truth):
    return abs(estimate - truth) <= DEFAULT_ALPHA * abs(truth)


def _order_statistic(values, q):
    """The rank ``ceil(q * n) - 1`` statistic the sketch estimates."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with instrumentation disabled."""
    obs.disable()
    yield
    obs.disable()
    obs.reset()


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("x").inc(-1)

    def test_summary(self):
        c = Counter("x")
        c.inc(4)
        assert c.summary() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_last_value_wins(self):
        r = MetricsRegistry()
        g = r.gauge("g")
        g.set(1.0)
        g.set(7.5)
        assert g.value == 7.5
        assert g.writes == 2


class TestHistogram:
    def test_aggregates(self):
        h = _histogram()
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == 2.5

    def test_percentiles(self):
        h = _histogram()
        h.observe_many(range(101))
        assert h.percentile(0) == 0
        assert _within_alpha(h.percentile(50), 50)
        assert _within_alpha(h.percentile(100), 100)
        with pytest.raises(ConfigurationError):
            h.percentile(101)

    def test_empty_summary(self):
        assert _histogram().summary() == {
            "type": "quantile_sketch", "count": 0,
            "alpha": DEFAULT_ALPHA, "buckets": 0,
        }
        assert _histogram().mean is None
        assert _histogram().percentile(50) is None

    def test_summary_has_p50_p95(self):
        h = _histogram()
        h.observe_many(range(100))
        s = h.summary()
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert _within_alpha(s[key], _order_statistic(range(100), q))


class TestWholeRunPercentiles:
    """Percentiles describe every observation, not the first few
    thousand."""

    def test_late_run_shift_moves_p95(self):
        h = _histogram()
        h.observe_many([1.0] * 2048)
        h.observe_many([10.0] * 8000)
        assert h.count == 10048
        assert _within_alpha(h.percentile(95), 10.0)

    def test_slicer_margins_match_exact_order_statistics(self, monkeypatch):
        margins = []
        observe_many = QuantileSketch.observe_many

        def recording(self, values):
            if self.name == "uplink.slicer.margin":
                margins.extend(np.asarray(values, dtype=float).tolist())
            observe_many(self, values)

        monkeypatch.setattr(QuantileSketch, "observe_many", recording)
        with obs.session(tracing=False) as (registry, _):
            run_uplink_ber(0.3, 30.0, mode="csi", repeats=8,
                           num_payload_bits=90, seed=3)
            sketch = registry.histogram("uplink.slicer.margin")
        assert sketch.count == len(margins) == 48720
        for q in (0.05, 0.5, 0.95, 0.99):
            truth = _order_statistic(margins, q)
            assert _within_alpha(sketch.quantile(q), truth), q
        # Inside the dead band the margin is negative.
        assert sketch.quantile(0.05) < 0


class TestRegistry:
    def test_same_name_same_metric(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ConfigurationError):
            r.gauge("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("")

    def test_snapshot_sorted_and_complete(self):
        r = MetricsRegistry()
        r.counter("b.count").inc(2)
        r.gauge("a.level").set(1.5)
        snap = r.snapshot()
        assert list(snap) == ["a.level", "b.count"]
        assert snap["b.count"]["value"] == 2.0

    def test_reset(self):
        r = MetricsRegistry()
        r.counter("a").inc()
        r.reset()
        assert len(r) == 0


class TestModuleHelpers:
    def test_disabled_returns_null_metric(self):
        assert obs.counter("anything") is NULL_METRIC
        assert obs.gauge("anything") is NULL_METRIC
        assert obs.histogram("anything") is NULL_METRIC

    def test_null_metric_accepts_all_writes(self):
        NULL_METRIC.inc()
        NULL_METRIC.set(3)
        NULL_METRIC.observe(1.0)
        NULL_METRIC.observe_many([1, 2])

    def test_enabled_returns_live_metrics(self):
        with obs.session() as (registry, _):
            obs.counter("live").inc()
            assert registry.counter("live").value == 1.0


class TestSpans:
    def test_disabled_span_yields_none_and_records_nothing(self):
        with obs.span("stage") as sp:
            assert sp is None
        assert obs.current_span() is None

    def test_nesting_and_attributes(self):
        with obs.session(metrics=False) as (_, tracer):
            with obs.span("outer", distance_m=0.4) as outer:
                assert obs.current_span() is outer
                with obs.span("inner") as inner:
                    inner.set(errors=3)
            assert obs.current_span() is None
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attributes == {"distance_m": 0.4}
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attributes == {"errors": 3}
        assert root.duration_s >= root.children[0].duration_s >= 0.0

    def test_error_recorded(self):
        with obs.session(metrics=False) as (_, tracer):
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("nope")
        assert tracer.roots[0].error == "ValueError"

    def test_decorator(self):
        @obs.span("decorated")
        def work(x):
            return x * 2

        with obs.session(metrics=False) as (_, tracer):
            assert work(21) == 42
        assert tracer.roots[0].name == "decorated"

    def test_aggregate(self):
        with obs.session(metrics=False):
            for _ in range(3):
                with obs.span("a"):
                    with obs.span("b"):
                        pass
            table = obs.get_tracer().aggregate()
        assert table["a"]["calls"] == 3
        assert table["b"]["calls"] == 3
        assert table["a"]["total_s"] >= table["a"]["max_s"] > 0.0

    def test_root_cap_drops_but_counts(self):
        tracer = Tracer(max_spans=1)
        obs.configure(tracing=True)
        import repro.obs.state as state

        saved = state._tracer
        state._tracer = tracer
        try:
            with obs.span("first"):
                pass
            with obs.span("second") as sp:
                assert sp is None
        finally:
            state._tracer = saved
        assert len(tracer.roots) == 1
        assert tracer.dropped == 1
        assert tracer.started == 2


class TestSession:
    def test_restores_prior_state(self):
        assert not obs.enabled()
        with obs.session():
            assert obs.metrics_enabled() and obs.tracing_enabled()
            with obs.session(metrics=True, tracing=False, fresh=False):
                assert obs.metrics_enabled() and not obs.tracing_enabled()
            assert obs.tracing_enabled()
        assert not obs.enabled()

    def test_fresh_clears_previous_data(self):
        with obs.session() as (registry, _):
            obs.counter("stale").inc()
        with obs.session() as (registry, _):
            assert "stale" not in registry

    def test_manifest_dir_scoped(self, tmp_path):
        with obs.session(manifest_dir=str(tmp_path)):
            assert obs.manifest_dir() == str(tmp_path)
        assert obs.manifest_dir() is None
