"""Unit tests for SLO rule parsing, resolution, and the alert engine."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.fleet.sketch import DEFAULT_ALPHA, QuantileSketch
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf.slo import (
    AlertEvent,
    SloEngine,
    SloRule,
    parse_slo_rule,
    parse_slo_spec,
    resolve_metric_value,
)


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


class TestParsing:
    def test_full_rule(self):
        rule = parse_slo_rule(
            "uplink.delivery.rate >= 0.99 over 200 frames ! critical quarantine"
        )
        assert rule.metric == "uplink.delivery.rate"
        assert rule.op == ">="
        assert rule.threshold == 0.99
        assert rule.window == 200
        assert rule.unit == "frames"
        assert rule.severity == "critical"
        assert rule.action == "quarantine"

    def test_minimal_rule(self):
        rule = parse_slo_rule("gateway.breaker.open == 0")
        assert rule.window is None
        assert rule.severity == "critical"
        assert rule.action is None

    def test_severity_without_action(self):
        rule = parse_slo_rule("uplink.ber.window.mean <= 0.05 over 20 x ! warn")
        assert rule.severity == "warn"
        assert rule.action is None

    def test_describe_round_trip(self):
        rule = parse_slo_rule("a.b >= 0.5 over 10 frames")
        assert rule.describe() == "a.b >= 0.5 over 10 frames"

    def test_spec_splits_on_semicolons(self):
        rules = parse_slo_spec("a >= 1; b <= 2 ! warn;")
        assert [r.metric for r in rules] == ["a", "b"]

    @pytest.mark.parametrize("bad", [
        "",
        "nonsense",
        "a.b ~= 5",
        "a.b >= notanumber",
        "a >= 1 ! catastrophic",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_slo_spec(bad)

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            SloRule(metric="m", op="~", threshold=1.0)
        with pytest.raises(ConfigurationError):
            SloRule(metric="m", op=">=", threshold=1.0, window=0)


class TestResolution:
    def test_counter_and_gauge(self):
        r = MetricsRegistry()
        r.counter("c").inc(3)
        r.gauge("g").set(1.5)
        assert resolve_metric_value(r, "c") == 3.0
        assert resolve_metric_value(r, "g") == 1.5
        assert resolve_metric_value(r, "g.value") == 1.5

    def test_timeseries_stats(self):
        r = MetricsRegistry()
        ts = r.timeseries("s")
        for v in (1.0, 0.0, 1.0, 1.0):
            ts.sample(v)
        assert resolve_metric_value(r, "s.rate") == 0.75
        assert resolve_metric_value(r, "s.mean") == 0.75
        assert resolve_metric_value(r, "s.last") == 1.0
        assert resolve_metric_value(r, "s.count") == 4.0
        assert resolve_metric_value(r, "s.rate", window=2) == 1.0
        assert resolve_metric_value(r, "s.p50") == 1.0

    def test_histogram_stats(self):
        r = MetricsRegistry()
        h = r.histogram("h")
        h.observe_many([1.0, 2.0, 3.0])
        assert resolve_metric_value(r, "h") == 2.0
        assert resolve_metric_value(r, "h.max") == 3.0
        assert resolve_metric_value(r, "h.sum") == 6.0
        assert resolve_metric_value(r, "h.p50") == pytest.approx(
            2.0, rel=DEFAULT_ALPHA
        )

    def test_worker_sketch_stats(self):
        # A histogram shipped home from a worker arrives as a sketch
        # payload; every stat must resolve on the merged metric.
        worker = QuantileSketch("e")
        worker.observe_many([0.0, 0.0, 1.0, 4.0])
        r = MetricsRegistry()
        r.merge_payload({"e": {"kind": "quantile_sketch",
                               **worker.to_payload()}})
        assert resolve_metric_value(r, "e") == 1.25
        assert resolve_metric_value(r, "e.count") == 4.0
        assert resolve_metric_value(r, "e.sum") == 5.0
        assert resolve_metric_value(r, "e.min") == 0.0
        assert resolve_metric_value(r, "e.max") == 4.0
        assert resolve_metric_value(r, "e.p50") == 0.0
        for stat in ("p95", "p99"):
            assert resolve_metric_value(r, f"e.{stat}") == pytest.approx(
                4.0, rel=DEFAULT_ALPHA
            )
        fired = SloEngine.from_spec("e.p99 <= 0").evaluate(registry=r)
        assert [a.rule.metric for a in fired] == ["e.p99"]

    def test_missing_metric_is_none(self):
        r = MetricsRegistry()
        assert resolve_metric_value(r, "nope") is None
        assert resolve_metric_value(r, "nope.rate") is None

    def test_empty_timeseries_is_none(self):
        r = MetricsRegistry()
        r.timeseries("s")
        assert resolve_metric_value(r, "s.rate") is None


class TestEngine:
    def test_violation_fires_typed_alert(self):
        r = MetricsRegistry()
        ts = r.timeseries("uplink.delivery")
        for v in (1, 0, 0, 0):
            ts.sample(v)
        engine = SloEngine.from_spec(
            "uplink.delivery.rate >= 0.99 over 200 frames ! critical"
        )
        fired = engine.evaluate(registry=r, context={"run": "t"})
        assert len(fired) == 1
        alert = fired[0]
        assert isinstance(alert, AlertEvent)
        assert alert.value == 0.25
        assert alert.context == {"run": "t"}
        assert "SLO violated" in alert.message
        assert engine.violated
        assert engine.to_dicts()[0]["rule"]["severity"] == "critical"

    def test_satisfied_objective_is_silent(self):
        r = MetricsRegistry()
        r.gauge("gateway.breaker.open").set(0)
        engine = SloEngine.from_spec("gateway.breaker.open == 0")
        assert engine.evaluate(registry=r) == []
        assert not engine.violated

    def test_missing_data_skips_not_fires(self):
        engine = SloEngine.from_spec("uplink.delivery.rate >= 0.99")
        assert engine.evaluate(registry=MetricsRegistry()) == []

    def test_alerts_accumulate_across_passes(self):
        r = MetricsRegistry()
        r.gauge("g").set(5)
        engine = SloEngine.from_spec("g <= 1")
        engine.evaluate(registry=r)
        engine.evaluate(registry=r)
        assert len(engine.alerts) == 2

    def test_evaluate_increments_fired_counter_when_metrics_on(self):
        with obs.session(tracing=False) as (registry, _):
            registry.gauge("g").set(5)
            engine = SloEngine.from_spec("g <= 1")
            engine.evaluate(registry=registry)
            assert registry.snapshot()["slo.alerts.fired"]["value"] == 1


class TestGatewayPreemption:
    """Alert-driven quarantine pre-emption (tentpole wiring)."""

    def _gateway(self, slo=None):
        from repro.net.gateway import BackscatterGateway

        class _FailReader:
            max_attempts = 1

            def query(self, *a, **k):
                class R:
                    success = False
                    attempts = 1
                return R()

        return BackscatterGateway(
            _FailReader(), helper_rate_fn=lambda: 100.0,
            offline_threshold=3, slo=slo,
        )

    def test_alert_preempts_breaker_before_threshold(self):
        with obs.session(tracing=False):
            engine = SloEngine.from_spec(
                "gateway.delivery.rate >= 0.5 over 4 polls ! critical quarantine"
            )
            gw = self._gateway(slo=engine)
            gw.register(1)
            gw.poll_once()  # one failure -> delivery 0.0 -> alert fires
            status = gw.registry[1]
            # Normal breaker would need 3 consecutive failures; the SLO
            # alert pre-empts after 1.
            assert status.consecutive_failures == 1
            assert status.quarantined
            assert gw.alerts and gw.alerts[0].rule.action == "quarantine"

    def test_no_action_alert_does_not_preempt(self):
        with obs.session(tracing=False):
            engine = SloEngine.from_spec(
                "gateway.delivery.rate >= 0.5 over 4 polls ! warn"
            )
            gw = self._gateway(slo=engine)
            gw.register(1)
            gw.poll_once()
            assert not gw.registry[1].quarantined
            assert gw.alerts  # recorded, just not acted on

    def test_slo_inert_when_metrics_disabled(self):
        engine = SloEngine.from_spec(
            "gateway.delivery.rate >= 0.5 ! critical quarantine"
        )
        gw = self._gateway(slo=engine)
        gw.register(1)
        gw.poll_once()
        assert gw.alerts == []
        assert not gw.registry[1].quarantined
