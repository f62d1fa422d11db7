"""Performance telemetry: time series, SLOs, and their rendering.

Layered on the :mod:`repro.obs` registry, this package turns the
point-in-time instrumentation into an *operated* system:

* :mod:`~repro.obs.perf.timeseries` — fixed-capacity ring-buffer
  :class:`TimeSeries` with windowed mean/min/max/p50/p95/p99, reached
  through ``obs.timeseries(name).sample(v)``;
* :mod:`~repro.obs.perf.slo` — declarative :class:`SloRule` objectives
  (``uplink.delivery.rate >= 0.99 over 200 frames``) evaluated by an
  :class:`SloEngine` into typed :class:`AlertEvent`s;
* :mod:`~repro.obs.perf.report` — rendering of the tracer's stage
  table (``--profile``) and of alerts.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.obs.perf.burnrate": [
        "BudgetObjective", "BurnRateAlert", "BurnRateEngine", "BurnWindow",
        "derive_windows",
    ],
    "repro.obs.perf.slo": [
        "AlertEvent", "SloEngine", "SloRule", "parse_slo_rule",
        "parse_slo_spec", "resolve_metric_value",
    ],
    "repro.obs.perf.timeseries": [
        "DEFAULT_CAPACITY", "DEFAULT_EXEMPLAR_BOUNDS", "ExemplarReservoir",
        "TimeSeries",
    ],
})
