"""Observability: metrics, tracing, and run manifests for the pipeline.

The whole link simulation (phy -> tag -> mac -> core decoders -> sim
drivers -> benchmarks) reports through this package:

* **Metrics** — counters, gauges, histograms (DDSketch) and time
  series in an in-process :class:`~repro.obs.metrics.MetricsRegistry`
  with JSON export.
* **Spans** — :func:`span` context-manager/decorator recording
  wall-time, hierarchy, and structured attributes per pipeline stage.
* **Manifests** — :func:`record_run` captures seed, calibrated
  parameters, git SHA, and a metric snapshot per experiment run.

Everything is **off by default** and costs a boolean check per call
site when off. Turn it on globally with :func:`enable` /
:func:`configure`, or scoped with :func:`session`::

    from repro import obs

    with obs.session() as (registry, tracer):
        run_uplink_ber(0.4, 30, seed=7)
        print(registry.snapshot()["uplink.bits.errors"])

Instrumented code uses the module-level accessors, which return live
metrics while enabled and shared no-ops while disabled::

    obs.counter("uplink.decodes").inc()
    obs.histogram("uplink.mrc.weight").observe_many(weights)
    with obs.span("uplink.decode", mode=mode):
        ...

Naming conventions and the manifest schema are documented in
``docs/observability.md``.
"""

from repro._lazy import attach
from repro.obs import state
from repro.obs.metrics import NULL_METRIC

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.obs.export": [
        "dumps", "dumps_line", "jsonable", "loads_line", "read_json",
        "write_json",
    ],
    "repro.obs.fleet": [
        "FleetAggregator", "QuantileSketch", "SpaceSavingSketch",
        "TagHealthRegistry",
    ],
    "repro.obs.manifest": [
        "RunManifest", "build_manifest", "git_sha", "load_manifest",
        "record_run",
    ],
    "repro.obs.metrics": ["Counter", "Gauge", "MetricsRegistry"],
    "repro.obs.perf": [
        "AlertEvent", "BudgetObjective", "BurnRateAlert", "BurnRateEngine",
        "ExemplarReservoir", "SloEngine", "SloRule", "TimeSeries",
    ],
    "repro.obs.state": [
        "configure", "disable", "enable", "enabled", "get_recorder",
        "get_registry", "get_tracer", "manifest_dir", "metrics_enabled",
        "recording_enabled", "reset", "session", "tracing_enabled",
    ],
    "repro.obs.tracing": ["Span", "Tracer", "current_span", "span"],
}, eager=[
    "NULL_METRIC", "counter", "gauge", "histogram", "state", "timeseries",
])


def counter(name: str):
    """Live :class:`Counter` while metrics are on, else a no-op."""
    if state.metrics_enabled():
        return state.get_registry().counter(name)
    return NULL_METRIC


def gauge(name: str):
    """Live :class:`Gauge` while metrics are on, else a no-op."""
    if state.metrics_enabled():
        return state.get_registry().gauge(name)
    return NULL_METRIC


def histogram(name: str):
    """Live :class:`QuantileSketch` while metrics are on, else a no-op."""
    if state.metrics_enabled():
        return state.get_registry().histogram(name)
    return NULL_METRIC


def timeseries(name: str, capacity=None):
    """Live :class:`TimeSeries` while metrics are on, else a no-op."""
    if state.metrics_enabled():
        return state.get_registry().timeseries(name, capacity=capacity)
    return NULL_METRIC
