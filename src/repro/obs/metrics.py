"""In-process metrics: counters, gauges, histograms, time series.

Zero-dependency aggregation designed for the simulation pipeline: a
metric is a named slot in a :class:`MetricsRegistry`.  A histogram is a
:class:`~repro.obs.fleet.sketch.QuantileSketch` (DDSketch): every
observation lands in a relative-error bucket, so snapshot percentiles
cover the whole run within ``alpha`` in bounded memory, and worker
sketches merge by adding bucket counts.  A
:class:`~repro.obs.perf.timeseries.TimeSeries` keeps its recent samples
in time order for windowed SLOs.

Naming convention (see ``docs/observability.md``): dot-separated,
``<subsystem>.<stage>.<quantity>`` — e.g. ``uplink.mrc.weight``,
``mac.airtime_s``. Unit suffixes (``_s``, ``_db``, ``_m``) are part of
the name.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.obs.fleet.sketch import QuantileSketch
from repro.obs.perf.timeseries import TimeSeries


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        self.value += amount

    def summary(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Last-written value (plus how many times it was written)."""

    kind = "gauge"

    __slots__ = ("name", "value", "writes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.writes = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.writes += 1

    def summary(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value, "writes": self.writes}


class MetricsRegistry:
    """Named metrics with typed accessors and snapshot export.

    Accessors create the metric on first use; requesting an existing
    name as a different type raises :class:`ConfigurationError` (a
    nearly-always-a-bug situation worth failing loudly on).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            if not name:
                raise ConfigurationError("metric name must be non-empty")
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> QuantileSketch:
        """A :class:`QuantileSketch` at the default alpha (created on
        first use)."""
        return self._get(name, QuantileSketch)

    def timeseries(self, name: str, capacity: Optional[int] = None) -> TimeSeries:
        """A ring-buffer :class:`TimeSeries` (created on first use).

        ``capacity`` only applies at creation; re-requesting an
        existing series with a different capacity is not an error (the
        original ring is kept — capacity is a creation-time hint).
        """
        metric = self._metrics.get(name)
        if metric is None:
            if not name:
                raise ConfigurationError("metric name must be non-empty")
            if capacity is None:
                metric = TimeSeries(name)
            else:
                metric = TimeSeries(name, capacity=capacity)
            self._metrics[name] = metric
        elif not isinstance(metric, TimeSeries):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a timeseries"
            )
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics as ``{name: summary}``, sorted by name."""
        return {name: self._metrics[name].summary() for name in self.names()}

    def reset(self) -> None:
        self._metrics.clear()

    def to_payload(self) -> Dict[str, Dict[str, object]]:
        """Lossless export for cross-process merging.

        Unlike :meth:`snapshot` (a human/report-facing aggregate view),
        the payload preserves everything :meth:`merge_payload` needs to
        reconstruct equivalent state in another registry: raw counter
        values, gauge write counts, histogram buckets, and timeseries
        rings.  The result is pickle-safe (plain dicts, lists, floats)
        so a `ProcessPoolExecutor` worker can ship it back to the
        parent.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Gauge):
                entry: Dict[str, object] = {"kind": "gauge",
                                            "value": metric.value,
                                            "writes": metric.writes}
            elif isinstance(metric, Counter):
                entry = {"kind": "counter", "value": metric.value}
            else:
                entry = {"kind": metric.kind, **metric.to_payload()}
            out[name] = entry
        return out

    def merge_payload(self, payload: Dict[str, Dict[str, object]]) -> None:
        """Fold a worker registry payload into this registry.

        Counters add, gauges take the worker's last write (when it
        wrote at all), histogram bucket counts add, timeseries append
        samples in worker order.  Merging payloads in trial order
        therefore gives the registry state a serial run would have
        produced, with one exception: a histogram's ``total`` (and so
        its mean) is summed per task and can differ from the serial sum
        in the last bit.
        """
        for name, entry in payload.items():
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(name).inc(float(entry["value"]))
            elif kind == "gauge":
                gauge = self.gauge(name)
                writes = int(entry.get("writes", 0))
                if writes > 0:
                    gauge.value = entry["value"]
                gauge.writes += writes
            elif kind == "timeseries":
                series = self.timeseries(name, capacity=entry.get("capacity"))
                series.merge_payload(entry)
            elif kind == "quantile_sketch":
                self.histogram(name).merge_payload(entry)
            else:
                raise ConfigurationError(
                    f"unknown metric kind {kind!r} in payload entry {name!r}"
                )


class NullMetric:
    """No-op stand-in returned while metrics are disabled.

    Implements the union of the metric write APIs so instrumentation
    call sites never branch on type.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    def sample(self, value: float, t: Optional[float] = None) -> None:
        pass


#: Shared no-op instance (one allocation for the process lifetime).
NULL_METRIC = NullMetric()
