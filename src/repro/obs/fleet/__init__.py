"""Fleet-scale telemetry: mergeable sketches and bounded per-tag health.

Per-run telemetry keeps raw samples; a gateway serving thousands of
tags cannot.  This package holds the fixed-memory substrate the
fleet-scale roadmap item builds on:

* :mod:`~repro.obs.fleet.sketch` — a DDSketch-style
  :class:`QuantileSketch` (relative-error quantiles) and a
  space-saving :class:`SpaceSavingSketch` (top-K heavy hitters), both
  mergeable and deterministic with ``to_payload`` / ``merge_payload``
  contracts matching :class:`~repro.obs.metrics.MetricsRegistry` — the
  sim engine merges worker sketch state into the parent bit-identically
  across worker counts.
* :mod:`~repro.obs.fleet.health` — :class:`TagHealthRegistry`, an
  LRU-bounded per-tag health ledger (delivery rate, BER EWMA, breaker
  state, deadline misses) with an aggregated ``other`` overflow bucket,
  conserved accounting (``tags_seen == tracked + evictions``), and
  robust z-score anomaly flags over the fleet distribution.
* :mod:`~repro.obs.fleet.aggregate` — :class:`FleetAggregator`, the
  object the serve gateway feeds from ``settle()`` and snapshots into
  the ``repro.telemetry/1`` stream's ``fleet`` block.

See the "Fleet telemetry" section of ``docs/observability.md``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.obs.fleet.aggregate": [
        "FLEET_SCHEMA", "OFFENDER_KINDS", "FleetAggregator",
    ],
    "repro.obs.fleet.health": [
        "HEALTH_BINS", "TagHealth", "TagHealthRegistry",
    ],
    "repro.obs.fleet.report": [
        "render_fleet_artifact", "render_fleet_block", "render_offenders",
    ],
    "repro.obs.fleet.sketch": [
        "DEFAULT_ALPHA", "DEFAULT_HH_CAPACITY", "DEFAULT_MAX_BUCKETS",
        "QuantileSketch", "SpaceSavingSketch",
    ],
})
