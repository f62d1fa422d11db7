"""Fleet aggregator: one object folding settled requests into the
fixed-memory fleet view.

The serve gateway funnels every terminal request disposition through
:meth:`FleetAggregator.fold`; the aggregator maintains

* a latency :class:`~repro.obs.fleet.sketch.QuantileSketch` over
  delivered virtual latencies,
* four :class:`~repro.obs.fleet.sketch.SpaceSavingSketch` offender
  boards — top-K tags by shed count, failure count
  (decode-failed / worker-lost / deadline-abandoned), delivered error
  bits, and cumulative delivered latency,
* the bounded :class:`~repro.obs.fleet.health.TagHealthRegistry`.

Everything is virtual-time data folded in settle order, so the whole
aggregate — including the serialized payload — is a pure function of
``(config, seed)`` and byte-identical across worker counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.fleet.health import TagHealthRegistry
from repro.obs.fleet.sketch import QuantileSketch, SpaceSavingSketch
from repro.serve.breaker import BREAKER_CLOSED

#: Schema tag stamped into ``--health-out`` artifacts.
FLEET_SCHEMA = "repro.fleet/1"

#: Offender-board kinds, in canonical export order.
OFFENDER_KINDS = ("shed", "failure", "error_bits", "latency")

#: Statuses folded onto the ``failure`` offender board.
_FAILURE_STATUSES = ("decode_failed", "worker_lost",
                     "deadline_abandoned")


class FleetAggregator:
    """Fold per-request outcomes into fixed-memory fleet telemetry."""

    def __init__(
        self,
        capacity: int = 64,
        top_k: int = 8,
        z_threshold: float = 3.0,
        min_requests: int = 3,
    ) -> None:
        self.top_k = int(top_k)
        self.latency = QuantileSketch("fleet.latency.virtual_s")
        self.offenders: Dict[str, SpaceSavingSketch] = {
            kind: SpaceSavingSketch(f"fleet.offenders.{kind}",
                                    capacity=self.top_k)
            for kind in OFFENDER_KINDS
        }
        self.health = TagHealthRegistry(
            capacity=capacity,
            z_threshold=z_threshold,
            min_requests=min_requests,
        )
        self.outcomes = 0

    # -- ingest -------------------------------------------------------------

    def fold(
        self,
        tag: int,
        status: str,
        latency_s: float = 0.0,
        errors: int = 0,
        bits: int = 0,
        breaker_state: str = BREAKER_CLOSED,
        t: float = 0.0,
        corr_id: str = "",
    ) -> None:
        """Fold one settled request (gateway ``settle()`` calls this)."""
        self.outcomes += 1
        self.health.fold(
            tag, status, errors=errors, bits=bits,
            breaker_state=breaker_state, t=t, corr_id=corr_id,
        )
        if status == "shed":
            self.offenders["shed"].offer(tag)
        elif status in _FAILURE_STATUSES:
            self.offenders["failure"].offer(tag)
        elif status == "delivered":
            self.latency.observe(max(0.0, float(latency_s)))
            if latency_s > 0.0:
                self.offenders["latency"].offer(tag, weight=latency_s)
            if errors > 0:
                self.offenders["error_bits"].offer(tag, weight=errors)

    def detect(self, t: float) -> List[Dict[str, Any]]:
        """Re-run anomaly detection (one call per telemetry tick)."""
        return self.health.detect(t)

    # -- export -------------------------------------------------------------

    def top_offenders(
        self, k: Optional[int] = None
    ) -> Dict[str, List[Dict[str, Any]]]:
        k = self.top_k if k is None else int(k)
        return {
            kind: self.offenders[kind].top(k)
            for kind in OFFENDER_KINDS
        }

    def snapshot_block(self, transitions: List[Dict[str, Any]]
                       ) -> Dict[str, Any]:
        """The ``fleet`` block embedded in each telemetry snapshot."""
        return {
            "outcomes": self.outcomes,
            "latency": self.latency.summary(),
            "offenders": self.top_offenders(),
            **self.health.snapshot_block(),
            "transitions": transitions,
        }

    def summary(self) -> Dict[str, Any]:
        """End-of-run summary (rides in ``ServeReport.fleet``)."""
        return {
            "outcomes": self.outcomes,
            "tracked": self.health.tracked,
            "evictions": self.health.evictions,
            "tags_seen": self.health.tags_seen,
            "other_requests": self.health.other.requests,
            "anomalous": self.health.anomalous_tags(),
            "transitions_total": self.health.transitions_total,
            "histogram": self.health.histogram(),
            "latency": self.latency.summary(),
            "offenders": self.top_offenders(),
        }

    def to_payload(self) -> Dict[str, Any]:
        """Canonical full-state export (byte-identity contract)."""
        return {
            "outcomes": self.outcomes,
            "latency": self.latency.to_payload(),
            "offenders": {
                kind: self.offenders[kind].to_payload()
                for kind in OFFENDER_KINDS
            },
            "health": self.health.to_payload(),
        }

    def artifact(
        self, run_id: str, seed: int, t_s: float
    ) -> Dict[str, Any]:
        """The ``--health-out`` artifact body (``repro.fleet/1``)."""
        return {
            "schema": FLEET_SCHEMA,
            "run_id": run_id,
            "seed": int(seed),
            "t_s": float(t_s),
            "summary": self.summary(),
            "transitions": list(self.health.transitions),
            "payload": self.to_payload(),
        }
