"""The streaming decode gateway: virtual-time serve loop.

:class:`StreamingDecodeGateway` runs a batched single-server queueing
loop over a deterministic arrival schedule.  Decode *capacity* is
modeled in virtual time (one request occupies the server for the
payload's airtime, ``payload_bits / bit_rate_bps``, unless configured
otherwise), while the decode *computation* is real — every admitted
request runs the full uplink pipeline under
:func:`repro.sim.engine.run_trials_supervised`, so worker crashes and
stalls are genuine process deaths and hangs, not simulations.

Because all control decisions (admission, shedding, deadlines, breaker
state, service completions) use only virtual time and seeded draws,
the entire run — including which requests are shed and what payloads
are delivered — is a pure function of ``(config, seed)``.  Wall-clock
time appears solely as measurement (latency metrics in the report).

Every request ends in exactly one :class:`ServeOutcome`; the loop
maintains ``arrivals == delivered + decode_failed + shed +
deadline_abandoned + worker_lost`` as an internal invariant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.faults.base import FaultPlan
from repro.obs import forensics
from repro.obs import state as obs_state
from repro.obs.perf.burnrate import BudgetObjective, BurnRateEngine
from repro.obs.perf.timeseries import (
    ExemplarReservoir,
    TimeSeries,
    percentile_of,
)
from repro.serve.arrivals import ARRIVAL_PROFILES, generate_arrivals
from repro.serve.breaker import TagBreaker
from repro.serve.deadline import DeadlineBudget
from repro.serve.decode import (
    ServeBatchTask,
    ServeDecodeTask,
    decode_batch_task,
    decode_request_task,
)
from repro.serve.lifecycle import LifecycleTracker
from repro.serve.queues import BoundedPriorityQueue, ShedEvent, count_shed
from repro.serve.report import ServeReport
from repro.serve.request import (
    SHED_DRAIN,
    SHED_EGRESS_FULL,
    SHED_QUARANTINED,
    STATUS_DEADLINE,
    STATUS_DECODE_FAILED,
    STATUS_DELIVERED,
    STATUS_SHED,
    STATUS_WORKER_LOST,
    DecodeRequest,
    ServeOutcome,
)
from repro.serve.telemetry import (
    TELEMETRY_WINDOW_CADENCES,
    TelemetrySnapshotter,
)

if TYPE_CHECKING:
    # Only annotations name it: a session without SLO rules never loads
    # the rule engine.
    from repro.obs.perf.slo import SloEngine

#: Metric name of the gateway's private 0/1 good-event series watched
#: by the burn-rate engine (1 = delivered, 0 = any other disposition).
BUDGET_METRIC = "serve.request.ok"

#: Metric name of the gateway's private virtual-latency series.
LATENCY_METRIC = "serve.latency.virtual_s"

#: Forensics failure names for serve-level dispositions (mapped to
#: attribution labels by :mod:`repro.obs.forensics.attribution`).
FAILURE_SHED = "Shed"
FAILURE_DEADLINE = "DeadlineAbandoned"
FAILURE_WORKER_LOST = "WorkerLost"


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class ServeConfig:
    """Declarative configuration for one serve run."""

    duration_s: float = 30.0
    offered_load_rps: float = 4.0
    burst_load_rps: Optional[float] = None
    burst_start_s: float = 0.0
    burst_end_s: float = 0.0
    deadline_ms: float = 4000.0
    queue_capacity: int = 32
    egress_capacity: int = 256
    batch: int = 4
    #: Micro-batching: when set, up to ``batch_max`` queued requests
    #: coalesce into ONE supervised :class:`ServeBatchTask` (instead of
    #: one task per request) whose members decode one by one.  The
    #: gateway holds dispatch while the next arrival lands within
    #: ``batch_window_s`` (virtual) of the oldest queued request, so a
    #: trickle of traffic still forms batches.  None = per-request
    #: dispatch.
    batch_max: Optional[int] = None
    batch_window_s: float = 0.0
    workers: int = 0
    service_time_s: Optional[float] = None
    n_tags: int = 8
    priority_mix: Tuple[float, ...] = (0.2, 0.6, 0.2)
    payload_bits: int = 16
    tag_to_reader_m: float = 0.3
    packets_per_bit: float = 8.0
    mode: str = "csi"
    bit_rate_bps: float = 100.0
    arrival_profile: str = "poisson"
    office_hour: float = 14.5
    helper_to_tag_m: float = 3.0
    drain_budget_s: float = 60.0
    publish_rate_rps: Optional[float] = None
    stall_timeout_s: float = 0.35
    max_attempts: int = 3
    breaker_threshold: int = 3
    breaker_quarantine_s: float = 5.0
    recovery_window_s: float = 5.0
    recovery_delivery_ratio: float = 0.9
    budget_target: float = 0.99
    budget_window_s: float = 3600.0
    telemetry_cadence_s: float = 1.0
    #: Fleet telemetry: tracked-tag bound of the per-tag health
    #: registry (memory is O(fleet_capacity); overflow aggregates into
    #: the ``other`` bucket), offender-board size, and the robust
    #: z-score anomaly threshold (see ``repro.obs.fleet``).
    fleet_capacity: int = 64
    fleet_top_k: int = 8
    fleet_anomaly_z: float = 3.0
    fleet_min_requests: int = 3
    #: Sabotaged tags: requests from these tag addresses decode at
    #: ``outlier_distance_m`` instead of ``tag_to_reader_m`` — a
    #: physically real degradation used to exercise the fleet anomaly
    #: detector.
    outlier_tags: Tuple[int, ...] = ()
    outlier_distance_m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.offered_load_rps <= 0:
            raise ConfigurationError("offered_load_rps must be positive")
        if self.deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be positive")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if self.batch < 1:
            raise ConfigurationError("batch must be >= 1")
        if self.batch_max is not None and self.batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1 or None")
        if self.batch_window_s < 0:
            raise ConfigurationError("batch_window_s must be >= 0")
        if self.payload_bits < 1:
            raise ConfigurationError("payload_bits must be >= 1")
        for name in ("bit_rate_bps", "packets_per_bit", "tag_to_reader_m",
                     "helper_to_tag_m"):
            if not _finite_positive(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite and positive"
                )
        if self.arrival_profile not in ARRIVAL_PROFILES:
            raise ConfigurationError(
                f"arrival_profile must be one of {ARRIVAL_PROFILES}"
            )
        if len(self.priority_mix) != 3 or any(
            p < 0 for p in self.priority_mix
        ) or sum(self.priority_mix) <= 0:
            raise ConfigurationError(
                "priority_mix must be 3 non-negative weights"
            )
        if self.burst_load_rps is not None and \
                self.burst_load_rps < self.offered_load_rps:
            raise ConfigurationError(
                "burst_load_rps must be >= offered_load_rps"
            )
        if not (0.0 < self.budget_target < 1.0):
            raise ConfigurationError("budget_target must be in (0, 1)")
        if self.budget_window_s <= 0:
            raise ConfigurationError("budget_window_s must be positive")
        if self.telemetry_cadence_s <= 0:
            raise ConfigurationError("telemetry_cadence_s must be positive")
        if self.fleet_capacity < 1:
            raise ConfigurationError("fleet_capacity must be >= 1")
        if self.fleet_top_k < 1:
            raise ConfigurationError("fleet_top_k must be >= 1")
        if self.fleet_anomaly_z <= 0:
            raise ConfigurationError("fleet_anomaly_z must be positive")
        if self.fleet_min_requests < 1:
            raise ConfigurationError("fleet_min_requests must be >= 1")
        if self.outlier_tags:
            if self.outlier_distance_m is None:
                raise ConfigurationError(
                    "outlier_tags require outlier_distance_m"
                )
            if any(t < 0 for t in self.outlier_tags):
                raise ConfigurationError(
                    "outlier_tags must be non-negative tag addresses"
                )
        if self.outlier_distance_m is not None and \
                not _finite_positive(self.outlier_distance_m):
            raise ConfigurationError(
                "outlier_distance_m must be finite and positive"
            )

    @property
    def effective_service_s(self) -> float:
        """Virtual decode-slot occupancy per request (payload airtime)."""
        if self.service_time_s is not None:
            return float(self.service_time_s)
        return self.payload_bits / self.bit_rate_bps

    @property
    def capacity_rps(self) -> float:
        return 1.0 / self.effective_service_s

    def to_dict(self) -> Dict[str, Any]:
        d = {
            k: getattr(self, k)
            for k in self.__dataclass_fields__  # type: ignore[attr-defined]
        }
        d["priority_mix"] = list(self.priority_mix)
        d["outlier_tags"] = list(self.outlier_tags)
        d["capacity_rps"] = self.capacity_rps
        return d


@dataclass
class ServeResult:
    """Full output of one serve run."""

    report: ServeReport
    outcomes: List[ServeOutcome]
    shed_events: List[ShedEvent]

    @property
    def delivered(self) -> List[ServeOutcome]:
        return [o for o in self.outcomes if o.delivered]

    def delivered_payloads(self) -> Dict[str, Tuple[int, ...]]:
        """corr_id -> decoded payload, for determinism comparisons."""
        return {o.corr_id: o.payload for o in self.outcomes if o.delivered}


class StreamingDecodeGateway:
    """Always-on decode service over a bounded ingress queue."""

    def __init__(
        self,
        config: ServeConfig,
        faults: Optional[FaultPlan] = None,
        slo: Optional[SloEngine] = None,
        seed: Optional[int] = None,
        telemetry_out: Optional[str] = None,
        health_out: Optional[str] = None,
    ) -> None:
        from repro.obs.fleet import FleetAggregator
        from repro.sim.seeding import resolve_rng

        _, effective = resolve_rng(None, seed)
        self.config = config
        self.faults = faults
        self.slo = slo
        self.seed = int(effective if effective is not None else 0)
        self.run_id = f"serve-{self.seed}"
        self.telemetry_out = telemetry_out
        self.health_out = health_out
        self.breaker = TagBreaker(
            failure_threshold=config.breaker_threshold,
            quarantine_s=config.breaker_quarantine_s,
        )
        #: Fleet telemetry fold target; every settled request lands
        #: here (fixed memory regardless of distinct tag count).
        self.fleet = FleetAggregator(
            capacity=config.fleet_capacity,
            top_k=config.fleet_top_k,
            z_threshold=config.fleet_anomaly_z,
            min_requests=config.fleet_min_requests,
        )

    # -- forensics ----------------------------------------------------------

    def _record_disposition(
        self, req: DecodeRequest, failure: str, reason: str, now_s: float
    ) -> None:
        if not obs.recording_enabled():
            return
        forensics.begin(
            "serve", run_id=self.run_id, trial=req.seq, packet=0
        )
        forensics.stage(
            "serve",
            disposition=failure,
            reason=reason,
            priority=req.priority_name,
            arrival_s=req.arrival_s,
            deadline_s=req.deadline_s,
            time_s=now_s,
        )
        forensics.commit(errors=req.payload_bits, failure=failure)

    # -- terminal dispositions ---------------------------------------------

    def _shed_outcome(
        self, req: DecodeRequest, reason: str, now_s: float
    ) -> ServeOutcome:
        self._record_disposition(req, FAILURE_SHED, reason, now_s)
        return ServeOutcome(
            seq=req.seq,
            corr_id=req.corr_id,
            tag_address=req.tag_address,
            priority=req.priority,
            status=STATUS_SHED,
            reason=reason,
            errors=req.payload_bits,
            completed_s=now_s,
        )

    def _shed_event(
        self, req: DecodeRequest, reason: str, now_s: float
    ) -> ShedEvent:
        event = ShedEvent(
            seq=req.seq,
            corr_id=req.corr_id,
            priority=req.priority,
            reason=reason,
            time_s=now_s,
            worst_present=-1,
        )
        count_shed(event)
        return event

    # -- the loop -----------------------------------------------------------

    def run(
        self, should_stop: Optional[Callable[[], bool]] = None
    ) -> ServeResult:
        cfg = self.config
        wall_start = time.perf_counter()
        arrivals = generate_arrivals(cfg, self.seed)
        service = cfg.effective_service_s
        ingress = BoundedPriorityQueue(cfg.queue_capacity)
        egress: List[ServeOutcome] = []
        egress_depth_max = 0
        published = 0
        outcomes: List[ServeOutcome] = []
        shed_events: List[ShedEvent] = []
        windows: Dict[int, Dict[str, int]] = {}
        sup_totals = {"crashes": 0, "stalls": 0, "restarts": 0,
                      "retries": 0, "dead_letters": 0}
        wall_latencies: List[float] = []
        by_seq = {r.seq: r for r in arrivals}
        plan = self.faults if (
            self.faults is not None and self.faults.has_worker_faults
        ) else None
        drain_deadline = cfg.duration_s + cfg.drain_budget_s
        now = 0.0
        i = 0
        stopped = False
        batching = cfg.batch_max is not None
        outliers = frozenset(cfg.outlier_tags)
        batch_seq = 0
        batch_sizes: List[int] = []

        # Telemetry plumbing.  Everything below runs on the virtual
        # clock: the lifecycle tracker builds span trees from virtual
        # bounds, the burn engine reads gateway-private ring buffers
        # sampled at virtual completion times, and snapshots fire on a
        # virtual cadence — so all of it is a pure function of
        # ``(config, seed)``, independent of worker count.
        tracer = (
            obs_state.get_tracer() if obs_state.tracing_enabled() else None
        )
        lifecycle = LifecycleTracker(self.run_id, tracer)
        exemplars = ExemplarReservoir()
        series_cap = max(1024, 2 * len(arrivals) + 8)
        ok_series = TimeSeries(BUDGET_METRIC, capacity=series_cap)
        lat_series = TimeSeries(LATENCY_METRIC, capacity=series_cap)
        series = {BUDGET_METRIC: ok_series, LATENCY_METRIC: lat_series}
        if self.slo is not None and self.slo.burn.objectives:
            burn = self.slo.burn
        else:
            burn = BurnRateEngine([BudgetObjective(
                BUDGET_METRIC,
                target=cfg.budget_target,
                budget_s=cfg.budget_window_s,
                action="quarantine",
            )])
        snapshotter: Optional[TelemetrySnapshotter] = None
        if self.telemetry_out is not None:
            snapshotter = TelemetrySnapshotter(
                self.telemetry_out,
                run_id=self.run_id,
                cadence_s=cfg.telemetry_cadence_s,
                meta={
                    "seed": self.seed,
                    "duration_s": cfg.duration_s,
                    "budget_target": cfg.budget_target,
                    "budget_window_s": cfg.budget_window_s,
                },
            )
        counts: Dict[str, int] = {}
        shed_reasons: Dict[str, int] = {}
        recent_failures: Dict[int, float] = {}
        preempted = 0
        next_tick = cfg.telemetry_cadence_s

        def bump(t: float, key: str, n: int = 1) -> None:
            w = windows.setdefault(
                int(t // cfg.recovery_window_s),
                {"arrived": 0, "delivered": 0, "queue_full": 0,
                 "deadline": 0},
            )
            w[key] = w.get(key, 0) + n

        def settle(outcome: ServeOutcome) -> None:
            """Every terminal disposition funnels through here exactly
            once: accounting, the burn-rate good-event sample, latency
            exemplars, and the request's lifecycle span tree."""
            outcomes.append(outcome)
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
            if outcome.status == STATUS_SHED:
                shed_reasons[outcome.reason] = \
                    shed_reasons.get(outcome.reason, 0) + 1
            t = outcome.completed_s
            ok_series.sample(1.0 if outcome.delivered else 0.0, t=t)
            if outcome.delivered:
                lat_series.sample(outcome.latency_s, t=t)
                exemplars.observe(outcome.latency_s, outcome.corr_id, t,
                                  tag=outcome.tag_address)
            elif outcome.status in (STATUS_DECODE_FAILED,
                                    STATUS_WORKER_LOST):
                recent_failures[outcome.tag_address] = t
            self.fleet.fold(
                outcome.tag_address,
                outcome.status,
                latency_s=outcome.latency_s,
                errors=outcome.errors,
                bits=len(outcome.payload) if outcome.delivered else 0,
                breaker_state=self.breaker.state_of(outcome.tag_address),
                t=t,
                corr_id=outcome.corr_id,
            )
            lifecycle.finish(outcome)

        def window_latency(t: float) -> Dict[str, Any]:
            cutoff = t - TELEMETRY_WINDOW_CADENCES * cfg.telemetry_cadence_s
            ordered = sorted(lat_series.values_since(cutoff))
            if not ordered:
                return {"count": 0, "mean": 0.0, "p50": 0.0,
                        "p95": 0.0, "p99": 0.0}
            return {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered),
                "p50": percentile_of(ordered, 50),
                "p95": percentile_of(ordered, 95),
                "p99": percentile_of(ordered, 99),
            }

        def tick(t: float) -> None:
            """One cadence boundary: burn evaluation, the quarantine
            pre-emption hook, and (when enabled) a snapshot line."""
            nonlocal preempted
            transitions = burn.evaluate(
                series, t, context={"run_id": self.run_id, "t_s": t}
            )
            for alert in transitions:
                if alert.kind != "fired" or alert.action != "quarantine":
                    continue
                # Budget burning fast: stop giving decode slots to tags
                # that failed within the alert's evidence window instead
                # of waiting out the consecutive-failure threshold.
                horizon = t - alert.window.long_s
                for tag in sorted(recent_failures):
                    if recent_failures[tag] >= horizon and \
                            self.breaker.preempt(tag, t):
                        preempted += 1
            # Anomaly detection runs every tick regardless of the
            # snapshot stream, so the report's transition log is the
            # same with or without --telemetry-out.
            fleet_transitions = self.fleet.detect(t)
            if snapshotter is None:
                return
            snapshotter.snapshot({
                "t_s": t,
                "arrivals": i,
                "delivered": counts.get(STATUS_DELIVERED, 0),
                "decode_failed": counts.get(STATUS_DECODE_FAILED, 0),
                "shed": counts.get(STATUS_SHED, 0),
                "deadline_abandoned": counts.get(STATUS_DEADLINE, 0),
                "worker_lost": counts.get(STATUS_WORKER_LOST, 0),
                "shed_by_reason": dict(sorted(shed_reasons.items())),
                "queue_depth": len(ingress),
                "queue_depth_max": ingress.depth_max,
                "egress_depth": len(egress),
                "breaker": {
                    str(tag): st
                    for tag, st in self.breaker.states().items()
                },
                "breaker_preempted": preempted,
                "latency": window_latency(t),
                "budget": burn.status(series, t),
                "alerts": [a.to_dict() for a in transitions],
                "alerts_active": len(burn.active_alerts()),
                "exemplars": exemplars.to_dicts(),
                "fleet": self.fleet.snapshot_block(fleet_transitions),
            })

        def run_ticks(t: float) -> None:
            nonlocal next_tick
            while next_tick <= t:
                tick(next_tick)
                next_tick += cfg.telemetry_cadence_s

        def admit(req: DecodeRequest) -> None:
            obs.counter("serve.arrivals").inc()
            bump(req.arrival_s, "arrived")
            # Breaker state *before* the admission check (which flips
            # an expired quarantine to half-open) — the span records
            # what the gate saw, not what the check left behind.
            breaker_state = self.breaker.state_of(req.tag_address)
            depth = len(ingress)
            if not self.breaker.admit(req.tag_address, now):
                lifecycle.ingress(req, now, depth, breaker_state, False)
                shed_events.append(
                    self._shed_event(req, SHED_QUARANTINED, now)
                )
                settle(self._shed_outcome(req, SHED_QUARANTINED, now))
                return
            admitted, event = ingress.offer(req, now)
            lifecycle.ingress(req, now, depth, breaker_state, admitted)
            if event is not None:
                shed_events.append(event)
                bump(event.time_s, "queue_full")
                victim = req if not admitted else by_seq[event.seq]
                settle(self._shed_outcome(victim, event.reason, now))
            if admitted:
                obs.counter("serve.admitted").inc()

        def publish(outcome: ServeOutcome) -> None:
            nonlocal egress_depth_max
            if len(egress) >= cfg.egress_capacity:
                # The decode happened but nothing upstream will see it;
                # that is a shed, and it is counted like every other.
                req = by_seq[outcome.seq]
                shed_events.append(
                    self._shed_event(req, SHED_EGRESS_FULL,
                                     outcome.completed_s)
                )
                settle(self._shed_outcome(
                    req, SHED_EGRESS_FULL, outcome.completed_s
                ))
                return
            egress.append(outcome)
            egress_depth_max = max(egress_depth_max, len(egress))
            settle(outcome)
            obs.counter("serve.delivered").inc()
            obs.timeseries("serve.latency_s").sample(outcome.latency_s)
            bump(outcome.completed_s, "delivered")

        def drain_egress(t: float) -> None:
            nonlocal published
            if cfg.publish_rate_rps is None:
                published += len(egress)
                egress.clear()
                return
            allowance = int(t * cfg.publish_rate_rps) - published
            while egress and allowance > 0:
                egress.pop(0)
                published += 1
                allowance -= 1

        while i < len(arrivals) or len(ingress):
            if should_stop is not None and should_stop():
                stopped = True
                break
            if now > drain_deadline:
                break
            if not len(ingress):
                if i >= len(arrivals):
                    break
                now = max(now, arrivals[i].arrival_s)
                run_ticks(now)
            while i < len(arrivals) and arrivals[i].arrival_s <= now:
                admit(arrivals[i])
                i += 1
            obs.timeseries("serve.queue_depth").sample(float(len(ingress)))
            if not len(ingress):
                continue
            batch_id: Optional[int] = None
            if batching:
                # Coalesce: hold dispatch while the batch can still
                # grow — the next arrival lands within the window of
                # the oldest queued request.  If the window has time
                # left but no arrival will make it, dispatch at the
                # window boundary (the wait is honest latency).
                if len(ingress) < cfg.batch_max and i < len(arrivals):
                    oldest = ingress.oldest_arrival_s()
                    window_end = (
                        oldest if oldest is not None else now
                    ) + cfg.batch_window_s
                    if arrivals[i].arrival_s <= window_end:
                        now = max(now, arrivals[i].arrival_s)
                        run_ticks(now)
                        continue
                    if window_end > now:
                        now = window_end
                        run_ticks(now)
                batch_id = batch_seq
                batch_seq += 1
            batch = ingress.pop_batch(
                cfg.batch_max if batching else cfg.batch
            )
            if lifecycle.enabled:
                depth_after = len(ingress)
                for bi, req in enumerate(batch):
                    lifecycle.dispatch(
                        req, now, bi, len(batch), depth_after,
                        batch_id=batch_id,
                    )
            ready: List[DecodeRequest] = []
            for req in batch:
                budget = DeadlineBudget(
                    arrival_s=req.arrival_s,
                    budget_s=cfg.deadline_ms / 1000.0,
                )
                if not budget.can_meet(now, service):
                    obs.counter("serve.deadline_miss").inc()
                    bump(now, "deadline")
                    self._record_disposition(
                        req, FAILURE_DEADLINE, "unmeetable_slo", now
                    )
                    settle(ServeOutcome(
                        seq=req.seq,
                        corr_id=req.corr_id,
                        tag_address=req.tag_address,
                        priority=req.priority,
                        status=STATUS_DEADLINE,
                        reason="unmeetable_slo",
                        errors=req.payload_bits,
                        completed_s=now,
                        latency_s=now - req.arrival_s,
                    ))
                else:
                    ready.append(req)
            if not ready:
                continue
            from repro.sim import engine

            tasks = [
                ServeDecodeTask(
                    seq=req.seq,
                    corr_id=req.corr_id,
                    run_id=self.run_id,
                    root_seed=self.seed,
                    payload_bits=req.payload_bits,
                    tag_to_reader_m=(
                        cfg.outlier_distance_m
                        if req.tag_address in outliers
                        else cfg.tag_to_reader_m
                    ),
                    packets_per_bit=cfg.packets_per_bit,
                    mode=cfg.mode,
                    bit_rate_bps=cfg.bit_rate_bps,
                    start_s=req.arrival_s,
                    faults=self.faults,
                    helper_to_tag_m=cfg.helper_to_tag_m,
                    lenient=req.tag_address in outliers,
                )
                for req in ready
            ]
            if batching:
                # One supervised task for the whole micro-batch.  Its
                # sabotage key is the first member's seq, so a fault
                # plan's crash verdicts are stable under re-batching;
                # a dead-lettered batch loses every member.
                batch_sizes.append(len(ready))
                obs.counter("serve.batches").inc()
                obs.histogram("serve.batch_size").observe(
                    float(len(ready))
                )
                sup = engine.run_trials_supervised(
                    decode_batch_task,
                    [ServeBatchTask(
                        batch_id=batch_id if batch_id is not None else 0,
                        tasks=tuple(tasks),
                    )],
                    workers=cfg.workers,
                    sabotage=plan,
                    keys=[ready[0].seq],
                    stall_timeout_s=cfg.stall_timeout_s,
                    max_attempts=cfg.max_attempts,
                )
                if sup.dead_letters:
                    letter0 = sup.dead_letters[0]
                    dead = {j: letter0 for j in range(len(ready))}
                    rows: List[Optional[Dict[str, Any]]] = \
                        [None] * len(ready)
                else:
                    dead = {}
                    rows = sup.results[0]
                sup_totals["dead_letters"] += len(dead)
            else:
                sup = engine.run_trials_supervised(
                    decode_request_task,
                    tasks,
                    workers=cfg.workers,
                    sabotage=plan,
                    keys=[req.seq for req in ready],
                    stall_timeout_s=cfg.stall_timeout_s,
                    max_attempts=cfg.max_attempts,
                )
                dead = {d.index: d for d in sup.dead_letters}
                rows = sup.results
                sup_totals["dead_letters"] += len(sup.dead_letters)
            sup_totals["crashes"] += sup.crashes
            sup_totals["stalls"] += sup.stalls
            sup_totals["restarts"] += sup.restarts
            sup_totals["retries"] += sup.retries
            for j, req in enumerate(ready):
                slot_start = now + j * service
                completed = now + (j + 1) * service
                if j in dead:
                    letter = dead[j]
                    obs.counter("serve.worker_lost").inc()
                    lifecycle.decode(
                        req, slot_start, completed,
                        ok=False, errors=req.payload_bits,
                    )
                    self._record_disposition(
                        req, FAILURE_WORKER_LOST, letter.reason, completed
                    )
                    settle(ServeOutcome(
                        seq=req.seq,
                        corr_id=req.corr_id,
                        tag_address=req.tag_address,
                        priority=req.priority,
                        status=STATUS_WORKER_LOST,
                        reason=letter.reason,
                        errors=req.payload_bits,
                        completed_s=completed,
                        latency_s=completed - req.arrival_s,
                        attempts=letter.attempts,
                    ))
                    continue
                result = rows[j]
                wall_latencies.append(float(result["wall_s"]))
                lifecycle.decode(
                    req, slot_start, completed,
                    ok=bool(result["ok"]), errors=int(result["errors"]),
                )
                if result["ok"]:
                    self.breaker.record_success(req.tag_address)
                    publish(ServeOutcome(
                        seq=req.seq,
                        corr_id=req.corr_id,
                        tag_address=req.tag_address,
                        priority=req.priority,
                        status=STATUS_DELIVERED,
                        errors=result["errors"],
                        payload=tuple(result["payload"]),
                        completed_s=completed,
                        latency_s=completed - req.arrival_s,
                        wall_s=float(result["wall_s"]),
                    ))
                else:
                    self.breaker.record_failure(req.tag_address, completed)
                    obs.counter("serve.decode_failed").inc()
                    settle(ServeOutcome(
                        seq=req.seq,
                        corr_id=req.corr_id,
                        tag_address=req.tag_address,
                        priority=req.priority,
                        status=STATUS_DECODE_FAILED,
                        reason=result["failure"],
                        errors=result["errors"],
                        completed_s=completed,
                        latency_s=completed - req.arrival_s,
                        wall_s=float(result["wall_s"]),
                    ))
            now += len(ready) * service
            drain_egress(now)
            run_ticks(now)
            obs.timeseries("serve.queue_depth").sample(float(len(ingress)))

        # Anything still queued (or never admitted after an early stop)
        # is shed with the drain reason — accounted, never silent.
        for req in ingress.drain():
            shed_events.append(self._shed_event(req, SHED_DRAIN, now))
            settle(self._shed_outcome(req, SHED_DRAIN, now))
        while i < len(arrivals):
            req = arrivals[i]
            i += 1
            obs.counter("serve.arrivals").inc()
            bump(req.arrival_s, "arrived")
            lifecycle.ingress(
                req, now, len(ingress),
                self.breaker.state_of(req.tag_address), False,
            )
            shed_events.append(self._shed_event(req, SHED_DRAIN, now))
            settle(self._shed_outcome(req, SHED_DRAIN, now))
        drain_egress(max(now, cfg.duration_s) + cfg.drain_budget_s)

        # Final cadence boundaries (covers the recovery tail so a
        # burst-fired burn alert gets its clearing transition) and the
        # closing budget read.
        end_t = max(now, cfg.duration_s)
        run_ticks(end_t)
        budget_status = burn.status(series, end_t)
        budget_remaining = (
            budget_status[0]["remaining"] if budget_status else None
        )

        health_path: Optional[str] = None
        if self.health_out is not None:
            from repro.obs.export import write_json

            health_path = write_json(
                self.health_out,
                self.fleet.artifact(self.run_id, self.seed, end_t),
            )

        alerts = []
        if self.slo is not None:
            alerts = [
                a.to_dict() if hasattr(a, "to_dict") else dict(a)
                for a in self.slo.evaluate(
                    context={"run_id": self.run_id, "phase": "serve"}
                )
            ]
        report = self._build_report(
            arrivals=arrivals,
            outcomes=outcomes,
            shed_events=shed_events,
            windows=windows,
            sup_totals=sup_totals,
            wall_latencies=wall_latencies,
            queue_depth_max=ingress.depth_max,
            egress_depth_max=egress_depth_max,
            duration_virtual_s=now,
            wall_s=time.perf_counter() - wall_start,
            alerts=alerts,
            stopped=stopped,
            burn_alerts=[a.to_dict() for a in burn.alerts],
            budget_remaining=budget_remaining,
            exemplars=exemplars.to_dicts(),
            breaker_preempted=preempted,
            telemetry_path=snapshotter.path if snapshotter else None,
            telemetry_snapshots=(
                snapshotter.snapshots if snapshotter else 0
            ),
            batches=len(batch_sizes),
            batch_size_max=max(batch_sizes) if batch_sizes else 0,
            batch_size_mean=(
                sum(batch_sizes) / len(batch_sizes)
                if batch_sizes else 0.0
            ),
            fleet=self.fleet.summary(),
            health_path=health_path,
        )
        if snapshotter is not None:
            snapshotter.close(summary={
                "arrivals": report.arrivals,
                "delivered": report.delivered,
                "decode_failed": report.decode_failed,
                "shed": report.shed,
                "deadline_abandoned": report.deadline_abandoned,
                "worker_lost": report.worker_lost,
                "burn_alerts": len(burn.alerts),
                "budget_remaining": budget_remaining,
                "breaker_preempted": preempted,
            })
        return ServeResult(
            report=report, outcomes=outcomes, shed_events=shed_events
        )

    # -- report -------------------------------------------------------------

    def _recovery(
        self, windows: Dict[int, Dict[str, int]], last_window: int
    ) -> Tuple[Optional[float], bool]:
        """(recovery_s, recovered) after the overload burst clears."""
        cfg = self.config
        if cfg.burst_load_rps is None or cfg.burst_end_s <= 0:
            return None, True
        first = int(cfg.burst_end_s // cfg.recovery_window_s) + 1
        for w in range(first, last_window + 1):
            stats = windows.get(w)
            if not stats or stats["arrived"] == 0:
                continue
            ratio = stats["delivered"] / stats["arrived"]
            if ratio >= cfg.recovery_delivery_ratio and \
                    stats["queue_full"] == 0:
                end = (w + 1) * cfg.recovery_window_s
                return end - cfg.burst_end_s, True
        return None, False

    def _build_report(self, **kw: Any) -> ServeReport:
        cfg = self.config
        outcomes: List[ServeOutcome] = kw["outcomes"]
        by_status: Dict[str, int] = {}
        shed_by_reason: Dict[str, int] = {}
        shed_by_priority: Dict[str, int] = {}
        delivered_bits = 0
        error_bits = 0
        latencies = []
        for o in outcomes:
            by_status[o.status] = by_status.get(o.status, 0) + 1
            if o.status == STATUS_SHED:
                shed_by_reason[o.reason] = \
                    shed_by_reason.get(o.reason, 0) + 1
                name = o.to_dict()["priority"]
                shed_by_priority[name] = shed_by_priority.get(name, 0) + 1
            if o.delivered:
                delivered_bits += len(o.payload)
                error_bits += o.errors
                latencies.append(o.latency_s)
        windows = kw["windows"]
        last_window = max(windows) if windows else 0
        recovery_s, recovered = self._recovery(windows, last_window)
        wall = sorted(kw["wall_latencies"])
        virt = sorted(latencies)

        def pct(values: List[float], q: float) -> float:
            if not values:
                return 0.0
            return float(np.quantile(np.asarray(values), q))

        duration = max(kw["duration_virtual_s"], 1e-9)
        return ServeReport(
            run_id=self.run_id,
            seed=self.seed,
            config=cfg.to_dict(),
            arrivals=len(kw["arrivals"]),
            delivered=by_status.get(STATUS_DELIVERED, 0),
            decode_failed=by_status.get(STATUS_DECODE_FAILED, 0),
            shed=by_status.get(STATUS_SHED, 0),
            deadline_abandoned=by_status.get(STATUS_DEADLINE, 0),
            worker_lost=by_status.get(STATUS_WORKER_LOST, 0),
            shed_by_reason=shed_by_reason,
            shed_by_priority=shed_by_priority,
            worker_crashes=kw["sup_totals"]["crashes"],
            worker_stalls=kw["sup_totals"]["stalls"],
            worker_restarts=kw["sup_totals"]["restarts"],
            worker_retries=kw["sup_totals"]["retries"],
            dead_letters=kw["sup_totals"]["dead_letters"],
            queue_depth_max=kw["queue_depth_max"],
            egress_depth_max=kw["egress_depth_max"],
            delivered_bits=delivered_bits,
            error_bits=error_bits,
            duration_virtual_s=kw["duration_virtual_s"],
            wall_s=kw["wall_s"],
            throughput_rps=by_status.get(STATUS_DELIVERED, 0) / duration,
            latency_mean_s=float(np.mean(virt)) if virt else 0.0,
            latency_p99_s=pct(virt, 0.99),
            wall_latency_p99_s=pct(wall, 0.99),
            breaker_opened=self.breaker.opened_total,
            quarantined_tags=len(self.breaker.open_tags()),
            recovery_s=recovery_s,
            recovered=recovered,
            alerts=kw["alerts"],
            stopped_early=kw["stopped"],
            burn_alerts=kw.get("burn_alerts", []),
            budget_remaining=kw.get("budget_remaining"),
            exemplars=kw.get("exemplars", []),
            breaker_preempted=kw.get("breaker_preempted", 0),
            telemetry_path=kw.get("telemetry_path"),
            telemetry_snapshots=kw.get("telemetry_snapshots", 0),
            batches=kw.get("batches", 0),
            batch_size_max=kw.get("batch_size_max", 0),
            batch_size_mean=kw.get("batch_size_mean", 0.0),
            fleet=kw.get("fleet", {}),
            health_path=kw.get("health_path"),
        )


def run_serve(
    config: ServeConfig,
    faults: Optional[FaultPlan] = None,
    slo: Optional[SloEngine] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    telemetry_out: Optional[str] = None,
    health_out: Optional[str] = None,
) -> ServeResult:
    """Run one serve session; the functional entry point.

    ``workers`` overrides ``config.workers`` when given (the CLI wires
    ``--workers`` through here); ``telemetry_out`` enables the periodic
    snapshot stream (``serve --telemetry-out``); ``health_out`` writes
    the ``repro.fleet/1`` per-tag health artifact at the end of the run
    (``serve --health-out``, rendered by ``fleet-report``).
    """
    if workers is not None:
        config = replace(config, workers=int(workers))
    gateway = StreamingDecodeGateway(
        config, faults=faults, slo=slo, seed=seed,
        telemetry_out=telemetry_out, health_out=health_out,
    )
    return gateway.run(should_stop=should_stop)
