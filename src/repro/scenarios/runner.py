"""Execute declarative scenarios through the simulation drivers.

:func:`run_scenario` maps a :class:`~repro.scenarios.schema.Scenario`
onto the existing :mod:`repro.sim.link` drivers — which already fan
trials over the parallel engine (:mod:`repro.sim.engine`), so
``workers=N`` is bit-identical to serial — and evaluates the result
against the scenario's expected envelope under a scoped observability
session with the decode flight recorder on.  The result carries:

* the headline metrics (BER, goodput, per-trial wall latency),
* per-bound envelope verdicts,
* the forensics attribution summary (dominant root-cause label),
* fired SLO alerts (when the scenario declares rules),
* optionally a written per-scenario run manifest.

``trial_scale`` shrinks Monte-Carlo spend uniformly (CI smoke vs the
nightly soak) without touching scenario definitions; the scale is
recorded so cross-run history never compares quick runs to full ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ScenarioError
from repro.obs import state
from repro.scenarios.schema import Scenario

#: Metric the runner reports -> (envelope op meaning) — see Envelope.
HEADLINE_METRICS = ("ber", "throughput_bps", "latency_s")


@dataclass
class EnvelopeVerdict:
    """One expected-envelope bound checked against the measured value."""

    metric: str
    op: str
    bound: float
    measured: float
    ok: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric, "op": self.op, "bound": self.bound,
            "measured": self.measured, "ok": self.ok,
        }


@dataclass
class ScenarioResult:
    """Everything one scenario execution produced."""

    name: str
    metrics: Dict[str, float]
    envelope: List[EnvelopeVerdict] = field(default_factory=list)
    passed: bool = True
    attribution: Dict[str, Any] = field(default_factory=dict)
    dominant_label: Optional[str] = None
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    seed: int = 0
    trial_scale: float = 1.0
    derived: Dict[str, Any] = field(default_factory=dict)
    manifest_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metrics": dict(self.metrics),
            "envelope": [v.to_dict() for v in self.envelope],
            "passed": self.passed,
            "attribution": dict(self.attribution),
            "dominant_label": self.dominant_label,
            "alerts": list(self.alerts),
            "seed": self.seed,
            "trial_scale": self.trial_scale,
            "derived": dict(self.derived),
            "manifest_path": self.manifest_path,
        }


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _dominant_label(summary: Dict[str, Any]) -> Optional[str]:
    frames = summary.get("frames_by_label") or {}
    if not frames:
        return None
    return max(sorted(frames), key=lambda k: frames[k])


def _execute(
    scenario: Scenario, seed: int, workers: int, scale: float
) -> Dict[str, float]:
    """Dispatch on channel mode; returns the headline metrics."""
    from repro.faults import parse_fault_spec

    trial = scenario.trial
    repeats = _scaled(trial.repeats, scale, 1)
    payload_bits = _scaled(trial.payload_bits, scale, 8)
    faults = (
        parse_fault_spec(scenario.faults, base_seed=seed)
        if scenario.faults else None
    )
    rate_pps = scenario.traffic.effective_rate_pps()
    arrival = scenario.traffic.arrival_kind()
    mode = scenario.channel.mode

    if scenario.serve is not None:
        return _execute_serve(
            scenario, seed, workers, scale, faults, rate_pps,
            payload_bits,
        )

    t0 = time.perf_counter()
    if mode in ("csi", "rssi"):
        from repro.sim.link import run_mobility_uplink_ber, run_uplink_ber

        bit_rate = rate_pps / trial.packets_per_bit
        mobility = scenario.geometry.mobility
        if mobility is not None and mobility.kind != "static":
            distances = mobility.distances(
                scenario.geometry.tag_to_reader_m, repeats, seed
            )
            result = run_mobility_uplink_ber(
                distances,
                trial.packets_per_bit,
                mode=mode,
                num_payload_bits=payload_bits,
                bit_rate_bps=bit_rate,
                traffic=arrival,
                seed=seed,
                faults=faults,
                workers=workers,
                helper_to_tag_m=scenario.geometry.helper_to_tag_m,
            )
        else:
            result = run_uplink_ber(
                scenario.geometry.tag_to_reader_m,
                trial.packets_per_bit,
                mode=mode,
                repeats=repeats,
                num_payload_bits=payload_bits,
                bit_rate_bps=bit_rate,
                traffic=arrival,
                seed=seed,
                faults=faults,
                workers=workers,
                helper_to_tag_m=scenario.geometry.helper_to_tag_m,
            )
        ber = result.errors / result.total_bits if result.total_bits else 0.0
        goodput = bit_rate * (1.0 - ber)
        errors, total = result.errors, result.total_bits
    elif mode == "coded":
        from repro.sim.link import run_correlation_trial

        length = scenario.channel.code_length
        chip_rate = 100.0
        errors = total = 0
        for i in range(repeats):
            outcome = run_correlation_trial(
                scenario.geometry.tag_to_reader_m,
                length,
                num_bits=payload_bits,
                packets_per_chip=trial.packets_per_bit,
                chip_rate_cps=chip_rate,
                seed=seed + i,
                faults=faults,
                workers=workers,
            )
            errors += outcome.errors
            total += payload_bits
        ber = errors / total if total else 0.0
        bit_rate = chip_rate / length
        goodput = bit_rate * (1.0 - ber)
    elif mode == "downlink":
        from repro.core.downlink_encoder import bit_duration_for_rate
        from repro.sim.link import run_downlink_ber

        num_bits = _scaled(trial.downlink_bits, scale, 1000)
        bit_rate = scenario.channel.downlink_rate_bps
        result = run_downlink_ber(
            scenario.geometry.tag_to_reader_m,
            bit_duration_for_rate(bit_rate),
            num_bits=num_bits,
            seed=seed,
            faults=faults,
            workers=workers,
        )
        ber = result.errors / result.total_bits if result.total_bits else 0.0
        goodput = bit_rate * (1.0 - ber)
        errors, total = result.errors, result.total_bits
    else:  # pragma: no cover - schema validation forbids this
        raise ScenarioError(
            f"unsupported channel mode {mode!r}", field="channel.mode"
        )
    wall_s = time.perf_counter() - t0
    return {
        "ber": float(ber),
        "throughput_bps": float(goodput),
        "latency_s": wall_s / max(repeats, 1),
        "wall_s": wall_s,
        "errors": float(errors),
        "total_bits": float(total),
        "bit_rate_bps": float(bit_rate),
        "rate_pps": float(rate_pps),
        "repeats": float(repeats),
    }


def _execute_serve(
    scenario: Scenario,
    seed: int,
    workers: int,
    scale: float,
    faults,
    rate_pps: float,
    payload_bits: int,
) -> Dict[str, float]:
    """Drive the scenario through the streaming decode gateway.

    ``trial_scale`` shrinks the serving spell (duration and burst
    window together) rather than the per-request decode, so a quick
    soak still exercises admission, shedding, and recovery.
    """
    from repro.serve import ServeConfig, run_serve

    serve = scenario.serve
    bit_rate = rate_pps / scenario.trial.packets_per_bit
    duration = max(2.0, serve.duration_s * scale)
    time_scale = duration / serve.duration_s
    effective_workers = serve.workers or (workers if workers > 1 else 0)
    config = ServeConfig(
        duration_s=duration,
        offered_load_rps=serve.offered_load_rps,
        burst_load_rps=serve.burst_load_rps,
        burst_start_s=serve.burst_start_s * time_scale,
        burst_end_s=serve.burst_end_s * time_scale,
        deadline_ms=serve.deadline_ms,
        queue_capacity=serve.queue_capacity,
        batch=serve.batch,
        workers=effective_workers,
        max_attempts=serve.max_attempts,
        arrival_profile=serve.arrival_profile,
        payload_bits=payload_bits,
        packets_per_bit=scenario.trial.packets_per_bit,
        mode=scenario.channel.mode,
        bit_rate_bps=bit_rate,
        tag_to_reader_m=scenario.geometry.tag_to_reader_m,
        helper_to_tag_m=scenario.geometry.helper_to_tag_m,
        office_hour=scenario.traffic.start_hour,
        n_tags=serve.n_tags,
        fleet_capacity=serve.fleet_capacity,
        outlier_tags=serve.outlier_tags,
        outlier_distance_m=serve.outlier_distance_m,
    )
    t0 = time.perf_counter()
    report = run_serve(config, faults=faults, seed=seed).report
    wall_s = time.perf_counter() - t0
    span = max(report.duration_virtual_s, 1e-9)
    goodput = report.delivered_bits * (1.0 - report.ber) / span
    metrics = {
        "ber": float(report.ber),
        "throughput_bps": float(goodput),
        "latency_s": float(report.latency_mean_s),
        "wall_s": float(wall_s),
        "errors": float(report.error_bits),
        "total_bits": float(report.delivered_bits),
        "bit_rate_bps": float(bit_rate),
        "rate_pps": float(rate_pps),
        "repeats": float(report.arrivals),
        "arrivals": float(report.arrivals),
        "delivered": float(report.delivered),
        "shed_fraction": float(report.shed_fraction),
        "deadline_abandoned": float(report.deadline_abandoned),
        "worker_lost": float(report.worker_lost),
        "queue_depth_max": float(report.queue_depth_max),
        "latency_p99_s": float(report.latency_p99_s),
        "recovered": 1.0 if report.recovered else 0.0,
        "burn_alerts_fired": float(sum(
            1 for a in report.burn_alerts if a.get("kind") == "fired"
        )),
        "breaker_preempted": float(report.breaker_preempted),
    }
    if report.budget_remaining is not None:
        metrics["budget_remaining"] = float(report.budget_remaining)
    if report.recovery_s is not None:
        metrics["recovery_s"] = float(report.recovery_s)
    fleet = report.fleet or {}
    if fleet.get("outcomes"):
        metrics["fleet_anomaly_transitions"] = float(
            fleet.get("transitions_total", 0)
        )
        conserved = (
            fleet.get("tags_seen")
            == fleet.get("tracked", 0) + fleet.get("evictions", 0)
        )
        metrics["fleet_conservation"] = 1.0 if conserved else 0.0
    return metrics


def run_scenario(
    scenario: Scenario,
    seed: int = 0,
    workers: int = 1,
    trial_scale: float = 1.0,
    record: bool = True,
    manifest_dir: Optional[str] = None,
) -> ScenarioResult:
    """Run one scenario and evaluate it against its envelope.

    Args:
        seed: soak-run base seed; combined with the scenario's own
            ``seed`` offset so scenarios are decorrelated but a rerun
            with the same base seed reproduces every trial.
        workers: parallel engine fan-out (bit-identical to serial).
        trial_scale: uniform Monte-Carlo scale (1.0 = as declared).
        record: enable the decode flight recorder for attribution.
        manifest_dir: when set, write a per-scenario run manifest
            (``scenario_<name>.json``) under this directory.
    """
    if trial_scale <= 0:
        raise ScenarioError("trial_scale must be positive",
                            field="trial_scale")
    effective_seed = int(seed) + int(scenario.seed)
    alerts: List[Dict[str, Any]] = []
    attribution: Dict[str, Any] = {}
    manifest_path: Optional[str] = None
    with state.session(metrics=True, tracing=False, recording=record):
        metrics = _execute(scenario, effective_seed, workers, trial_scale)
        if scenario.slo:
            from repro.obs.perf.slo import SloEngine

            engine = SloEngine.from_spec(scenario.slo)
            alerts = [
                a.to_dict()
                for a in engine.evaluate(context={"scenario": scenario.name})
            ]
        if record:
            from repro.obs.forensics import summarize

            summary = summarize(state.get_recorder().records)
            summary.pop("margins", None)
            summary.pop("worst", None)
            attribution = summary
        if manifest_dir is not None:
            import os

            from repro.obs.manifest import build_manifest

            manifest = build_manifest(
                f"scenario_{scenario.name}",
                seed=effective_seed,
                config=scenario.to_dict(),
                results=dict(metrics),
                extra={"alerts": alerts} if alerts else None,
            )
            manifest_path = manifest.write(os.path.join(
                manifest_dir, f"scenario_{scenario.name}.json"
            ))

    verdicts = [
        EnvelopeVerdict(
            metric=metric, op=op, bound=bound,
            measured=metrics.get(metric, float("nan")),
            ok=(
                metrics.get(metric, float("inf")) <= bound if op == "<="
                else metrics.get(metric, float("-inf")) >= bound
            ),
        )
        for metric, op, bound in scenario.envelope.bounds()
    ]
    passed = all(v.ok for v in verdicts) and not alerts
    return ScenarioResult(
        name=scenario.name,
        metrics=metrics,
        envelope=verdicts,
        passed=passed,
        attribution=attribution,
        dominant_label=_dominant_label(attribution),
        alerts=alerts,
        seed=effective_seed,
        trial_scale=trial_scale,
        derived={
            "mode": scenario.channel.mode,
            "regime": scenario.traffic.regime,
            "tag_to_reader_m": scenario.geometry.tag_to_reader_m,
            "faults": scenario.faults,
            "tags": list(scenario.tags),
        },
        manifest_path=manifest_path,
    )
