"""Workload metadata, metric definitions and the statistics behind them.

Imports nothing from ``repro`` so ``run.py`` and ``compare.py`` stay
cheap; ``workloads.py`` holds the implementations.  ``BENCHMARK.json``
mirrors the tables here (``test_bench.py`` keeps the two in step).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import hostref
import tracer


@dataclass(frozen=True)
class WorkloadSpec:
    """What one workload runs and how its ops are counted.

    Attributes:
        unit: what one unit of ``ops_per_s`` is.
        classes: op classes, cycled in order; one cycle is one op each.
        reference: classes whose op times give ``op_p50_ms``.
        entry: the traced span whose self share is the workload's
            unattributed time.
        max_ber: the ``ber`` above which the run's outputs count as
            wrong.  Random bits score 0.5; each ceiling sits about four
            times above the highest BER seen over twenty seeded runs.
    """

    name: str
    why: str
    unit: str
    classes: Tuple[str, ...]
    reference: Tuple[str, ...]
    entry: str
    max_ber: float


SPECS: Dict[str, WorkloadSpec] = {s.name: s for s in (
    WorkloadSpec(
        "fig10_sweep",
        "Fig 10a/b transmissions (90 bits, 30 pkt/bit, six CSI and six RSSI "
        "distances): ~6k-packet streams where per-packet synthesis dominates",
        "trials", ("csi", "rssi"), ("csi",), "sim.link.run_uplink_ber", 0.10,
    ),
    WorkloadSpec(
        "decode_replay",
        "one UplinkDecoder.decode_bits per fresh stream, four classes: the "
        "reader's decode cost alone; the only preamble-search workload",
        "decodes", ("A", "B", "C", "D"), ("A",),
        "core.uplink_decoder.decode_bits", 0.05,
    ),
    WorkloadSpec(
        "serve_burst",
        "open-loop virtual-time gateway sessions at 2x capacity with "
        "micro-batching: ~430-packet streams where per-request fixed costs "
        "show",
        "decoded requests", ("session",), ("session",), "serve.gateway.run",
        0.05,
    ),
    WorkloadSpec(
        "fault_sweep",
        "Fig 10 transmissions at 10 pkt/bit under outage/CSI-dropout/NaN/"
        "AGC-jump faults, flight recorder on: corrupted records, RSSI "
        "fallback",
        "trials", ("csi", "rssi"), ("csi",), "sim.link.run_uplink_ber", 0.30,
    ),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0


#: Measured untraced and reported by every workload.  Times are scaled
#: to the nominal host (see :func:`at_nominal_speed`); the raw ones are
#: diagnostics.
END_TO_END: Tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", 0.15),
    Metric("op_p50_ms", "ms", "lower", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.20),
)

#: Pure functions of the seed: any change at all is worth a look.
DETERMINISTIC: Tuple[Metric, ...] = (
    Metric("ber", "ratio", "lower"),
    Metric("failed_fraction", "ratio", "lower"),
    Metric("virtual_p99_s", "s", "lower"),
)

#: Printed by every run; the JSON line carries them with the layer table.
DIAGNOSTICS: Tuple[Metric, ...] = DETERMINISTIC + (
    Metric("raw_ops_per_s", "1/s", "higher"),
    Metric("raw_op_p50_ms", "ms", "lower"),
    Metric("raw_setup_s", "s", "lower"),
    Metric("op_p95_ms", "ms", "lower"),
    Metric("host_ref_ms", "ms", "lower"),
    Metric("trace_overhead", "ratio", "lower"),
    Metric("unattributed_fraction", "ratio", "lower"),
    Metric("serve.batch_size_mean", "count", "higher"),
    Metric("serve.queue_depth_max", "count", "lower"),
    Metric("serve.shed", "count", "lower"),
    Metric("serve.deadline_abandoned", "count", "lower"),
)


def per_layer_metrics() -> List[Metric]:
    """Every per-layer metric: wrap points, counters, diagnostics."""
    out = []
    for point in tracer.WRAP_POINTS:
        out.append(Metric(f"{point.name}.calls", "count", "lower"))
        if not point.counter_only:
            out.append(Metric(f"{point.name}.self_s", "s", "lower"))
    return out + list(DIAGNOSTICS)


# -- statistics ---------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _percentile(values: Sequence[float], pct: int) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def throughput(ops: Iterable[dict]) -> float:
    """Work units per second from each class's median op rate.

    Each class contributes its total work over its median rate, so a
    host stall during a few ops moves nothing.
    """
    by_class: Dict[str, List[dict]] = {}
    for op in ops:
        if not op["failed"] and op["work"] > 0:
            by_class.setdefault(op["cls"], []).append(op)
    work = seconds = 0.0
    for group in by_class.values():
        class_work = sum(op["work"] for op in group)
        rate = statistics.median(op["work"] / op["seconds"] for op in group)
        work += class_work
        seconds += class_work / rate
    return work / seconds if seconds else 0.0


def _timings(spec: WorkloadSpec,
             rounds: Sequence[dict]) -> Tuple[float, float, float]:
    """``(ops_per_s, op_p50_ms, setup_s)`` of the rounds as given."""
    ops = [op for r in rounds for op in r["ops"]]
    per_unit = [op["seconds"] / op["work"] for op in ops
                if op["cls"] in spec.reference and not op["failed"]
                and op["work"]]
    return (throughput(ops),
            statistics.median(per_unit) * 1e3 if per_unit else 0.0,
            statistics.median(r["setup_s"] for r in rounds))


def at_nominal_speed(rounds: Sequence[dict]) -> List[dict]:
    """Rounds with their times divided by the round's host slowdown.

    The host's speed drifts by tens of percent within minutes, and the
    reference kernel drifts with it.  A round's slowdown is its median
    kernel time over :data:`hostref.NOMINAL_MS`; dividing by it reads
    the round as if it had the nominal host.  Each round is its own
    process at its own moment, so each gets its own slowdown.
    """
    out = []
    for r in rounds:
        slowdown = statistics.median(
            op["host_ref_ms"] for op in r["ops"]
        ) / hostref.NOMINAL_MS
        out.append({
            **r,
            "setup_s": r["setup_s"] / slowdown,
            "ops": [{**op, "seconds": op["seconds"] / slowdown}
                    for op in r["ops"]],
        })
    return out


def end_to_end(spec: WorkloadSpec, rounds: Sequence[dict]) -> Dict[str, float]:
    ops_per_s, op_p50_ms, setup_s = _timings(
        spec, at_nominal_speed(rounds)
    )
    return {
        "ops_per_s": ops_per_s,
        "op_p50_ms": op_p50_ms,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "setup_s": setup_s,
    }


def diagnostics(spec: WorkloadSpec,
                rounds: Sequence[dict]) -> Dict[str, float]:
    """Deterministic outputs over each round's guaranteed ops (which
    repeat exactly for a seed), plus host and tail diagnostics over
    every op."""
    ops = [op for r in rounds for op in r["ops"]]
    core = [op for op in ops if op["core"]]
    bits = sum(op["bits"] for op in core)
    errors = sum(op["errors"] for op in core)
    ref = [op["seconds"] / op["work"] * 1e3
           for r in at_nominal_speed(rounds) for op in r["ops"]
           if op["cls"] in spec.reference and not op["failed"]
           and op["work"]]
    sessions = [op["extra"] for op in core if op["extra"]]
    raw = _timings(spec, rounds)
    out = {
        "ber": errors / bits if bits else 0.0,
        "failed_fraction": (
            sum(op["lost"] or op["failed"] for op in core) / len(core)
            if core else 0.0
        ),
        "virtual_p99_s": 0.0,
        "raw_ops_per_s": raw[0],
        "raw_op_p50_ms": raw[1],
        "raw_setup_s": raw[2],
        "op_p95_ms": _percentile(ref, 95) if ref else 0.0,
        "host_ref_ms": statistics.median(op["host_ref_ms"] for op in ops),
        "serve.batch_size_mean": 0.0,
        "serve.queue_depth_max": 0,
        "serve.shed": 0,
        "serve.deadline_abandoned": 0,
    }
    if sessions:
        arrivals = sum(s["arrivals"] for s in sessions)
        out.update({
            "failed_fraction": (
                1.0 - sum(s["delivered"] for s in sessions) / arrivals
                if arrivals else 0.0
            ),
            "virtual_p99_s": statistics.median(
                s["virtual_p99_s"] for s in sessions
            ),
            "serve.batch_size_mean": statistics.fmean(
                s["batch_size_mean"] for s in sessions
            ),
            "serve.queue_depth_max": max(
                s["queue_depth_max"] for s in sessions
            ),
            "serve.shed": sum(s["shed"] for s in sessions),
            "serve.deadline_abandoned": sum(
                s["deadline_abandoned"] for s in sessions
            ),
        })
    return out
