"""Golden digests of the uplink synthesis path.

Recomputes digests of synthesized streams, Fig 10 BER trials, fault-plan
runs and three micro-batched serve sessions (clean, faulted, and clean
with metrics on), and compares them with
``tests/golden/synthesis.json``.  The fault cases also cover the entry
points the Fig 10 sweep does not reach: the per-bit brownout mask of the
downlink model, one plan carried across an ARQ session's frames and
retries, per-helper masks, the MAC capture's per-frame hooks, and the
``fault_*`` corpus scenarios.  The RSSI cases pin what an RSSI-only
reader decodes: single ``run_uplink_trial`` calls at the Fig 10 sweep's
RSSI distances (with known timing and with the preamble search), an
RSSI serve session, the two ``rssi_*`` corpus scenarios and a
beacon-only MAC capture, whose rows carry no CSI.  The ``gate/*`` cases
pin the outputs of the retired in-process benchmark's eight workloads
(BER counts, ARQ outcomes, serve counts, the fleet summary).  The
``profile/*`` and ``spans/*`` cases pin what one traced uplink BER run,
correlation trial and serve session record: per-stage call counts and
span-tree shapes, no durations.  Only integer-valued outputs are
hashed: timestamp bytes, CSI in quantisation steps
(non-finite cells as a separate mask), RSSI in dB, payload and decoded
bits, error counts, fault evidence units, counters and delivered
payloads.  So a digest does not depend on which SIMD code paths a CPU
takes for ``exp``/``log``.  The exceptions are virtual-clock floats:
the faulted serve session's ``report.fleet`` block, the gate serve
sessions' ``latency_p99_s`` and the fleet latency offender board; and
the ``record/*`` cases, which hash faulted BER sweeps' flight-recorder
records whole, every stage in its recorded JSON form (slicer margins,
conditioning and detection floats, non-finite cells as strings).

A change that moves a digest must regenerate the file deliberately and
say why::

    PYTHONPATH=src python -m tests.unit.test_golden_synthesis --write
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro import obs
from repro.core.uplink_decoder import UplinkDecoder
from repro.errors import ReproError
from repro.core.barker import barker_bits
from repro.core.downlink_encoder import bit_duration_for_rate
from repro.faults.spec import parse_fault_spec
from repro.mac.beacons import build_beacon_network
from repro.scenarios import builtin_registry, run_scenario
from repro.serve.gateway import ServeConfig, run_serve
from repro.sim import calibration, engine, link
from repro.sim.scenario import build_injected_traffic_scenario
from repro.tag.modulator import TagModulator, random_payload
from tests.unit.test_fleet_serve import FLEET_TELEMETRY_CONFIG
from tests.unit.test_serve_telemetry import SERVE_OVERLOAD_CONFIG

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "synthesis.json"

#: Intel 5300 CSI quantisation step: ``csi_quantization_rel * nominal_level``.
CSI_STEP = 0.01 * 8.0
SEEDS = range(10)
CLASSES = (("csi", 0.3), ("csi", 0.6), ("rssi", 0.2))
PAYLOAD_BITS = 90
BIT_RATE_BPS = 100.0
FAULT_SPEC = ("outage:duty=0.1,burst=0.3;"
              "csi_dropout:duty=0.2,burst=0.2,frac=0.5;"
              "nan:prob=0.01;agc_jump:prob=0.02")
#: The hooks the sweep spec leaves idle: brownout, corruption of RSSI,
#: clock warp with re-monotonised timestamps, and +inf cells.
MIXED_SPEC = ("brownout:duty=0.15,burst=0.1;"
              "interference:duty=0.15,burst=0.1;"
              "drift:ppm=80,jitter=0.0005;nan:prob=0.02,mode=inf")
MIXED_SEEDS = range(4)
#: Seeds of the ``record/*`` cases (``FAULT_SPEC``) and of the
#: ``record-mixed/*`` cases (``MIXED_SPEC``: +inf cells, and NaN margins
#: for bits that got no packets).
RECORD_SEEDS = range(3)
RECORD_MIXED_SEEDS = range(2)
SERVE_CONFIG = ServeConfig(
    duration_s=10.0, offered_load_rps=4.0, burst_load_rps=12.5,
    burst_start_s=3.0, burst_end_s=7.0, deadline_ms=2500.0,
    queue_capacity=12, batch=4, batch_max=16, batch_window_s=0.25,
    workers=0, n_tags=64, payload_bits=8, packets_per_bit=6.0,
    bit_rate_bps=50.0,
)
SERVE_SEED = 1
#: Heavy enough to fail decodes (DecodeError, starved preambles among
#: them), push CSI decodes onto the RSSI fallback and quarantine a
#: tag's breaker.
SERVE_FAULT_SPEC = ("outage:duty=0.5,burst=0.5;"
                    "csi_dropout:duty=0.6,burst=0.3,frac=0.9;"
                    "nan:prob=0.05")
#: Per-bit brownout mask of the downlink Monte-Carlo.
DOWNLINK_SPEC = "brownout:duty=0.1,burst=0.05"
DOWNLINK_SEED = 5
#: One plan across an ARQ session's frames and retries.
ARQ_SPEC = "outage:duty=0.2,burst=0.1;brownout:duty=0.15,burst=0.1"
ARQ_SEED = 3
MULTI_HELPERS = {"ap": (3.0, 800.0), "laptop": (5.0, 800.0)}
MULTI_SEEDS = range(2)
MAC_SEEDS = range(2)
FAULT_SCENARIOS = (
    "fault_outage_030cm", "fault_csi_dropout_030cm",
    "fault_interference_045cm", "fault_nan_drift_030cm",
    "fault_brownout_030cm",
)
#: The RSSI distances of the benchmark's Fig 10 sweep, one
#: ``run_uplink_trial`` per distance and seed; the preamble-search
#: cases (``known_timing=False``) run at two of them.
RSSI_TRIAL_DISTANCES = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4)
RSSI_SEARCH_DISTANCES = (0.2, 0.3)
RSSI_TRIAL_SEEDS = range(3)
RSSI_SCENARIOS = ("rssi_near_015cm", "rssi_mid_030cm")
#: Beacon-only captures: the card reports these frames RSSI-only.
BEACON_SEEDS = range(2)
#: The decode counters a serve session emits.
SERVE_COUNTERS = (
    "uplink.decodes", "uplink.bits.total", "uplink.bits.errors",
    "uplink.nonfinite.repaired", "uplink.degradation.rssi_fallbacks",
    "conditioning.nonfinite.repaired",
)
#: The seven stage names the retired stage profiler recorded for the
#: uplink, correlation and serve decodes.  The ``profile/*`` cases pin
#: their call counts in the tracer's stage table (``{stage: calls}``),
#: the ``spans/*`` cases the shape of the span trees of the same runs.
PROFILE_STAGES = (
    "uplink.decode", "uplink.decode.condition", "uplink.decode.detect",
    "uplink.decode.combine", "uplink.decode.slice",
    "conditioning.condition", "correlation.decode",
)
#: Seeds of the eight workloads of the retired in-process benchmark
#: gate (``GATE_CASES``), called as its quick mode did (the fleet
#: session at seed 0 only).  That gate held their outputs to ±10%
#: bands; the digests pin them.
GATE_SEEDS = range(3)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"|")
    return h.hexdigest()


def _stream_parts(stream):
    csi = stream.csi_matrix()
    finite = np.isfinite(csi)
    codes = np.round(np.where(finite, csi, 0.0) / CSI_STEP).astype("<i8")
    return (
        np.asarray(stream.timestamps, dtype="<f8"),
        codes,
        ~finite,
        np.round(stream.rssi_matrix()).astype("<i8"),
    )


def _synthesize_and_decode(mode, distance, packets_per_bit, seed, faults=None):
    """Stream parts, payload and decoded bits (or the error raised)."""
    try:
        payload, stream, tx_start = link.synthesize_uplink_trial(
            distance, packets_per_bit, num_payload_bits=PAYLOAD_BITS,
            bit_rate_bps=BIT_RATE_BPS, rng=np.random.default_rng(seed),
            faults=faults,
        )
    except ReproError as exc:
        return [type(exc).__name__]
    parts = list(_stream_parts(stream))
    parts += [np.asarray(tx_start, dtype="<f8"), [int(b) for b in payload]]
    try:
        decoded = UplinkDecoder().decode_bits(
            stream, PAYLOAD_BITS, 1.0 / BIT_RATE_BPS, mode=mode,
            start_time_s=tx_start,
        )
        parts.append([int(b) for b in decoded.bits])
    except ReproError as exc:
        parts.append(type(exc).__name__)
    return parts


def _ber_parts(mode, distance, packets_per_bit, seed, faults=None):
    result = link.run_uplink_ber(
        distance, packets_per_bit, mode=mode, repeats=1,
        num_payload_bits=PAYLOAD_BITS, bit_rate_bps=BIT_RATE_BPS, seed=seed,
        faults=faults,
    )
    return [result.errors, result.total_bits, result.runs]


@contextlib.contextmanager
def _pinned_recorder():
    """Record with a fixed head policy and capacity, whatever an earlier
    test configured, and restore the recorder afterwards."""
    recorder = obs.get_recorder()
    saved = (recorder.capacity, recorder.policy)
    recorder.configure(capacity=256, policy="head")
    try:
        yield
    finally:
        recorder.configure(capacity=saved[0], policy=saved[1])


def _recorded_parts(registry) -> list:
    """The flight recorder's fault evidence and the integer counters."""
    records = [
        {
            "kind": r["kind"],
            "errors": r["errors"],
            "error_bits": r["error_bits"],
            "failure": r["failure"],
            "faults": {
                k: v for k, v in r["stages"].get("faults", {}).items()
                if k not in ("tx_start_s", "unit_s")
            },
        }
        for r in obs.get_recorder().records
    ]
    counters = {
        name: int(entry["value"])
        for name, entry in registry.snapshot().items()
        if entry.get("type") == "counter"
    }
    return [records, counters]


def _fault_case(mode, distance, seed, spec) -> str:
    """Synthesis, decode, BER and fault evidence under a fault spec."""
    with _pinned_recorder(), obs.session(
        metrics=True, tracing=False, recording=True
    ) as (registry, _):
        synth = _synthesize_and_decode(
            mode, distance, 10.0, seed,
            faults=parse_fault_spec(spec, base_seed=seed),
        )
        ber = _ber_parts(
            mode, distance, 10.0, seed,
            faults=parse_fault_spec(spec, base_seed=seed),
        )
        recorded = _recorded_parts(registry)
    return _digest(*synth, ber, *recorded)


def _record_case(mode, distance, seed, spec) -> str:
    """Every record of one serial faulted BER sweep, as recorded."""
    with _pinned_recorder(), obs.session(
        metrics=False, tracing=False, recording=True
    ):
        link.run_uplink_ber(
            distance, 10.0, mode=mode, repeats=4,
            num_payload_bits=PAYLOAD_BITS, seed=seed,
            faults=parse_fault_spec(spec, base_seed=seed),
        )
        records = list(obs.get_recorder().records)
    return _digest(records)


def _row_stream_parts(stream):
    """Like :func:`_stream_parts`, for streams with RSSI-only rows and
    several sources."""
    csi = stream.csi
    finite = np.isfinite(csi)
    codes = np.round(np.where(finite, csi, 0.0) / CSI_STEP).astype("<i8")
    return (
        np.asarray(stream.timestamps, dtype="<f8"),
        np.asarray(stream.has_csi),
        codes,
        ~finite,
        np.round(stream.rssi_matrix()).astype("<i8"),
        [str(s) for s in stream.sources],
    )


def _decoded(stream, num_bits, bit_duration_s, start_s, mode="csi"):
    try:
        result = UplinkDecoder().decode_bits(
            stream, num_bits, bit_duration_s, mode=mode, start_time_s=start_s,
        )
    except ReproError as exc:
        return type(exc).__name__
    return [int(b) for b in result.bits]


def _downlink_case() -> str:
    with obs.session(metrics=True, tracing=False) as (registry, _):
        result = link.run_downlink_ber(
            2.0, 1.0 / 20000, num_bits=200_000, seed=DOWNLINK_SEED,
            faults=parse_fault_spec(DOWNLINK_SPEC, base_seed=DOWNLINK_SEED),
        )
        counters = _recorded_parts(registry)[1]
    return _digest([result.errors, result.total_bits], counters)


def _arq_case() -> str:
    with _pinned_recorder(), obs.session(
        metrics=True, tracing=False, recording=True
    ) as (registry, _):
        result = link.run_arq_uplink(
            0.3, num_frames=6, seed=ARQ_SEED,
            faults=parse_fault_spec(ARQ_SPEC, base_seed=ARQ_SEED),
        )
        recorded = _recorded_parts(registry)
    return _digest(_arq_outcomes(result), *recorded)


def _arq_outcomes(result) -> list:
    return [
        [o.delivered, o.correct, o.attempts, o.mode, o.degraded]
        for o in result.outcomes
    ]


def _multi_helper_case(seed) -> str:
    rng = np.random.default_rng(seed)
    payload = random_payload(30, rng)
    bit_s = 1.0 / BIT_RATE_BPS
    with obs.session(metrics=True, tracing=False) as (registry, _):
        stream, tx_start = link.simulate_multi_helper_stream(
            barker_bits() + payload, bit_s, MULTI_HELPERS, 0.1, rng=rng,
            faults=parse_fault_spec(FAULT_SPEC, base_seed=seed),
        )
        counters = _recorded_parts(registry)[1]
    return _digest(
        *_row_stream_parts(stream), np.asarray(tx_start, dtype="<f8"),
        payload, _decoded(stream, 30, bit_s, tx_start), counters,
    )


def _mac_case(seed) -> str:
    """The MAC capture's per-frame fault hooks over a DCF network."""
    rng = np.random.default_rng(seed)
    payload = random_payload(20, rng)
    bits = barker_bits() + payload
    bit_s = 1.0 / BIT_RATE_BPS
    tx_start = 0.6
    modulator = TagModulator(bit_duration_s=bit_s)
    modulator.load_bits(bits, tx_start)
    with obs.session(metrics=True, tracing=False) as (registry, _):
        scenario = build_injected_traffic_scenario(
            1000.0, tag_to_reader_m=0.05, tag_state=modulator.state,
            seed=seed,
        )
        scenario.capture.faults = parse_fault_spec(MIXED_SPEC, base_seed=seed)
        scenario.run(tx_start + len(bits) * bit_s + 0.6)
        stream = scenario.measurements()
        counters = _recorded_parts(registry)[1]
    return _digest(
        *_row_stream_parts(stream), payload,
        _decoded(stream, 20, bit_s, tx_start), counters,
    )


def _beacon_case(seed) -> str:
    """A beacon-only MAC capture (RSSI-only rows) and its RSSI decode."""
    rng = np.random.default_rng(seed)
    payload = random_payload(10, rng)
    bits = barker_bits() + payload
    bit_s = 0.1
    tx_start = 0.6
    modulator = TagModulator(bit_duration_s=bit_s)
    modulator.load_bits(bits, tx_start)
    channel = calibration.make_channel(0.05, rng=rng)
    net = build_beacon_network(
        70.0, channel, tag_state=modulator.state, rng=rng
    )
    net.run(tx_start + len(bits) * bit_s + 0.6)
    stream = net.capture.measurements()
    return _digest(
        *_row_stream_parts(stream), payload,
        _decoded(stream, 10, bit_s, tx_start, mode="rssi"),
    )


class _InputRecorder(UplinkDecoder):
    """An ``UplinkDecoder`` that keeps the stream it last decoded."""

    stream = None

    def decode_bits(self, stream, *args, **kwargs):
        self.stream = stream
        return super().decode_bits(stream, *args, **kwargs)


def _rssi_trial_case(distance, seed, known_timing=True) -> str:
    """One RSSI-mode ``run_uplink_trial``: the timestamps and RSSI its
    decode read, its sent and decoded bits and its errors."""
    decoder = _InputRecorder()
    try:
        trial = link.run_uplink_trial(
            distance, 30.0, mode="rssi", num_payload_bits=PAYLOAD_BITS,
            known_timing=known_timing, decoder=decoder,
            rng=np.random.default_rng(seed),
        )
    except ReproError as exc:
        return _digest(type(exc).__name__)
    return _digest(
        np.asarray(decoder.stream.timestamps, dtype="<f8"),
        np.round(decoder.stream.rssi_matrix()).astype("<i8"),
        [int(b) for b in trial.sent_bits],
        [int(b) for b in trial.decoded_bits],
        trial.errors,
    )


def _scenario_case(name) -> str:
    """A corpus scenario: its counts, attribution and evidence."""
    with _pinned_recorder():
        result = run_scenario(builtin_registry().get(name), seed=0)
        recorded = _recorded_parts(obs.get_registry())
    metrics = {k: result.metrics[k] for k in ("errors", "total_bits")}
    return _digest(
        metrics, result.attribution, result.dominant_label, *recorded
    )


def _serve_parts(result) -> list:
    report = result.report
    outcomes = [
        [o.seq, o.corr_id, o.tag_address, o.priority, o.status, o.reason,
         o.errors, list(o.payload), o.attempts]
        for o in result.outcomes
    ]
    counts = {
        name: getattr(report, name)
        for name in (
            "arrivals", "delivered", "decode_failed", "shed",
            "deadline_abandoned", "worker_lost", "shed_by_reason",
            "queue_depth_max", "egress_depth_max", "delivered_bits",
            "error_bits",
        )
    }
    return [outcomes, counts]


def _serve_case() -> str:
    return _digest(*_serve_parts(run_serve(SERVE_CONFIG, seed=SERVE_SEED)))


def _serve_rssi_case() -> str:
    result = run_serve(replace(SERVE_CONFIG, mode="rssi"), seed=SERVE_SEED)
    return _digest(*_serve_parts(result))


def _serve_faults_case() -> str:
    faults = parse_fault_spec(SERVE_FAULT_SPEC, base_seed=SERVE_SEED)
    result = run_serve(SERVE_CONFIG, seed=SERVE_SEED, faults=faults)
    return _digest(*_serve_parts(result), result.report.fleet)


def _serve_metrics_case() -> str:
    with obs.session(metrics=True, tracing=False) as (registry, _):
        run_serve(SERVE_CONFIG, seed=SERVE_SEED)
        snapshot = registry.snapshot()
    return _digest({
        name: snapshot[name]["value"]
        for name in SERVE_COUNTERS if name in snapshot
    })


def _gate_serve_parts(result) -> list:
    report = result.report
    return [report.arrivals, report.delivered, report.shed,
            report.latency_p99_s]


def _gate_uplink(distance: float, mode: str) -> str:
    results = [
        link.run_uplink_ber(
            distance, 12.0, mode=mode, repeats=8, num_payload_bits=45,
            seed=seed,
        )
        for seed in GATE_SEEDS
    ]
    return _digest([[r.errors, r.total_bits] for r in results])


def _gate_correlation() -> str:
    trials = [
        link.run_correlation_trial(
            1.6, code_length=8, num_bits=12, packets_per_chip=5.0, seed=seed,
        )
        for seed in GATE_SEEDS
    ]
    return _digest([[t.errors, int(t.sent_bits.size)] for t in trials])


def _gate_arq() -> str:
    sessions = [
        link.run_arq_uplink(
            0.3, num_frames=6, payload_len=8, bit_rate_bps=1000.0,
            packets_per_bit=6.0, max_attempts=3,
            faults=parse_fault_spec(
                "outage:duty=0.2,burst=0.5", base_seed=seed
            ),
            seed=seed,
        )
        for seed in GATE_SEEDS
    ]
    return _digest([_arq_outcomes(s) for s in sessions])


def _gate_downlink() -> str:
    downlinks = [
        link.run_downlink_ber(
            2.0, bit_duration_for_rate(20e3), num_bits=50_000, seed=seed,
        )
        for seed in GATE_SEEDS
    ]
    return _digest([[r.errors, r.total_bits] for r in downlinks])


def _gate_serve_overload() -> str:
    overload = ServeConfig(**SERVE_OVERLOAD_CONFIG)
    return _digest([
        _gate_serve_parts(run_serve(overload, seed=seed))
        for seed in GATE_SEEDS
    ])


def _gate_fleet() -> str:
    fleet = run_serve(ServeConfig(**FLEET_TELEMETRY_CONFIG), seed=0)
    return _digest(
        _gate_serve_parts(fleet),
        {
            key: fleet.report.fleet[key]
            for key in ("tags_seen", "tracked", "evictions",
                        "transitions_total", "offenders")
        },
    )


def _span_shape(spans) -> list:
    """Names, nesting and counts of a span forest, with no durations or
    attributes: each node is ``[name, children]``, and a run of equal
    sibling shapes collapses to ``[shape, count]``."""
    shapes: list = []
    for sp in spans:
        shape = [sp.name, _span_shape(sp.children)]
        if shapes and shapes[-1][0] == shape:
            shapes[-1][1] += 1
        else:
            shapes.append([shape, 1])
    return shapes


def _traced(run: Callable[[], object]) -> Dict[str, list]:
    """Stage call counts and span-tree shape of one traced run."""
    with obs.session(metrics=True, tracing=True):
        run()
        table = obs.get_tracer().aggregate()
        shape = _span_shape(obs.get_tracer().roots)
    return {
        "profile": {
            name: table[name]["calls"]
            for name in PROFILE_STAGES if name in table
        },
        "spans": shape,
    }


def _traced_uplink(workers: int = 1) -> Dict[str, list]:
    return _traced(lambda: link.run_uplink_ber(
        0.3, 12.0, repeats=4, num_payload_bits=45, seed=1, workers=workers,
    ))


#: One traced run per decode path, each digested twice: ``profile/*``
#: from its stage table, ``spans/*`` from its span trees.
TRACED_CASES: Dict[str, Callable[[], Dict[str, list]]] = {
    "uplink-ber": _traced_uplink,
    "correlation": lambda: _traced(lambda: link.run_correlation_trial(
        1.6, code_length=8, num_bits=12, packets_per_chip=5.0, seed=0,
    )),
    "serve": lambda: _traced(lambda: run_serve(SERVE_CONFIG, seed=SERVE_SEED)),
}


#: The retired gate's workloads by name, each digesting the outputs the
#: gate read (BER counts, ARQ outcomes, serve counts, the fleet summary).
GATE_CASES: Dict[str, Callable[[], str]] = {
    "uplink_csi_near": lambda: _gate_uplink(0.3, "csi"),
    "uplink_csi_mid": lambda: _gate_uplink(0.6, "csi"),
    "uplink_rssi_near": lambda: _gate_uplink(0.3, "rssi"),
    "correlation_long": _gate_correlation,
    "arq_under_faults": _gate_arq,
    "downlink_far": _gate_downlink,
    "serve_overload": _gate_serve_overload,
    "fleet_telemetry": _gate_fleet,
}


def compute(gate: bool = True) -> Dict[str, str]:
    """Every golden case's digest, keyed by case name.

    ``gate=False`` leaves out the ``gate/*`` cases, which
    :func:`test_gate_workload_matches_golden` checks one by one.
    """
    out: Dict[str, str] = {}
    for mode, distance in CLASSES:
        for seed in SEEDS:
            key = f"{mode}-{distance}/seed{seed}"
            out[f"synth/{key}"] = _digest(
                *_synthesize_and_decode(mode, distance, 30.0, seed)
            )
            out[f"ber/{key}"] = _digest(
                _ber_parts(mode, distance, 30.0, seed)
            )
            out[f"faults/{key}"] = _fault_case(
                mode, distance, seed, FAULT_SPEC
            )
            if seed in MIXED_SEEDS:
                out[f"mixed/{key}"] = _fault_case(
                    mode, distance, seed, MIXED_SPEC
                )
            if seed in RECORD_SEEDS:
                out[f"record/{key}"] = _record_case(
                    mode, distance, seed, FAULT_SPEC
                )
            if seed in RECORD_MIXED_SEEDS:
                out[f"record-mixed/{key}"] = _record_case(
                    mode, distance, seed, MIXED_SPEC
                )
    for distance in RSSI_TRIAL_DISTANCES:
        for seed in RSSI_TRIAL_SEEDS:
            out[f"rssi-trial/{distance}/seed{seed}"] = _rssi_trial_case(
                distance, seed
            )
            if distance in RSSI_SEARCH_DISTANCES:
                out[f"rssi-search/{distance}/seed{seed}"] = _rssi_trial_case(
                    distance, seed, known_timing=False
                )
    out[f"serve/seed{SERVE_SEED}"] = _serve_case()
    out[f"serve-rssi/seed{SERVE_SEED}"] = _serve_rssi_case()
    out[f"serve-faults/seed{SERVE_SEED}"] = _serve_faults_case()
    out[f"serve-metrics/seed{SERVE_SEED}"] = _serve_metrics_case()
    out[f"downlink-brownout/seed{DOWNLINK_SEED}"] = _downlink_case()
    out[f"arq-faults/seed{ARQ_SEED}"] = _arq_case()
    for seed in MULTI_SEEDS:
        out[f"multi-helper-faults/seed{seed}"] = _multi_helper_case(seed)
    for seed in MAC_SEEDS:
        out[f"mac-mixed/seed{seed}"] = _mac_case(seed)
    for seed in BEACON_SEEDS:
        out[f"mac-beacon/seed{seed}"] = _beacon_case(seed)
    for name in FAULT_SCENARIOS + RSSI_SCENARIOS:
        out[f"scenario/{name}"] = _scenario_case(name)
    for name, case in TRACED_CASES.items():
        traced = case()
        out[f"profile/{name}"] = _digest(traced["profile"])
        out[f"spans/{name}"] = _digest(traced["spans"])
    if gate:
        for name, case in GATE_CASES.items():
            out[f"gate/{name}"] = case()
    return out


def _expected() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def test_synthesis_matches_golden():
    expected = _expected()
    actual = compute(gate=False)
    changed = sorted(k for k in actual if actual[k] != expected.get(k))
    gate = {f"gate/{name}" for name in GATE_CASES}
    assert set(actual) == set(expected) - gate
    assert gate <= set(expected)
    assert not changed, f"{len(changed)} golden digests moved: {changed[:8]}"


def test_traced_uplink_on_a_fresh_pool_matches_golden():
    """Two workers forked inside the driver's span record the serial
    run's stage counts and span tree."""
    engine.shutdown_pool()
    try:
        traced = _traced_uplink(workers=2)
    finally:
        engine.shutdown_pool()
    expected = _expected()
    assert _digest(traced["profile"]) == expected["profile/uplink-ber"]
    assert _digest(traced["spans"]) == expected["spans/uplink-ber"]


@pytest.mark.parametrize("workload", list(GATE_CASES))
def test_gate_workload_matches_golden(workload):
    assert GATE_CASES[workload]() == _expected()[f"gate/{workload}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_synthesis.py --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {
            "about": "sha256 digests of integer-valued synthesis outputs; "
                     "see tests/unit/test_golden_synthesis.py",
            "digests": compute(),
        },
        indent=1, sort_keys=True,
    ) + "\n")
