"""Golden digests of the uplink synthesis path.

Recomputes digests of synthesized streams, Fig 10 BER trials, fault-plan
runs and three micro-batched serve sessions (clean, faulted, and clean
with metrics on), and compares them with
``tests/golden/synthesis.json``.  Only integer-valued outputs are hashed:
timestamp bytes, CSI in quantisation steps (non-finite cells as a
separate mask), RSSI in dB, payload and decoded bits, error counts,
fault evidence units, counters and delivered payloads.  So a digest does
not depend on which SIMD code paths a CPU takes for ``exp``/``log``.  The
one exception is the faulted serve session's ``report.fleet`` block,
whose latency sketch holds virtual-clock floats.

A change that moves a digest must regenerate the file deliberately and
say why::

    PYTHONPATH=src python tests/unit/test_golden_synthesis.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from repro import obs
from repro.core.uplink_decoder import UplinkDecoder
from repro.errors import ReproError
from repro.faults.spec import parse_fault_spec
from repro.serve.gateway import ServeConfig, run_serve
from repro.sim import link

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
SERVE_CONFIG = ServeConfig(
    duration_s=10.0, offered_load_rps=4.0, burst_load_rps=12.5,
    burst_start_s=3.0, burst_end_s=7.0, deadline_ms=2500.0,
    queue_capacity=12, batch=4, batch_max=16, batch_window_s=0.25,
    workers=0, n_tags=64, payload_bits=8, packets_per_bit=6.0,
    bit_rate_bps=50.0,
)
SERVE_SEED = 1
#: Heavy enough to fail decodes (DecodeError, ConfigurationError), push
#: CSI decodes onto the RSSI fallback and quarantine a tag's breaker.
SERVE_FAULT_SPEC = ("outage:duty=0.5,burst=0.5;"
                    "csi_dropout:duty=0.6,burst=0.3,frac=0.9;"
                    "nan:prob=0.05")
#: The decode counters a serve session emits.
SERVE_COUNTERS = (
    "uplink.decodes", "uplink.bits.total", "uplink.bits.errors",
    "uplink.nonfinite.repaired", "uplink.degradation.rssi_fallbacks",
    "conditioning.nonfinite.repaired",
)


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


def _fault_case(mode, distance, seed, spec) -> str:
    """Synthesis, decode, BER and fault evidence under a fault spec."""
    recorder = obs.get_recorder()
    saved_policy = recorder.policy
    with obs.session(metrics=True, tracing=False, recording=True) as (
        registry, _
    ):
        recorder.configure(policy="head")
        try:
            synth = _synthesize_and_decode(
                mode, distance, 10.0, seed,
                faults=parse_fault_spec(spec, base_seed=seed),
            )
            ber = _ber_parts(
                mode, distance, 10.0, seed,
                faults=parse_fault_spec(spec, base_seed=seed),
            )
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
                for r in recorder.records
            ]
            counters = {
                name: int(entry["value"])
                for name, entry in registry.snapshot().items()
                if entry.get("type") == "counter"
            }
        finally:
            recorder.configure(policy=saved_policy)
    return _digest(*synth, ber, records, counters)


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


def compute() -> Dict[str, str]:
    """Every golden case's digest, keyed by case name."""
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
    out[f"serve/seed{SERVE_SEED}"] = _serve_case()
    out[f"serve-faults/seed{SERVE_SEED}"] = _serve_faults_case()
    out[f"serve-metrics/seed{SERVE_SEED}"] = _serve_metrics_case()
    return out


def test_synthesis_matches_golden():
    expected = json.loads(GOLDEN.read_text())["digests"]
    actual = compute()
    changed = sorted(k for k in expected if actual.get(k) != expected[k])
    assert set(actual) == set(expected)
    assert not changed, f"{len(changed)} golden digests moved: {changed[:8]}"


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
