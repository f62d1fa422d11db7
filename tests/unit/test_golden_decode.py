"""Golden digests of the §3.2 uplink decode stages.

Decodes the streams that ``tests/unit/test_golden_synthesis.py`` builds
(the 30 clean synthesis cases and both fault specs) with
``UplinkDecoder.decode_bits``, with known frame timing and with the
preamble search, and compares digests with ``tests/golden/decode.json``.
Only integer-valued outputs are hashed: per-packet hysteresis decisions,
decoded bits, per-bit support, erasures, selected sub-channel indices,
the frame slice, the decode mode and its fallback, and the error type
when a decode raises.  So a digest does not depend on SIMD or BLAS
paths.

A change that moves a digest must regenerate the file deliberately and
say why::

    PYTHONPATH=src python -m tests.unit.test_golden_decode --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.core import slicer
from repro.core.uplink_decoder import UplinkDecoder
from repro.errors import ReproError
from repro.faults.spec import parse_fault_spec
from repro.sim import link
from tests.unit.test_golden_synthesis import (
    BIT_RATE_BPS,
    CLASSES,
    FAULT_SPEC,
    MIXED_SEEDS,
    MIXED_SPEC,
    PAYLOAD_BITS,
    SEEDS,
    _digest,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "decode.json"
BIT_S = 1.0 / BIT_RATE_BPS


def _cases() -> Iterator[Tuple[str, str, object, float]]:
    """``(name, mode, stream or error name, tx_start)`` per golden input."""
    sets = [("synth", 30.0, None, SEEDS), ("faults", 10.0, FAULT_SPEC, SEEDS),
            ("mixed", 10.0, MIXED_SPEC, MIXED_SEEDS)]
    for label, packets_per_bit, spec, seeds in sets:
        for mode, distance in CLASSES:
            for seed in seeds:
                name = f"{label}/{mode}-{distance}/seed{seed}"
                faults = (None if spec is None
                          else parse_fault_spec(spec, base_seed=seed))
                try:
                    _, stream, tx_start = link.synthesize_uplink_trial(
                        distance, packets_per_bit,
                        num_payload_bits=PAYLOAD_BITS,
                        bit_rate_bps=BIT_RATE_BPS,
                        rng=np.random.default_rng(seed), faults=faults,
                    )
                except ReproError as exc:
                    yield name, mode, type(exc).__name__, 0.0
                    continue
                yield name, mode, stream, tx_start


def _parts(result, error, width: float) -> list:
    """The integer-valued outputs of one decode, or its error type."""
    if error is not None:
        if not isinstance(error, ReproError):
            raise error
        return [type(error).__name__]
    thresholds = slicer.compute_thresholds(result.combined, width)
    decisions = slicer.hysteresis_slice(result.combined, thresholds)
    return [
        np.asarray(decisions, dtype="<i8"),
        np.asarray(result.bits, dtype="<i8"),
        np.asarray(result.sliced.support, dtype="<i8"),
        np.asarray(result.sliced.erasures, dtype="<i8"),
        np.asarray(result.weights.channel_indices, dtype="<i8"),
        list(result.frame_slice),
        [result.mode, result.fallback_from],
    ]


def _decode(decoder: UplinkDecoder, stream, mode: str, start):
    try:
        return decoder.decode_bits(
            stream, PAYLOAD_BITS, BIT_S, mode=mode, start_time_s=start,
        ), None
    except Exception as exc:
        return None, exc


def compute() -> Dict[str, str]:
    """Every golden case's digest, keyed by ``scalar/`` and case name."""
    decoder = UplinkDecoder()
    width = decoder.config.hysteresis_width
    parts: Dict[str, list] = {}
    for name, mode, stream, tx_start in _cases():
        key = f"scalar/{name}"
        if isinstance(stream, str):
            parts[key] = [stream]
            continue
        parts[key] = []
        for timing, start in (("known", tx_start), ("scan", None)):
            result, error = _decode(decoder, stream, mode, start)
            parts[key].extend([timing] + _parts(result, error, width))
    return {key: _digest(*value) for key, value in sorted(parts.items())}


def test_decode_matches_golden():
    expected = json.loads(GOLDEN.read_text())["digests"]
    actual = compute()
    changed = sorted(k for k in expected if actual.get(k) != expected[k])
    assert set(actual) == set(expected)
    assert not changed, f"{len(changed)} golden digests moved: {changed[:8]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.unit.test_golden_decode --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {
            "about": "sha256 digests of integer-valued uplink decode "
                     "outputs; see tests/unit/test_golden_decode.py",
            "digests": compute(),
        },
        indent=1, sort_keys=True,
    ) + "\n")
