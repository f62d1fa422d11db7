"""Chaos suite: graceful degradation ladder.

Rung 1: CSI-mode decoding silently falls back to RSSI when dropouts
leave too few usable sub-channels.  Rung 2: when slicing quality
collapses, the link recommends — and the ARQ session switches to — the
coded long-range correlation mode (§3.4).
"""

import numpy as np
import pytest

from repro.core.barker import barker_bits
from repro.core.conditioning import sanitize
from repro.core.uplink_decoder import LinkQuality, UplinkDecoder, assess_quality
from repro.errors import MeasurementError
from repro.faults import FaultInjector, FaultPlan, parse_fault_spec
from repro.sim.link import helper_packet_times, run_arq_uplink, simulate_uplink_stream
from repro.sim.seeding import resolve_rng
from repro.tag.modulator import random_payload

pytestmark = pytest.mark.chaos

BIT_RATE = 100.0
PACKETS_PER_BIT = 30.0


def _decode_with_faults(faults, num_payload_bits=20, seed=11):
    rng, _ = resolve_rng(None, seed)
    bit_duration = 1.0 / BIT_RATE
    payload = random_payload(num_payload_bits, rng)
    bits = barker_bits() + payload
    span = len(bits) * bit_duration + 2 * 0.45 + 0.1
    times = helper_packet_times(PACKETS_PER_BIT * BIT_RATE, span, rng=rng)
    stream, tx_start = simulate_uplink_stream(
        bits, bit_duration, times, 0.3, rng=rng, faults=faults
    )
    decoder = UplinkDecoder()
    result = decoder.decode_bits(
        stream, num_payload_bits, bit_duration, mode="csi",
        start_time_s=tx_start,
    )
    return payload, result


class _WipeCsi(FaultInjector):
    """Deterministic worst case: every CSI cell of every record is NaN."""

    name = "wipe_csi"

    def corrupt_rows(self, csi, rssi_dbm, has_csi, times_s):
        csi[has_csi] = np.nan
        return np.asarray(has_csi, dtype=bool).copy()


class TestRssiFallback:
    def test_heavy_csi_dropout_falls_back_to_rssi(self):
        """Rung 1: no usable CSI channels -> decode in RSSI mode."""
        faults = FaultPlan((_WipeCsi(),))
        payload, result = _decode_with_faults(faults)
        assert result.mode == "rssi"
        assert result.fallback_from == "csi"
        # The fallback still decodes: RSSI-mode BER at 0.3 m is low.
        errors = int(np.sum(np.asarray(payload) != result.bits))
        assert errors <= 2

    def test_clean_stream_stays_in_csi_mode(self):
        _, result = _decode_with_faults(None)
        assert result.mode == "csi"
        assert result.fallback_from is None


class TestQualityLadder:
    def test_clean_decode_assessed_ok(self):
        _, result = _decode_with_faults(None)
        quality = assess_quality(result)
        assert quality.recommendation == "ok"
        assert quality.separation > LinkQuality.SEPARATION_COLLAPSE

    def test_quality_constants_order_the_ladder(self):
        base = dict(mean_support=20.0, repaired_values=0, degraded=False)
        q_ok = LinkQuality(separation=6.0, erasure_fraction=0.0, **base)
        q_far = LinkQuality(separation=2.0, erasure_fraction=0.0, **base)
        q_starved = LinkQuality(separation=6.0, erasure_fraction=0.5, **base)
        assert q_ok.recommendation == "ok"
        assert q_far.recommendation == "long_range"
        assert q_starved.recommendation == "retry"

    def test_arq_degrades_to_correlation_out_of_range(self):
        """Rung 2: past CSI slicing range, the correlation rung delivers."""
        result = run_arq_uplink(
            1.1,
            num_frames=2,
            payload_len=12,
            bit_rate_bps=BIT_RATE,
            packets_per_bit=PACKETS_PER_BIT,
            max_attempts=3,
            degrade_after=1,
            code_length=16,
            seed=4,
        )
        assert result.delivery_ratio == 1.0
        assert result.degraded_frames >= 1
        assert any(o.mode == "correlation" for o in result.outcomes)


class TestNonFiniteGate:
    def test_reject_policy_raises_typed_error(self):
        bad = np.ones((10, 3))
        bad[4, 1] = np.nan
        with pytest.raises(MeasurementError):
            sanitize(bad, "reject")

    def test_repair_policy_fills_with_channel_median(self):
        bad = np.ones((10, 3))
        bad[4, 1] = np.inf
        clean, repaired = sanitize(bad, "repair")
        assert repaired == 1
        assert np.isfinite(clean).all()
        assert clean[4, 1] == 1.0

    def test_decoder_repairs_nan_poisoned_stream(self):
        """End to end: NaN-poisoned CSI still decodes (repair policy)."""
        faults = parse_fault_spec("nan:prob=0.05,cells=3", base_seed=2)
        payload, result = _decode_with_faults(faults)
        assert result.repaired_values > 0
        errors = int(np.sum(np.asarray(payload) != result.bits))
        assert errors <= 2
