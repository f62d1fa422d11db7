"""Chaos suite: ARQ under injected faults.

The headline acceptance scenario: a 10% duty-cycle helper outage at the
nominal uplink operating point (100 bps, 30 packets/bit, 0.3 m) must
still deliver >= 99% of frames within the 5-attempt ARQ budget.
"""

import numpy as np
import pytest

from repro.errors import BrownoutError, DecodeError
from repro.faults import FaultInjector, FaultPlan, HelperOutage, parse_fault_spec
from repro.sim.link import (
    helper_packet_times,
    run_arq_uplink,
    run_uplink_ber,
    simulate_uplink_stream,
)
from repro.core.barker import barker_bits
from repro.core.protocol import BackoffPolicy
from repro.sim.seeding import resolve_rng

pytestmark = pytest.mark.chaos

# Nominal uplink operating point (matches the calibrated integration
# tests): 100 bps, 30 packets/bit, 0.3 m tag-to-reader.
NOMINAL = dict(bit_rate_bps=100.0, packets_per_bit=30.0)
OUTAGE_10PCT = "outage:duty=0.1,burst=0.1,seed=9"


class TestArqAcceptance:
    def test_99pct_delivery_under_10pct_outage(self):
        """>= 99% of frames delivered within 5 attempts (ISSUE criterion)."""
        result = run_arq_uplink(
            0.3,
            num_frames=20,
            payload_len=16,
            max_attempts=5,
            faults=parse_fault_spec(OUTAGE_10PCT),
            seed=21,
            **NOMINAL,
        )
        assert result.delivery_ratio >= 0.99
        assert all(o.attempts <= 5 for o in result.outcomes)
        # Retries did real work: the outage forced at least one.
        assert any(o.attempts > 1 for o in result.outcomes)

    def test_clean_channel_first_attempt(self):
        result = run_arq_uplink(
            0.3, num_frames=5, payload_len=16, max_attempts=5, seed=3, **NOMINAL
        )
        assert result.delivery_ratio == 1.0
        assert result.mean_attempts == 1.0
        assert all(o.backoff_s == 0.0 for o in result.outcomes)

    def test_session_is_deterministic(self):
        kwargs = dict(
            num_frames=6, payload_len=16, max_attempts=5, seed=21, **NOMINAL
        )
        a = run_arq_uplink(0.3, faults=parse_fault_spec(OUTAGE_10PCT), **kwargs)
        b = run_arq_uplink(0.3, faults=parse_fault_spec(OUTAGE_10PCT), **kwargs)
        assert a.to_dict() == b.to_dict()

    def test_backoff_accumulates_on_retries(self):
        result = run_arq_uplink(
            0.3,
            num_frames=20,
            payload_len=16,
            max_attempts=5,
            backoff=BackoffPolicy(initial_s=0.05),
            faults=parse_fault_spec(OUTAGE_10PCT),
            seed=21,
            **NOMINAL,
        )
        retried = [o for o in result.outcomes if o.attempts > 1]
        assert retried
        assert all(o.backoff_s > 0.0 for o in retried)

    def test_to_dict_shape(self):
        result = run_arq_uplink(
            0.3, num_frames=2, payload_len=16, max_attempts=2, seed=0, **NOMINAL
        )
        d = result.to_dict()
        assert d["frames"] == 2
        assert set(d) >= {
            "frames",
            "delivered",
            "delivery_ratio",
            "correct",
            "mean_attempts",
            "degraded_frames",
            "elapsed_s",
        }


class TestFaultedBer:
    def test_outage_degrades_ber_monotonically(self):
        clean = run_uplink_ber(0.3, 30.0, repeats=2, num_payload_bits=45,
                               seed=5, bit_rate_bps=100.0)
        heavy = run_uplink_ber(
            0.3, 30.0, repeats=2, num_payload_bits=45, seed=5,
            bit_rate_bps=100.0,
            faults=FaultPlan((HelperOutage(0.6, 0.2, seed=1),)),
        )
        assert heavy.ber >= clean.ber

    def test_total_outage_scores_all_bits_as_errors(self):
        """An undecodable trial counts every payload bit as an error."""
        result = run_uplink_ber(
            0.3, 30.0, repeats=2, num_payload_bits=45, seed=5,
            bit_rate_bps=100.0,
            faults=FaultPlan((HelperOutage(0.995, 50.0, seed=2),)),
        )
        assert result.errors == result.total_bits == 90
        assert result.ber == 1.0


class _AlwaysDark(FaultInjector):
    """Deterministic worst case: the tag is never powered."""

    name = "always_dark"

    def dark_mask(self, times_s):
        return np.ones(len(times_s), dtype=bool)


class _AlwaysDropped(FaultInjector):
    """Deterministic worst case: no helper packet ever arrives."""

    name = "always_dropped"

    def drop_mask(self, times_s):
        return np.ones(len(times_s), dtype=bool)


class TestBrownout:
    def _render(self, faults):
        bits = barker_bits() + [1, 0, 1, 1]
        bit_duration = 1.0 / 100.0
        span = len(bits) * bit_duration + 2 * 0.45 + 0.1
        rng, _ = resolve_rng(None, 11)
        times = helper_packet_times(3000.0, span, rng=rng)
        return simulate_uplink_stream(bits, bit_duration, times, 0.3,
                                      faults=faults)

    def test_total_brownout_raises_typed_error(self):
        with pytest.raises(BrownoutError):
            self._render(FaultPlan((_AlwaysDark(),)))

    def test_total_outage_raises_decode_error(self):
        with pytest.raises(DecodeError):
            self._render(FaultPlan((_AlwaysDropped(),)))
