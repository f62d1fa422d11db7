"""Failure injection: the decoder's robustness machinery under stress.

Each test cranks one impairment well past its calibrated level and
checks that the system degrades the way the paper's design intends —
gracefully where a defence exists (hysteresis, timestamp binning,
CRC), and with a detectable failure (not silent corruption) where none
does.
"""

import numpy as np
import pytest

from repro.core.barker import barker_bits
from repro.core.frames import UplinkFrame
from repro.core.uplink_decoder import UplinkDecoder
from repro.errors import CrcError, DecodeError, PreambleNotFound, ReproError
from repro.hardware.intel5300 import Intel5300
from repro.hardware.rssi import RssiModel
from repro.phy.noise import SpuriousGlitchModel
from repro.sim import calibration
from repro.sim.link import helper_packet_times
from repro.sim.metrics import bit_errors
from repro.tag.modulator import TagModulator, random_payload


def stream_with_card(card, payload_bits, seed=0, distance=0.1, bit_s=0.01,
                     rate_pps=2000.0, traffic="cbr"):
    rng = np.random.default_rng(seed)
    bits = barker_bits() + list(payload_bits)
    times = helper_packet_times(
        rate_pps, len(bits) * bit_s + 1.1, traffic=traffic, rng=rng
    )
    modulator = TagModulator(bit_duration_s=bit_s)
    tx_start = float(times[0]) + 0.45
    modulator.load_bits(bits, tx_start)
    channel = calibration.make_channel(distance, rng=rng)
    states = modulator.states(times)
    stream = card.measure_batch(channel.response_batch(times, states), times)
    return stream, tx_start


class TestGlitchStorm:
    def test_decodes_through_10x_glitch_rate(self):
        rng = np.random.default_rng(1)
        card = Intel5300(
            csi_noise_rel=0.05,
            glitches=SpuriousGlitchModel(probability=0.05, magnitude=0.5,
                                         rng=rng),
            rng=rng,
        )
        payload = random_payload(40, rng)
        stream, tx_start = stream_with_card(card, payload, seed=1)
        result = UplinkDecoder().decode_bits(
            stream, len(payload), 0.01, start_time_s=tx_start
        )
        assert bit_errors(payload, result.bits) <= 1

    def test_constant_glitching_finally_breaks_it(self):
        # Sanity: the defence has limits; at 50% glitch probability with
        # huge magnitude the link must actually fail (no silent "it
        # always works" model artifact).
        rng = np.random.default_rng(2)
        card = Intel5300(
            glitches=SpuriousGlitchModel(probability=0.5, magnitude=0.9,
                                         rng=rng),
            csi_noise_rel=0.4,
            rng=rng,
        )
        payload = random_payload(40, rng)
        errors = 0
        for seed in range(3):
            stream, tx_start = stream_with_card(
                card, payload, seed=seed, distance=0.6
            )
            result = UplinkDecoder().decode_bits(
                stream, len(payload), 0.01, start_time_s=tx_start
            )
            errors += bit_errors(payload, result.bits)
        assert errors > 5


class TestStarvedTraffic:
    def test_erasures_surface_in_support(self):
        rng = np.random.default_rng(3)
        card = calibration.make_card(rng=rng)
        payload = random_payload(40, rng)
        stream, tx_start = stream_with_card(
            card, payload, seed=3, rate_pps=150.0, bit_s=0.01,
            traffic="poisson",
        )  # ~1.5 pkts/bit Poisson: some bins are empty
        result = UplinkDecoder().decode_bits(
            stream, len(payload), 0.01, start_time_s=tx_start
        )
        assert len(result.sliced.erasures) > 0

    def test_crc_catches_erasure_corruption(self):
        rng = np.random.default_rng(4)
        card = calibration.make_card(rng=rng)
        frame = UplinkFrame(payload_bits=tuple(random_payload(40, rng)))
        caught = 0
        for seed in range(6):
            stream, tx_start = stream_with_card(
                card, frame.to_bits()[13:], seed=40 + seed, rate_pps=120.0
            )
            try:
                UplinkDecoder().decode_frame(
                    stream, payload_len=40, bit_duration_s=0.01,
                    start_time_s=tx_start,
                )
            except (CrcError, DecodeError):
                caught += 1
        # With ~1 packet/bit some frames decode, but corrupted ones must
        # be *caught*, never returned as valid.
        assert caught >= 1


class TestDeadAntennas:
    def test_two_dead_antennas_still_decode(self):
        # The selector simply never picks the dead antenna's channels.
        rng = np.random.default_rng(5)
        card = Intel5300(
            weak_antenna=0, weak_antenna_gain=0.01, csi_noise_rel=0.05,
            rng=rng,
        )
        payload = random_payload(40, rng)
        stream, tx_start = stream_with_card(card, payload, seed=5)
        result = UplinkDecoder().decode_bits(
            stream, len(payload), 0.01, start_time_s=tx_start
        )
        assert bit_errors(payload, result.bits) == 0


class TestSaturatedRssi:
    def test_clipped_rssi_fails_loudly_not_silently(self):
        # With the RSSI ceiling low enough to clip everything to one
        # value, the preamble can't be detected — the decoder must
        # raise, not hallucinate bits.
        rng = np.random.default_rng(6)
        card = Intel5300(
            rssi=RssiModel(ceiling_dbm=-80.0, floor_dbm=-81.0, rng=rng),
            rng=rng,
        )
        payload = random_payload(30, rng)
        stream, tx_start = stream_with_card(card, payload, seed=6)
        decoder = UplinkDecoder()
        from repro.core.uplink_decoder import UplinkDecoderConfig

        strict = UplinkDecoder(UplinkDecoderConfig(min_detection_score=0.5))
        with pytest.raises((PreambleNotFound, DecodeError)):
            strict.decode_bits(stream, len(payload), 0.01, mode="rssi")


class TestTagClockDrift:
    def test_large_skew_breaks_long_frames(self):
        # 2% clock error over a 150-bit frame is 3 bits of drift — the
        # fixed-grid binning must visibly fail (motivates the coded
        # mode's shorter messages / resync).
        rng = np.random.default_rng(7)
        payload = random_payload(150, rng)
        bits = barker_bits() + payload
        bit_s = 0.01
        times = helper_packet_times(2000.0, len(bits) * bit_s + 1.2, rng=rng)
        modulator = TagModulator(bit_duration_s=bit_s, clock_skew_ppm=20_000)
        tx_start = float(times[0]) + 0.45
        modulator.load_bits(bits, tx_start)
        channel = calibration.make_channel(0.05, rng=rng)
        card = calibration.make_card(rng=rng)
        stream = card.measure_batch(
            channel.response_batch(times, modulator.states(times)), times
        )
        result = UplinkDecoder().decode_bits(
            stream, len(payload), bit_s, start_time_s=tx_start
        )
        # Accumulating misalignment: the very first bits survive, the
        # tail is scrambled, and overall the frame is unusable.
        early = bit_errors(payload[:6], result.bits[:6])
        late = bit_errors(payload[-30:], result.bits[-30:])
        assert early <= 3
        assert late >= 8
        assert bit_errors(payload, result.bits) > 15
