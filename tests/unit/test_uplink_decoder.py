"""The full uplink pipeline on synthesized measurement streams."""

import numpy as np
import pytest

from repro.core.barker import barker_bits
from repro.core.frames import UplinkFrame
from repro.core.uplink_decoder import UplinkDecoder, UplinkDecoderConfig
from repro.errors import ConfigurationError, DecodeError
from repro.measurement import ChannelMeasurement, MeasurementStream

BIT = 0.01


def synth_stream(payload, pkts_per_bit=10, depth=0.4, noise=0.05,
                 lead_s=0.6, seed=0, n_ant=3, n_sub=30,
                 signal_fraction=0.3):
    """A measurement stream with a tag frame imprinted on some channels."""
    rng = np.random.default_rng(seed)
    bits = barker_bits() + list(payload)
    dt = BIT / pkts_per_bit
    total = lead_s + len(bits) * BIT + lead_s
    times = np.arange(0, total, dt)
    idx = np.floor((times - lead_s) / BIT).astype(int)
    states = np.zeros(len(times))
    valid = (idx >= 0) & (idx < len(bits))
    states[valid] = [bits[i] for i in idx[valid]]
    base = 5.0 + rng.random((n_ant, n_sub)) * 3.0
    gains = np.zeros((n_ant, n_sub))
    mask = rng.random((n_ant, n_sub)) < signal_fraction
    gains[mask] = depth * (1 + rng.random(mask.sum()))
    stream = MeasurementStream()
    for t, s in zip(times, states):
        csi = base + s * gains + rng.normal(scale=noise, size=(n_ant, n_sub))
        rssi = np.full(n_ant, -40.0) + s * 1.0 + rng.normal(scale=0.3, size=n_ant)
        rssi = np.round(rssi)
        stream.append(
            ChannelMeasurement(timestamp_s=t, csi=csi, rssi_dbm=rssi)
        )
    return stream, lead_s


class TestDecodeBits:
    def test_decodes_clean_csi(self):
        payload = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]
        stream, start = synth_stream(payload)
        decoder = UplinkDecoder()
        result = decoder.decode_bits(stream, len(payload), BIT, start_time_s=start)
        assert result.bits.tolist() == payload

    def test_decodes_with_preamble_search(self):
        payload = [1, 0, 0, 1, 1, 0, 1, 0]
        stream, start = synth_stream(payload, depth=0.6)
        decoder = UplinkDecoder()
        result = decoder.decode_bits(stream, len(payload), BIT)
        assert result.bits.tolist() == payload
        assert result.detection.start_time_s == pytest.approx(start, abs=BIT)

    def test_decodes_rssi_mode(self):
        payload = [1, 0, 1, 0, 0, 1]
        stream, start = synth_stream(payload, seed=3)
        decoder = UplinkDecoder()
        result = decoder.decode_bits(
            stream, len(payload), BIT, mode="rssi", start_time_s=start
        )
        assert result.bits.tolist() == payload
        assert result.mode == "rssi"

    def test_rssi_uses_single_channel(self):
        payload = [1, 0, 1, 0]
        stream, start = synth_stream(payload)
        decoder = UplinkDecoder()
        result = decoder.decode_bits(
            stream, len(payload), BIT, mode="rssi", start_time_s=start
        )
        # "we select the best RSSI channel" (§3.3) — exactly one.
        assert len(result.weights.channel_indices) == 1

    def test_csi_uses_top_ten(self):
        payload = [1, 0] * 5
        stream, start = synth_stream(payload)
        decoder = UplinkDecoder()
        result = decoder.decode_bits(stream, len(payload), BIT, start_time_s=start)
        assert len(result.weights.channel_indices) == 10

    def test_unknown_mode_rejected(self):
        payload = [1, 0]
        stream, start = synth_stream(payload)
        with pytest.raises(ConfigurationError):
            UplinkDecoder().decode_bits(
                stream, 2, BIT, mode="magic", start_time_s=start
            )

    def test_short_stream_rejected(self):
        payload = [1, 0, 1, 0]
        stream, start = synth_stream(payload, lead_s=0.5)
        truncated = stream.sliced(0.0, start + 2 * BIT)
        with pytest.raises(DecodeError):
            UplinkDecoder().decode_bits(
                truncated, len(payload) + 10, BIT, start_time_s=start
            )

    def test_empty_stream_rejected(self):
        with pytest.raises(DecodeError, match="empty measurement stream"):
            UplinkDecoder().decode_bits(MeasurementStream(), 4, BIT)

    def test_empty_stream_leaves_decoder_usable(self):
        # One bad packet never sinks the next: the rejection carries its
        # cause and the same decoder still decodes a good stream after.
        payload = [1, 0, 1, 1, 0, 0, 1, 0]
        stream, start = synth_stream(payload)
        decoder = UplinkDecoder()
        with pytest.raises(DecodeError, match="empty measurement stream"):
            decoder.decode_bits(MeasurementStream(), len(payload), BIT)
        result = decoder.decode_bits(
            stream, len(payload), BIT, start_time_s=start
        )
        assert result.bits.tolist() == payload

    def test_zero_num_bits_rejected(self):
        stream, start = synth_stream([1, 0])
        with pytest.raises(ConfigurationError, match="num_bits must be >= 1"):
            UplinkDecoder().decode_bits(stream, 0, BIT, start_time_s=start)

    @pytest.mark.parametrize("known_timing", [True, False])
    @pytest.mark.parametrize("bit_s", [0.0, float("nan"), float("inf")])
    def test_bad_bit_duration_rejected(self, bit_s, known_timing):
        stream, start = synth_stream([1, 0])
        with pytest.raises(ConfigurationError, match="bit_duration_s"):
            UplinkDecoder().decode_bits(
                stream, 2, bit_s,
                start_time_s=start if known_timing else None,
            )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            UplinkDecoderConfig(good_count=0)
        with pytest.raises(ConfigurationError):
            UplinkDecoderConfig(search_step_fraction=0.0)


class TestDecodeFrame:
    def test_roundtrip_with_crc(self):
        payload = tuple([1, 0, 1, 1, 0, 0, 1, 0] * 2)
        frame = UplinkFrame(payload_bits=payload)
        stream, start = synth_stream(
            frame.to_bits()[13:], depth=0.6, seed=5
        )  # synth adds its own preamble
        decoder = UplinkDecoder()
        decoded = decoder.decode_frame(
            stream, payload_len=len(payload), bit_duration_s=BIT,
            start_time_s=start,
        )
        assert decoded.payload_bits == payload
