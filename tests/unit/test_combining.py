"""Noise-variance-weighted MRC combining."""

import numpy as np
import pytest

from repro.core.barker import barker_bits, bits_to_chips
from repro.core.combining import (
    MIN_VARIANCE,
    combine,
    estimate_noise_variance,
    make_weights,
)
from repro.errors import ConfigurationError, DecodeError

BIT = 0.01
PRE = barker_bits()


def preamble_stream(noises=(0.1, 0.5), gains=(1.0, 1.0), pkts_per_bit=20, seed=0):
    rng = np.random.default_rng(seed)
    n = len(PRE) * pkts_per_bit
    times = np.arange(n) * (BIT / pkts_per_bit)
    idx = np.floor(times / BIT).astype(int)
    chips = bits_to_chips([PRE[i] for i in idx])
    cols = []
    for noise, gain in zip(noises, gains):
        cols.append(gain * chips + rng.normal(scale=noise, size=n))
    return np.stack(cols, axis=1), times


class TestNoiseVariance:
    def test_estimates_per_channel_noise(self):
        matrix, times = preamble_stream(noises=(0.1, 0.5))
        corr = np.array([1.0, 1.0])
        var = estimate_noise_variance(matrix, times, 0.0, PRE, BIT, corr)
        assert var[0] == pytest.approx(0.01, rel=0.4)
        assert var[1] == pytest.approx(0.25, rel=0.4)

    def test_floored(self):
        matrix, times = preamble_stream(noises=(0.0, 0.0))
        corr = np.array([1.0, 1.0])
        var = estimate_noise_variance(matrix, times, 0.0, PRE, BIT, corr)
        assert np.all(var >= MIN_VARIANCE)

    def test_needs_preamble_packets(self):
        matrix = np.ones((5, 2))
        times = np.arange(5) * 1000.0  # all outside the preamble span
        with pytest.raises(DecodeError, match="2 preamble packets"):
            estimate_noise_variance(
                matrix, times, 0.0, PRE, BIT, np.array([1.0, 1.0])
            )

    def test_one_preamble_packet_is_a_decode_failure(self):
        # A starved stream is a data condition, not a bad invocation.
        matrix = np.ones((5, 2))
        times = np.array([0.0, 1000.0, 2000.0, 3000.0, 4000.0])
        with pytest.raises(DecodeError) as exc:
            estimate_noise_variance(
                matrix, times, 0.0, PRE, BIT, np.array([1.0, 1.0])
            )
        assert not isinstance(exc.value, ConfigurationError)

    def test_two_preamble_packets_suffice(self):
        matrix = np.array([[1.0, 0.5], [-1.0, 0.7], [0.0, 0.0]])
        times = np.array([0.0, 1.5 * BIT, 1000.0])
        var = estimate_noise_variance(
            matrix, times, 0.0, PRE, BIT, np.array([1.0, 0.0])
        )
        assert var.shape == (2,)
        assert np.all(np.isfinite(var)) and np.all(var >= MIN_VARIANCE)


class TestMakeWeights:
    def test_low_variance_gets_high_weight(self):
        corr = np.array([0.9, 0.9])
        var = np.array([0.01, 1.0])
        w = make_weights(corr, var, np.array([0, 1]))
        assert abs(w.weights[0]) > 10 * abs(w.weights[1])

    def test_sign_follows_correlation(self):
        corr = np.array([0.9, -0.9])
        var = np.array([0.1, 0.1])
        w = make_weights(corr, var, np.array([0, 1]))
        assert w.weights[0] > 0 > w.weights[1]

    def test_index_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            make_weights(np.array([1.0]), np.array([0.1]), np.array([3]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            make_weights(np.array([1.0]), np.array([0.1]), np.array([], dtype=int))


class TestCombine:
    def test_combining_beats_single_noisy_channel(self):
        # MRC over channels of differing quality should outperform the
        # bad channel and exploit the good one.
        matrix, times = preamble_stream(noises=(0.2, 1.5), seed=2)
        corr = np.array([1.0, 1.0])
        var = estimate_noise_variance(matrix, times, 0.0, PRE, BIT, corr)
        w = make_weights(corr, var, np.array([0, 1]))
        combined = combine(matrix, w)
        idx = np.floor(times / BIT).astype(int)
        chips = bits_to_chips([PRE[i] for i in idx])
        snr_combined = np.mean(combined * chips) / np.std(combined - chips * np.mean(combined * chips))
        snr_bad = np.mean(matrix[:, 1] * chips) / matrix[:, 1].std()
        assert snr_combined > snr_bad

    def test_polarity_correction(self):
        # An inverted channel must still add constructively.
        matrix, times = preamble_stream(noises=(0.2, 0.2), gains=(1.0, -1.0))
        corr = np.array([1.0, -1.0])
        var = np.array([0.04, 0.04])
        w = make_weights(corr, var, np.array([0, 1]))
        combined = combine(matrix, w)
        idx = np.floor(times / BIT).astype(int)
        chips = bits_to_chips([PRE[i] for i in idx])
        assert np.corrcoef(combined, chips)[0, 1] > 0.9

    def test_output_scaled_near_unit(self):
        matrix, times = preamble_stream(noises=(0.05, 0.05))
        corr = np.array([1.0, 1.0])
        var = np.array([0.0025, 0.0025])
        w = make_weights(corr, var, np.array([0, 1]))
        combined = combine(matrix, w)
        assert np.abs(combined).mean() == pytest.approx(1.0, rel=0.2)

    def test_requires_2d(self):
        w = make_weights(np.array([1.0]), np.array([0.1]), np.array([0]))
        with pytest.raises(ConfigurationError):
            combine(np.ones(5), w)
