"""Multipath fading and temporal drift."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy import constants
from repro.phy.fading import MultipathChannel, TapDelayProfile, TemporalDrift

FREQS = constants.subcarrier_frequencies(6)


class TestTapDelayProfile:
    def test_tap_powers_normalized(self):
        profile = TapDelayProfile(num_taps=8)
        assert profile.tap_powers().sum() == pytest.approx(1.0)

    def test_tap_powers_decay(self):
        powers = TapDelayProfile(num_taps=8).tap_powers()
        assert np.all(np.diff(powers) < 0)

    def test_single_tap(self):
        profile = TapDelayProfile(num_taps=1)
        assert profile.tap_delays().tolist() == [0.0]
        assert profile.tap_powers().tolist() == [1.0]

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            TapDelayProfile(num_taps=0)
        with pytest.raises(ConfigurationError):
            TapDelayProfile(rms_delay_spread_s=0.0)


class TestMultipathChannel:
    def test_response_shape(self, rng):
        ch = MultipathChannel(num_antennas=3, rng=rng)
        h = ch.frequency_response(FREQS)
        assert h.shape == (3, len(FREQS))
        assert np.iscomplexobj(h)

    def test_mean_power_near_unity(self, rng):
        # Averaged over many realizations, |H|^2 ~ 1 per sub-carrier.
        powers = []
        for _ in range(200):
            ch = MultipathChannel(num_antennas=1, rng=rng)
            h = ch.frequency_response(FREQS)
            powers.append(np.abs(h) ** 2)
        assert np.mean(powers) == pytest.approx(1.0, rel=0.15)

    def test_frequency_selectivity(self, rng):
        # With realistic delay spread, the response varies across the band.
        ch = MultipathChannel(num_antennas=1, rng=rng)
        h = np.abs(ch.frequency_response(FREQS))[0]
        assert h.max() / h.min() > 1.05

    def test_antennas_are_independent(self, rng):
        ch = MultipathChannel(num_antennas=2, rng=rng)
        h = ch.frequency_response(FREQS)
        corr = np.corrcoef(np.abs(h[0]), np.abs(h[1]))[0, 1]
        assert abs(corr) < 0.99  # not identical

    def test_regenerate_changes_realization(self, rng):
        ch = MultipathChannel(num_antennas=1, rng=rng)
        h1 = ch.frequency_response(FREQS).copy()
        ch.regenerate()
        h2 = ch.frequency_response(FREQS)
        assert not np.allclose(h1, h2)

    def test_invalid_antennas(self):
        with pytest.raises(ConfigurationError):
            MultipathChannel(num_antennas=0)


class TestTemporalDrift:
    def test_starts_at_unity(self, rng):
        drift = TemporalDrift(rng=rng)
        assert drift.sample(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_stays_near_unity(self, rng):
        drift = TemporalDrift(amplitude=0.05, rng=rng)
        values = [drift.sample(t) for t in np.linspace(0, 20, 2000)]
        assert np.std(values) < 0.15
        assert abs(np.mean(values) - 1.0) < 0.05

    def test_zero_amplitude_is_constant(self, rng):
        drift = TemporalDrift(amplitude=0.0, rng=rng)
        values = [drift.sample(t) for t in np.linspace(0, 5, 50)]
        assert values == pytest.approx([1.0] * 50)

    def test_rejects_time_reversal(self, rng):
        drift = TemporalDrift(rng=rng)
        drift.sample(1.0)
        with pytest.raises(ConfigurationError):
            drift.sample(0.5)

    def test_batch_matches_sequential(self):
        times = np.linspace(0, 2, 100)
        d1 = TemporalDrift(rng=np.random.default_rng(7))
        seq = np.array([d1.sample(t) for t in times])
        d2 = TemporalDrift(rng=np.random.default_rng(7))
        batch = d2.sample_batch(times)
        assert np.array_equal(seq, batch)

    def test_batch_continues_sequential_state_exactly(self):
        times = np.cumsum(np.random.default_rng(1).exponential(1e-3, 3000))
        d1 = TemporalDrift(rng=np.random.default_rng(9))
        seq = np.array([d1.sample(t) for t in times])
        d2 = TemporalDrift(rng=np.random.default_rng(9))
        head = [d2.sample(t) for t in times[:10]]
        batch = np.concatenate([head, d2.sample_batch(times[10:1500]),
                                d2.sample_batch(times[1500:])])
        assert np.array_equal(seq, batch)
        assert d2.sample(times[-1] + 0.5) == d1.sample(times[-1] + 0.5)

    def test_batch_rejects_time_reversal_like_sample(self, rng):
        times = np.array([0.0, 0.1, 0.3, 0.2, 0.4])
        scalar = TemporalDrift(rng=rng)
        with pytest.raises(ConfigurationError) as seq_err:
            for t in times:
                scalar.sample(float(t))
        with pytest.raises(ConfigurationError) as batch_err:
            TemporalDrift(rng=rng).sample_batch(times)
        assert str(batch_err.value) == str(seq_err.value)
        drift = TemporalDrift(rng=rng)
        drift.sample_batch(np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError, match="2.0"):
            drift.sample_batch(np.array([1.5]))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            TemporalDrift(amplitude=-0.1)
        with pytest.raises(ConfigurationError):
            TemporalDrift(time_constant_s=0.0)
