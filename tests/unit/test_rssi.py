"""RSSI measurement model."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.hardware.agc import AgcModel
from repro.hardware.rssi import RssiModel


def amplitude(level=1e-3, n_ant=3, n_sub=30):
    return np.full((n_ant, n_sub), level)


class TestRssiModel:
    def test_reports_per_antenna(self, rng):
        model = RssiModel(rng=rng)
        out = model.measure(amplitude(), tx_power_w=0.04)
        assert out.shape == (3,)

    def test_level_tracks_channel_power(self, rng):
        model = RssiModel(noise_std_db=0.0, quantization_db=0.0, rng=rng)
        strong = model.measure(amplitude(2e-3), 0.04)
        weak = model.measure(amplitude(1e-3), 0.04)
        # 2x amplitude = 6 dB more power.
        assert strong[0] - weak[0] == pytest.approx(6.0, abs=0.1)

    def test_quantization_to_1db(self, rng):
        model = RssiModel(quantization_db=1.0, noise_std_db=0.0, rng=rng)
        out = model.measure(amplitude(), 0.04)
        assert np.allclose(out, np.round(out))

    def test_clipping(self, rng):
        model = RssiModel(floor_dbm=-95.0, ceiling_dbm=-10.0, rng=rng)
        tiny = model.measure(amplitude(1e-12), 0.04)
        huge = model.measure(amplitude(1.0), 0.04)
        assert np.all(tiny >= -95.0)
        assert np.all(huge <= -10.0)

    def test_absolute_scale_sane(self, rng):
        # 16 dBm through a -60 dB channel should read near -44 dBm.
        model = RssiModel(noise_std_db=0.0, rng=rng)
        amp = amplitude(1e-3)  # power gain 1e-6 = -60 dB
        out = model.measure(amp, units.dbm_to_watts(16.0))
        assert out[0] == pytest.approx(-44.0, abs=1.5)

    def test_batch_matches_single_statistics(self):
        amps = np.stack([amplitude(1e-3)] * 500)
        m1 = RssiModel(rng=np.random.default_rng(0))
        batch = m1.measure_batch(amps, 0.04)
        m2 = RssiModel(rng=np.random.default_rng(0))
        singles = np.stack([m2.measure(amplitude(1e-3), 0.04) for _ in range(500)])
        assert batch.mean() == pytest.approx(singles.mean(), abs=0.2)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            RssiModel(quantization_db=-1.0)
        with pytest.raises(ConfigurationError):
            RssiModel(floor_dbm=0.0, ceiling_dbm=-10.0)
        model = RssiModel(rng=rng)
        with pytest.raises(ConfigurationError):
            model.measure(np.ones(30), 0.04)
        with pytest.raises(ConfigurationError):
            model.measure(amplitude(), 0.0)
        with pytest.raises(ConfigurationError):
            model.measure_batch(np.ones((3, 30)), 0.04)


class TestAgc:
    def test_gain_near_unity(self, rng):
        agc = AgcModel(rng=rng)
        gains = [agc.next_gain() for _ in range(1000)]
        assert np.mean(gains) == pytest.approx(1.0, abs=0.1)

    def test_gains_quantized(self, rng):
        agc = AgcModel(step_db=0.5, wander_std_db=0.5, rng=rng)
        for _ in range(100):
            g_db = 20 * np.log10(agc.next_gain())
            assert g_db / 0.5 == pytest.approx(round(g_db / 0.5), abs=1e-6)

    def test_zero_wander_is_constant(self, rng):
        agc = AgcModel(wander_std_db=0.0, rng=rng)
        gains = {agc.next_gain() for _ in range(10)}
        assert gains == {1.0}

    def test_batch_matches_sequential(self):
        a1 = AgcModel(rng=np.random.default_rng(5))
        seq = [a1.next_gain() for _ in range(50)]
        a2 = AgcModel(rng=np.random.default_rng(5))
        batch = a2.next_gains(50)
        assert np.array_equal(seq, batch)

    @pytest.mark.parametrize("step_db", [0.5, 0.0])
    def test_long_batches_match_sequential_exactly(self, step_db):
        a1 = AgcModel(step_db=step_db, wander_std_db=0.3,
                      rng=np.random.default_rng(6))
        seq = [a1.next_gain() for _ in range(4000)]
        a2 = AgcModel(step_db=step_db, wander_std_db=0.3,
                      rng=np.random.default_rng(6))
        batch = np.concatenate([a2.next_gains(2500), a2.next_gains(0),
                                a2.next_gains(1500)])
        assert np.array_equal(seq, batch)
        assert a2.next_gain() == a1.next_gain()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AgcModel(step_db=-1.0)
        with pytest.raises(ConfigurationError):
            AgcModel(wander_std_db=-1.0)
