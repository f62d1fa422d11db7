"""Frequency-selective multipath fading.

Indoor 2.4 GHz channels are frequency selective across a 20 MHz Wi-Fi
band: the paper (Fig 4, Fig 5) shows that the backscatter signal is
strong on some sub-channels and absent on others, and that the set of
good sub-channels changes with tag position. We model this with a
classic tap-delay-line channel: a small number of complex multipath
rays with exponentially decaying power, whose superposition produces a
different complex gain on every OFDM sub-carrier and every antenna.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TapDelayProfile:
    """Power-delay profile for a tap-delay-line channel.

    Attributes:
        num_taps: number of discrete multipath rays.
        rms_delay_spread_s: RMS delay spread; indoor office channels are
            typically 30-100 ns.
        rician_k_db: Rician K factor (dB) applied to the first tap. A
            large K models a dominant line-of-sight ray; ``-inf``-like
            small values degenerate to Rayleigh fading.
    """

    num_taps: int = 8
    rms_delay_spread_s: float = 50e-9
    rician_k_db: float = 6.0

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ConfigurationError(f"num_taps must be >= 1, got {self.num_taps}")
        if self.rms_delay_spread_s <= 0:
            raise ConfigurationError("rms_delay_spread_s must be positive")

    def tap_delays(self) -> np.ndarray:
        """Tap delays (s), equally spaced over ~4 delay spreads."""
        if self.num_taps == 1:
            return np.zeros(1)
        return np.linspace(0.0, 4.0 * self.rms_delay_spread_s, self.num_taps)

    def tap_powers(self) -> np.ndarray:
        """Mean tap powers, exponentially decaying, normalized to sum 1."""
        delays = self.tap_delays()
        powers = np.exp(-delays / self.rms_delay_spread_s)
        return powers / powers.sum()


@dataclass
class MultipathChannel:
    """A static frequency-selective channel realization for one link.

    One instance represents the channel between a fixed transmitter and
    a fixed receiver (optionally with multiple receive antennas). The
    complex frequency response is evaluated at arbitrary sub-carrier
    frequencies via :meth:`frequency_response`.

    Attributes:
        profile: the power-delay profile to draw taps from.
        num_antennas: number of independent receive antennas.
        rng: random source; pass a seeded generator for reproducibility.
    """

    profile: TapDelayProfile = field(default_factory=TapDelayProfile)
    num_antennas: int = 1
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ConfigurationError("num_antennas must be >= 1")
        if self.rng is None:
            self.rng = np.random.default_rng()
        self._delays = self.profile.tap_delays()
        self._gains = self._draw_tap_gains()

    def _draw_tap_gains(self) -> np.ndarray:
        """Draw complex tap gains, shape (num_antennas, num_taps)."""
        powers = self.profile.tap_powers()
        n_ant, n_tap = self.num_antennas, self.profile.num_taps
        scattered = (
            self.rng.normal(size=(n_ant, n_tap))
            + 1j * self.rng.normal(size=(n_ant, n_tap))
        ) / np.sqrt(2.0)
        gains = scattered * np.sqrt(powers)
        k_lin = 10.0 ** (self.profile.rician_k_db / 10.0)
        if k_lin > 0:
            # Split the first tap into a deterministic LOS ray plus the
            # scattered component, preserving its mean power.
            p0 = powers[0]
            los = np.sqrt(p0 * k_lin / (k_lin + 1.0))
            phase = np.exp(2j * np.pi * self.rng.random(size=n_ant))
            gains[:, 0] = los * phase + gains[:, 0] / np.sqrt(k_lin + 1.0)
        return gains

    def frequency_response(self, frequencies_hz: Sequence[float]) -> np.ndarray:
        """Complex channel gain at each frequency.

        Args:
            frequencies_hz: absolute RF frequencies to evaluate.

        Returns:
            Array of shape ``(num_antennas, len(frequencies_hz))``. The
            mean power over frequency is ~1 (path loss is applied
            separately by the caller).
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        # H(f) = sum_k g_k * exp(-j 2 pi f tau_k)
        phase = np.exp(-2j * np.pi * np.outer(self._delays, freqs))
        return self._gains @ phase

    def regenerate(self) -> None:
        """Redraw the multipath realization (models moving the device)."""
        self._gains = self._draw_tap_gains()


@dataclass
class TemporalDrift:
    """Slow random-walk drift of the channel over time.

    The paper's decoder subtracts a 400 ms moving average specifically
    to remove "natural temporal variations in the channel measurements
    due to mobility in the environment" (§3.2). We model that
    environment mobility as an Ornstein-Uhlenbeck (mean-reverting random
    walk) process applied multiplicatively to the channel amplitude,
    correlated across sub-channels.

    Attributes:
        amplitude: peak fractional amplitude excursion (e.g. 0.05 = 5%).
        time_constant_s: correlation time of the drift.
        rng: random source.
    """

    amplitude: float = 0.05
    time_constant_s: float = 2.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ConfigurationError("amplitude must be >= 0")
        if self.time_constant_s <= 0:
            raise ConfigurationError("time_constant_s must be positive")
        if self.rng is None:
            self.rng = np.random.default_rng()
        self._state = 0.0
        self._last_time: Optional[float] = None

    def sample(self, time_s: float) -> float:
        """Multiplicative drift factor (≈ 1.0) at ``time_s``.

        Must be called with non-decreasing timestamps.
        """
        if self._last_time is None:
            self._last_time = time_s
        dt = time_s - self._last_time
        if dt < 0:
            raise ConfigurationError(
                f"TemporalDrift must be sampled in time order: {time_s} < {self._last_time}"
            )
        self._last_time = time_s
        theta = 1.0 / self.time_constant_s
        # Exact OU discretization.
        decay = np.exp(-theta * dt)
        noise_std = self.amplitude * np.sqrt(max(0.0, 1.0 - decay**2))
        self._state = self._state * decay + self.rng.normal() * noise_std
        return 1.0 + self._state

    def sample_batch(self, times_s: np.ndarray) -> np.ndarray:
        """Drift factors for a non-decreasing batch of timestamps.

        Bit-identical to calling :meth:`sample` in sequence.  The normals
        come from one ``normal(size=n)`` draw, which yields the same
        values as ``n`` scalar draws; ``exp`` and ``sqrt`` run as array
        passes; only the OU recurrence runs as a float loop.  ``decay **
        2`` is taken per element with Python's ``**``, the C library
        ``pow`` that :meth:`sample` calls: a vectorised square may
        differ from it in the last bit.
        """
        times = np.asarray(times_s, dtype=float)
        if len(times) == 0:
            return np.empty(0)
        last = times[0] if self._last_time is None else self._last_time
        previous = np.concatenate(([last], times[:-1]))
        dt = times - previous
        backwards = np.flatnonzero(dt < 0)
        if len(backwards):
            i = backwards[0]
            raise ConfigurationError(
                f"TemporalDrift must be sampled in time order: "
                f"{float(times[i])} < {float(previous[i])}"
            )
        theta = 1.0 / self.time_constant_s
        decay = np.exp(-theta * dt)
        squares = np.array([d ** 2 for d in decay.tolist()])
        noise_std = self.amplitude * np.sqrt(np.maximum(0.0, 1.0 - squares))
        kicks = self.rng.normal(size=len(times)) * noise_std
        state = self._state
        path = []
        for d, kick in zip(decay.tolist(), kicks.tolist()):
            state = state * d + kick
            path.append(state)
        self._state = state
        self._last_time = float(times[-1])
        return 1.0 + np.array(path)
