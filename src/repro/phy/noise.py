"""Receiver noise models.

Commodity Wi-Fi CSI/RSSI reports are noisy for several distinct
reasons, each of which matters to the paper's decoder design:

* thermal/estimation noise on each per-sub-carrier CSI value,
* coarse quantization of the reported values (CSI is reported in a
  low-bit fixed-point format; RSSI in 1 dB steps),
* occasional *spurious* glitches — the paper notes "the Intel cards
  used in our experiments report spurious changes in the CSI once
  every so often ... even in a static network" (§3.2), which is why
  the decoder uses hysteresis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class AwgnSource:
    """Additive white Gaussian noise, complex or real.

    Attributes:
        std: standard deviation per real dimension.
        rng: random source.
    """

    std: float
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ConfigurationError(f"noise std must be >= 0, got {self.std}")
        if self.rng is None:
            self.rng = np.random.default_rng()

    def real(self, shape) -> np.ndarray:
        """Real Gaussian noise of the given shape."""
        return self.rng.normal(scale=self.std, size=shape) if self.std else np.zeros(shape)

    def complex(self, shape) -> np.ndarray:
        """Circularly symmetric complex Gaussian noise (std per dim)."""
        if not self.std:
            return np.zeros(shape, dtype=complex)
        return self.rng.normal(scale=self.std, size=shape) + 1j * self.rng.normal(
            scale=self.std, size=shape
        )


@dataclass
class SpuriousGlitchModel:
    """Intel-5300-style spurious CSI jumps.

    With probability ``probability`` per packet, every sub-channel of
    one report is scaled by a random factor drawn uniformly from
    ``1 +/- magnitude`` — an abrupt, correlated jump unrelated to the
    tag, as observed on real hardware in static environments.

    Attributes:
        probability: per-packet glitch probability.
        magnitude: peak fractional amplitude of a glitch.
        rng: random source.
    """

    probability: float = 0.005
    magnitude: float = 0.5
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"glitch probability must be in [0, 1], got {self.probability}"
            )
        if self.magnitude < 0:
            raise ConfigurationError("glitch magnitude must be >= 0")
        if self.rng is None:
            self.rng = np.random.default_rng()

    def sample_scale(self) -> float:
        """Multiplicative glitch factor for one packet (1.0 = no glitch)."""
        if self.rng.random() >= self.probability:
            return 1.0
        return 1.0 + self.rng.uniform(-self.magnitude, self.magnitude)

    def sample_scales(self, count: int) -> np.ndarray:
        """Vector of ``count`` per-packet glitch factors."""
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        scales = np.ones(count)
        hits = self.rng.random(count) < self.probability
        n_hits = int(hits.sum())
        if n_hits:
            scales[hits] = 1.0 + self.rng.uniform(
                -self.magnitude, self.magnitude, size=n_hits
            )
        return scales


def quantize(values: np.ndarray, step: float) -> np.ndarray:
    """Quantize ``values`` to the nearest multiple of ``step``.

    A ``step`` of 0 disables quantization (identity).
    """
    if step < 0:
        raise ConfigurationError(f"quantization step must be >= 0, got {step}")
    if step == 0:
        return np.asarray(values, dtype=float)
    out = np.asarray(values, dtype=float) / step
    np.round(out, out=out)
    out *= step
    return out
