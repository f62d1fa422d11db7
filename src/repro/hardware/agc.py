"""Automatic gain control (AGC) model.

Commodity Wi-Fi front-ends apply a per-packet gain so the ADC sees a
full-scale signal; CSI tools report values in that AGC-scaled domain.
The practical consequence for Wi-Fi Backscatter is that the *absolute*
CSI scale wanders from packet to packet, which is one reason the
paper's decoder normalizes measurements rather than using absolute
amplitudes (§3.2 step 1).

We model AGC as a slowly varying multiplicative gain with small
per-packet quantized steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class AgcModel:
    """Per-packet AGC gain sequence.

    Attributes:
        step_db: granularity of the AGC gain steps (real front ends use
            ~0.5-2 dB steps).
        wander_std_db: standard deviation of the slow random walk in the
            target gain between packets.
        rng: random source.
    """

    step_db: float = 0.5
    wander_std_db: float = 0.02
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.step_db < 0:
            raise ConfigurationError("step_db must be >= 0")
        if self.wander_std_db < 0:
            raise ConfigurationError("wander_std_db must be >= 0")
        if self.rng is None:
            self.rng = np.random.default_rng()
        self._target_db = 0.0

    def next_gain(self) -> float:
        """Linear amplitude gain applied to the next packet's CSI."""
        self._target_db += self.rng.normal(scale=self.wander_std_db)
        # Mean-revert so the gain doesn't walk off to infinity.
        self._target_db *= 0.999
        if self.step_db > 0:
            quantized_db = round(self._target_db / self.step_db) * self.step_db
        else:
            quantized_db = self._target_db
        return 10.0 ** (quantized_db / 20.0)

    def next_gains(self, count: int) -> "np.ndarray":
        """Vector of ``count`` successive per-packet gains.

        Bit-identical to ``count`` calls of :meth:`next_gain`.  The steps
        are one ``normal(size=count)`` draw, the mean-reverting target
        runs as a float loop, and ``10 ** (q / 20)`` is taken once per
        distinct quantised level with Python's ``**`` (the C library
        ``pow`` of :meth:`next_gain`; a vectorised ``np.power`` may
        differ from it in the last bit on SIMD builds).
        """
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        steps = self.rng.normal(scale=self.wander_std_db, size=count)
        target = self._target_db
        targets = []
        for step in steps.tolist():
            target = (target + step) * 0.999
            targets.append(target)
        self._target_db = target
        levels = np.array(targets, dtype=float)
        if self.step_db > 0:
            # np.round and round() both round half to even.
            levels = np.round(levels / self.step_db) * self.step_db
        distinct, rows = np.unique(levels, return_inverse=True)
        table = [10.0 ** (q / 20.0) for q in distinct.tolist()]
        return np.array(table, dtype=float)[rows]
