"""Tag uplink modulator: the RF switch driven by a bit clock (§3.1, §6).

"A hardware timer module of the TI MSP430 microcontroller is used to
generate a bit clock and drives a simple firmware module." The
modulator turns a frame's bits (or their code expansion) into a switch
state as a function of time, including realistic clock skew between
the tag's cheap oscillator and the reader's notion of time.

The modulator only ever toggles at bit boundaries — "the minimum
period with which our tag changes its impedance is larger than the
duration of a Wi-Fi packet" (§3.1) — which the channel/capture layers
rely on (no mid-packet state changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.coding import OrthogonalCodePair
from repro.core.frames import UplinkFrame
from repro.errors import ConfigurationError

#: Transmit-circuit power draw (paper §6: 0.65 uW).
TRANSMIT_POWER_W = 0.65e-6


@dataclass
class TagModulator:
    """Switch-state schedule for one uplink transmission.

    Attributes:
        bit_duration_s: nominal bit (or chip) duration.
        clock_skew_ppm: tag oscillator error; positive runs slow.
        idle_state: switch state outside a transmission (0 = absorbing,
            matching "the tag modulates ... only when queried").
    """

    bit_duration_s: float = 10e-3
    clock_skew_ppm: float = 0.0
    idle_state: int = 0

    def __post_init__(self) -> None:
        if self.bit_duration_s <= 0:
            raise ConfigurationError("bit_duration_s must be positive")
        if self.idle_state not in (0, 1):
            raise ConfigurationError("idle_state must be 0 or 1")
        self._bits: List[int] = []
        self._start_s: Optional[float] = None

    @property
    def effective_bit_duration_s(self) -> float:
        """Bit duration as produced by the skewed oscillator."""
        return self.bit_duration_s * (1.0 + self.clock_skew_ppm * 1e-6)

    def load_bits(self, bits: Sequence[int], start_time_s: float) -> None:
        """Arm a raw bit sequence starting at ``start_time_s``."""
        for bit in bits:
            if bit not in (0, 1):
                raise ConfigurationError(f"bits must be 0/1, got {bit!r}")
        if not bits:
            raise ConfigurationError("bits must be non-empty")
        self._bits = list(bits)
        self._start_s = start_time_s

    def load_frame(self, frame: UplinkFrame, start_time_s: float) -> List[int]:
        """Arm a full framed transmission; returns the on-air bits."""
        bits = frame.to_bits()
        self.load_bits(bits, start_time_s)
        return bits

    def load_coded_frame(
        self,
        frame: UplinkFrame,
        code_pair: OrthogonalCodePair,
        start_time_s: float,
    ) -> List[int]:
        """Arm a code-expanded transmission for the long-range mode.

        Every frame bit becomes L chips; "the tag still only transmits
        bits (now the bit duration expanded by L) and does not perform
        any decoding operations" (§3.4), so tag power is unchanged.
        Returns the chip sequence as 0/1 switch states.
        """
        chips = code_pair.encode(frame.to_bits())
        states = [1 if c > 0 else 0 for c in chips]
        self.load_bits(states, start_time_s)
        return states

    @property
    def end_time_s(self) -> float:
        """When the armed transmission finishes.

        Raises:
            ConfigurationError: when nothing is armed.
        """
        if self._start_s is None:
            raise ConfigurationError("no transmission armed")
        return self._start_s + len(self._bits) * self.effective_bit_duration_s

    def state(self, time_s: float) -> int:
        """Switch state (0/1) at ``time_s``.

        Before the armed start and after the end the state is
        ``idle_state``. Usable directly as a
        :data:`repro.mac.capture.TagStateFn`.
        """
        if self._start_s is None:
            return self.idle_state
        dur = self.effective_bit_duration_s
        idx = int(np.floor((time_s - self._start_s) / dur))
        if idx < 0 or idx >= len(self._bits):
            return self.idle_state
        return self._bits[idx]

    def states(self, times_s: Sequence[float]) -> np.ndarray:
        """Switch states at many times: :meth:`state` as one array pass.

        The same floor over the bit grid, element for element.
        """
        times = np.asarray(times_s, dtype=float)
        out = np.full(times.shape, self.idle_state, dtype=int)
        if self._start_s is None:
            return out
        idx = np.floor((times - self._start_s) / self.effective_bit_duration_s)
        inside = (idx >= 0) & (idx < len(self._bits))
        out[inside] = np.asarray(self._bits)[idx[inside].astype(int)]
        return out

    def energy_used_j(self) -> float:
        """Transmit-circuit energy for the armed transmission."""
        if self._start_s is None:
            return 0.0
        duration = len(self._bits) * self.effective_bit_duration_s
        return TRANSMIT_POWER_W * duration


def alternating_bits(count: int) -> List[int]:
    """The 1,0,1,0,... calibration pattern of the paper's Fig 3."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    return [i % 2 ^ 1 for i in range(count)]  # starts with 1


def random_payload(num_bits: int, rng: Optional[np.random.Generator] = None) -> List[int]:
    """Uniform random payload bits (BER experiments)."""
    if num_bits < 1:
        raise ConfigurationError("num_bits must be >= 1")
    rng = rng or np.random.default_rng()
    return [int(b) for b in rng.integers(0, 2, size=num_bits)]
