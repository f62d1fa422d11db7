"""Composite helper -> tag -> reader backscatter channel.

The Wi-Fi reader receives each helper packet over the superposition of
two paths:

* the **direct path** helper -> reader, and
* the **backscatter path** helper -> tag -> reader, present only when
  the tag's RF switch is in the reflecting state.

Per OFDM sub-carrier ``f`` the complex channel is::

    H(f, state) = a_hr * D(f) + state * kappa * a_ht * a_tr * B(f)

where ``a_*`` are amplitude path gains from the path-loss model, ``D``
and ``B`` are unit-mean-power multipath frequency responses, ``kappa``
is the tag antenna's differential radar-cross-section coupling, and
``state`` is 0 (absorb) or 1 (reflect).

Because ``B`` rotates in phase relative to ``D`` across the band, the
*amplitude* change ``|H(f,1)| - |H(f,0)|`` that a CSI measurement sees
varies strongly — and changes sign — from sub-channel to sub-channel.
This is exactly the frequency diversity the paper exploits (Figs 4, 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.phy import constants
from repro.phy.fading import MultipathChannel, TapDelayProfile, TemporalDrift
from repro.phy.pathloss import LogDistancePathLoss


@dataclass(frozen=True)
class LinkGeometry:
    """Pairwise distances (m) between helper, tag, and reader.

    Attributes:
        helper_to_reader_m: direct-path length.
        helper_to_tag_m: illumination-path length (paper default: 3 m).
        tag_to_reader_m: the distance the paper sweeps (5-65 cm and up).
        walls_helper_reader: walls crossed by the direct path.
        walls_helper_tag: walls crossed by the illumination path.
    """

    helper_to_reader_m: float = 3.0
    helper_to_tag_m: float = 3.0
    tag_to_reader_m: float = 0.05
    walls_helper_reader: int = 0
    walls_helper_tag: int = 0

    def __post_init__(self) -> None:
        for name in ("helper_to_reader_m", "helper_to_tag_m", "tag_to_reader_m"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if min(self.walls_helper_reader, self.walls_helper_tag) < 0:
            raise ConfigurationError("wall counts must be >= 0")


@dataclass
class BackscatterChannel:
    """Per-packet complex channel seen by the reader for both tag states.

    Attributes:
        geometry: device distances.
        tag_coupling: differential RCS amplitude coupling ``kappa`` of the
            tag antenna (reflect vs absorb states). Calibrated defaults
            live in :mod:`repro.sim.calibration`.
        channel_number: 2.4 GHz Wi-Fi channel (paper: channel 6).
        num_antennas: reader receive antennas (Intel 5300: 3).
        pathloss: path-loss model shared by all legs.
        direct_profile: multipath profile of the direct path.
        backscatter_profile: multipath profile of the composite
            helper->tag->reader path (richer scattering, no LOS ray).
        drift: slow environmental drift applied to all sub-channels.
        tag_reader_exponent: amplitude path-gain exponent for the
            tag->reader leg. 1.0 corresponds to free-space amplitude
            decay; values above 1 model the cluttered near-floor
            environment of the testbed.
        rng: random source.
    """

    geometry: LinkGeometry = field(default_factory=LinkGeometry)
    tag_coupling: float = 0.35
    channel_number: int = constants.DEFAULT_CHANNEL
    num_antennas: int = constants.NUM_INTEL5300_ANTENNAS
    pathloss: Optional[LogDistancePathLoss] = None
    direct_profile: TapDelayProfile = field(
        default_factory=lambda: TapDelayProfile(num_taps=8, rician_k_db=6.0)
    )
    backscatter_profile: TapDelayProfile = field(
        default_factory=lambda: TapDelayProfile(num_taps=10, rician_k_db=2.0)
    )
    drift: Optional[TemporalDrift] = None
    tag_reader_exponent: float = 1.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.tag_coupling < 0:
            raise ConfigurationError("tag_coupling must be >= 0")
        if self.rng is None:
            self.rng = np.random.default_rng()
        if self.pathloss is None:
            freq = constants.channel_center_frequency(self.channel_number)
            self.pathloss = LogDistancePathLoss(frequency_hz=freq)
        if self.drift is None:
            self.drift = TemporalDrift(rng=self.rng)
        self._frequencies = np.asarray(
            constants.subcarrier_frequencies(self.channel_number)
        )
        self._direct = MultipathChannel(
            profile=self.direct_profile, num_antennas=self.num_antennas, rng=self.rng
        )
        self._backscatter = MultipathChannel(
            profile=self.backscatter_profile,
            num_antennas=self.num_antennas,
            rng=self.rng,
        )
        self._cache_responses()

    def _cache_responses(self) -> None:
        g = self.geometry
        a_hr = self.pathloss.amplitude_gain(
            g.helper_to_reader_m, g.walls_helper_reader
        )
        a_ht = self.pathloss.amplitude_gain(g.helper_to_tag_m, g.walls_helper_tag)
        # Tag->reader leg: free-space amplitude is 1/d; the exponent knob
        # steepens decay to match the cluttered testbed.
        base = self.pathloss.amplitude_gain(g.tag_to_reader_m)
        a_tr = base**self.tag_reader_exponent
        self._h_direct = a_hr * self._direct.frequency_response(self._frequencies)
        self._h_backscatter = (
            self.tag_coupling
            * a_ht
            * a_tr
            * self._backscatter.frequency_response(self._frequencies)
        )
        #: Channel per tag state: row 0 absorbs, row 1 reflects.
        self._h_states = np.stack(
            [self._h_direct, self._h_direct + self._h_backscatter]
        )

    @property
    def num_subchannels(self) -> int:
        """Number of modelled CSI sub-channels (30 on the Intel 5300)."""
        return len(self._frequencies)

    def response(self, time_s: float, tag_state: int) -> np.ndarray:
        """Complex channel for one packet.

        Args:
            time_s: packet timestamp (monotone non-decreasing; drives
                the drift process).
            tag_state: 0 (absorbing) or 1 (reflecting).

        Returns:
            Complex array of shape ``(num_antennas, num_subchannels)``.
        """
        if tag_state not in (0, 1):
            raise ConfigurationError(f"tag_state must be 0 or 1, got {tag_state}")
        return self.drift.sample(time_s) * self._h_states[int(tag_state)]

    def response_batch(self, times_s: np.ndarray, tag_states: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`response` for many packets.

        Args:
            times_s: non-decreasing packet timestamps, shape (n,).
            tag_states: 0/1 switch states, shape (n,).

        Returns:
            Complex array of shape ``(n, num_antennas, num_subchannels)``.
        """
        times = np.asarray(times_s, dtype=float)
        states = np.asarray(tag_states, dtype=int)
        if times.shape != states.shape:
            raise ConfigurationError("times and states must have equal length")
        if states.size and (states.min() < 0 or states.max() > 1):
            raise ConfigurationError("tag_states must be 0/1")
        scale = self.drift.sample_batch(times)
        h = self._h_states[states]
        h *= scale[:, None, None]
        return h

    def modulation_depth(self) -> np.ndarray:
        """Per-antenna/sub-channel relative amplitude change |H1|-|H0| / mean|H0|.

        A diagnostic used by calibration: the raw strength of the tag's
        imprint on each CSI sub-channel before any receiver noise.
        """
        h0 = np.abs(self._h_direct)
        h1 = np.abs(self._h_direct + self._h_backscatter)
        return (h1 - h0) / h0.mean()

    def move_tag(self, tag_to_reader_m: float) -> None:
        """Move the tag to a new reader distance and redraw multipath.

        The paper observes that the set of good sub-channels changes
        with tag position (Fig 5); redrawing the backscatter multipath
        realization reproduces that.
        """
        if tag_to_reader_m <= 0:
            raise ConfigurationError("tag_to_reader_m must be positive")
        self.geometry = LinkGeometry(
            helper_to_reader_m=self.geometry.helper_to_reader_m,
            helper_to_tag_m=self.geometry.helper_to_tag_m,
            tag_to_reader_m=tag_to_reader_m,
            walls_helper_reader=self.geometry.walls_helper_reader,
            walls_helper_tag=self.geometry.walls_helper_tag,
        )
        self._backscatter.regenerate()
        self._direct.regenerate()
        self._cache_responses()

    def subchannel_frequencies(self) -> Sequence[float]:
        """Absolute RF frequencies (Hz) of the modelled sub-channels."""
        return list(self._frequencies)
