"""Intel Wi-Fi Link 5300 CSI measurement model.

The paper's readers are Intel 5300 cards running the Linux CSI Tool
[Halperin et al.], which reports, per received packet, the channel
state for 30 sub-carrier groups on each of 3 receive antennas. Real
reports exhibit several artefacts that the paper's decoder explicitly
works around, all of which are modelled here:

* limited amplitude resolution (quantization),
* per-packet estimation noise,
* AGC scale wander (absolute CSI scale is not meaningful),
* *spurious* correlated jumps "once every so often ... even in a static
  network" (§3.2) — the motivation for hysteresis slicing,
* one chronically weak antenna: "one of the antennas on our Intel
  device almost always reported significantly low CSI values" (§7.1),
* no CSI for beacon frames ("Intel cards do not currently provide CSI
  information for beacon packets", §7.5) — those packets yield
  RSSI-only measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.hardware.agc import AgcModel
from repro.hardware.rssi import RssiModel
from repro.phy.noise import SpuriousGlitchModel, quantize
from repro.measurement import ChannelMeasurement, MeasurementStream


@dataclass
class Intel5300:
    """Monitor-mode CSI/RSSI reporter.

    Converts true complex channel matrices (from
    :class:`repro.phy.BackscatterChannel`) into the measurement records
    an experimenter would log with the CSI Tool.

    Attributes:
        csi_noise_rel: std of per-value CSI estimation noise, relative
            to the mean CSI amplitude of the packet.
        csi_quantization_rel: CSI amplitude quantization step, relative
            to the nominal reported level.
        nominal_level: mean reported CSI amplitude after AGC (arbitrary
            card units; Fig 3 of the paper shows values of a few units).
        weak_antenna: index of the chronically weak antenna, or ``None``.
        weak_antenna_gain: amplitude factor applied to the weak antenna.
        glitches: spurious-jump model.
        agc: gain-control model.
        rssi: RSSI reporting model (shared with RSSI-only packets).
        tx_power_w: helper transmit power used for RSSI scaling.
        rng: random source.
    """

    csi_noise_rel: float = 0.035
    csi_quantization_rel: float = 0.01
    nominal_level: float = 8.0
    weak_antenna: Optional[int] = 2
    weak_antenna_gain: float = 0.15
    glitches: Optional[SpuriousGlitchModel] = None
    agc: Optional[AgcModel] = None
    rssi: Optional["RssiModel"] = None
    tx_power_w: float = units.dbm_to_watts(16.0)
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.csi_noise_rel < 0:
            raise ConfigurationError("csi_noise_rel must be >= 0")
        if self.csi_quantization_rel < 0:
            raise ConfigurationError("csi_quantization_rel must be >= 0")
        if self.nominal_level <= 0:
            raise ConfigurationError("nominal_level must be positive")
        if not 0 < self.weak_antenna_gain <= 1.0:
            raise ConfigurationError("weak_antenna_gain must be in (0, 1]")
        if self.rng is None:
            self.rng = np.random.default_rng()
        # Sub-models default onto the card's own random source, so a
        # seeded card is fully deterministic.
        if self.glitches is None:
            self.glitches = SpuriousGlitchModel(rng=self.rng)
        if self.agc is None:
            self.agc = AgcModel(rng=self.rng)
        if self.rssi is None:
            self.rssi = RssiModel(rng=self.rng)
        # Fix the AGC reference on the first packet so the nominal level
        # is stable while relative modulation is preserved.
        self._reference_amplitude: Optional[float] = None

    def measure(
        self,
        true_channel: np.ndarray,
        timestamp_s: float,
        source: str = "helper",
        with_csi: bool = True,
    ) -> ChannelMeasurement:
        """Produce one packet's measurement record.

        Args:
            true_channel: complex channel, shape (antennas, subchannels).
            timestamp_s: packet timestamp for the record.
            source: transmitter label.
            with_csi: ``False`` for frames the card reports RSSI-only
                (e.g. beacons).
        """
        h = np.asarray(true_channel, dtype=complex)
        if h.ndim != 2:
            raise ConfigurationError("true_channel must be 2-D (ant x subch)")
        amplitude = np.abs(h).astype(float)
        if self.weak_antenna is not None and self.weak_antenna < amplitude.shape[0]:
            amplitude = amplitude.copy()
            amplitude[self.weak_antenna] *= self.weak_antenna_gain

        rssi_dbm = self.rssi.measure(amplitude, tx_power_w=self.tx_power_w)

        csi = None
        if with_csi:
            if self._reference_amplitude is None:
                self._reference_amplitude = float(np.abs(h).mean())
            scale = self.nominal_level / self._reference_amplitude
            reported = amplitude * scale * self.agc.next_gain()
            reported = reported * self.glitches.sample_scale()
            noise_std = self.csi_noise_rel * self.nominal_level
            reported = reported + self.rng.normal(
                scale=noise_std, size=reported.shape
            )
            step = self.csi_quantization_rel * self.nominal_level
            reported = quantize(np.maximum(reported, 0.0), step)
            csi = reported

        return ChannelMeasurement(
            timestamp_s=timestamp_s, csi=csi, rssi_dbm=rssi_dbm, source=source
        )

    def measure_batch(
        self,
        true_channels: np.ndarray,
        timestamps_s: np.ndarray,
        source: str = "helper",
        with_csi: bool = True,
    ) -> MeasurementStream:
        """Vectorized :meth:`measure` for many packets, as one stream.

        Args:
            true_channels: complex channels, shape (n, antennas, subch).
            timestamps_s: non-decreasing packet timestamps, shape (n,).
            source: transmitter label for every packet.
            with_csi: whether CSI is reported: ``False`` for beacons,
                and for an RSSI-only reader that has no use for it.
                The RSSI noise is drawn first, so ``False`` leaves the
                RSSI bit-for-bit as it is with CSI.
        """
        h = np.asarray(true_channels, dtype=complex)
        times = np.asarray(timestamps_s, dtype=float)
        if h.ndim != 3:
            raise ConfigurationError("true_channels must be 3-D")
        if len(times) != h.shape[0]:
            raise ConfigurationError("timestamps must match channel count")
        amplitude = np.abs(h)
        if self.weak_antenna is not None and self.weak_antenna < amplitude.shape[1]:
            amplitude[:, self.weak_antenna, :] *= self.weak_antenna_gain

        rssi = self.rssi.measure_batch(amplitude, tx_power_w=self.tx_power_w)

        csi_all = None
        if with_csi:
            if self._reference_amplitude is None:
                self._reference_amplitude = float(np.abs(h[0]).mean())
            scale = self.nominal_level / self._reference_amplitude
            n = h.shape[0]
            gains = self.agc.next_gains(n) * self.glitches.sample_scales(n)
            # In place from here: ``amplitude`` is not read again.
            reported = amplitude
            reported *= scale
            reported *= gains[:, None, None]
            noise_std = self.csi_noise_rel * self.nominal_level
            reported += self.rng.normal(scale=noise_std, size=reported.shape)
            step = self.csi_quantization_rel * self.nominal_level
            csi_all = quantize(np.maximum(reported, 0.0, out=reported), step)
        return MeasurementStream.from_arrays(
            times, rssi, csi=csi_all, source=source
        )
