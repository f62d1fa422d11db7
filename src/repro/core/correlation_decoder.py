"""Long-range uplink decoding with orthogonal codes (§3.4).

Past ~65 cm "there are no two distinct levels in the channel
measurements" (Fig 6), so per-measurement slicing fails. Instead the
tag expands each bit into an L-chip orthogonal code and the reader
correlates: "The Wi-Fi reader correlates the channel measurements with
the two codes and outputs the bit corresponding to the larger
correlation value", repeating "on all the frequency sub-channels" and
picking "the Wi-Fi sub-channels that provide the maximum correlation
peaks". SNR grows with L, trading bit rate for range (Fig 20).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.obs import forensics
from repro.core import conditioning
from repro.core.coding import OrthogonalCodePair
from repro.errors import ConfigurationError, DecodeError
from repro.measurement import MeasurementStream


@dataclass(frozen=True)
class CorrelationDecodeResult:
    """Decoded bits plus per-bit decision margins.

    Attributes:
        bits: decided bits.
        margins: |corr_one| - |corr_zero| per bit on the chosen
            channels (positive margin = confident).
        channel_indices: sub-channels used for the decision.
    """

    bits: np.ndarray
    margins: np.ndarray
    channel_indices: np.ndarray


class CorrelationDecoder:
    """Code-correlation decoder over conditioned channel measurements.

    Attributes:
        code_pair: the tag's (one, zero) code pair.
        good_count: number of sub-channels combined for the decision.
        window_s: conditioning moving-average window.
    """

    def __init__(
        self,
        code_pair: OrthogonalCodePair,
        good_count: int = 10,
        window_s: float = conditioning.DEFAULT_WINDOW_S,
        nonfinite_policy: str = "repair",
    ) -> None:
        if good_count < 1:
            raise ConfigurationError("good_count must be >= 1")
        if nonfinite_policy not in conditioning.NONFINITE_POLICIES:
            raise ConfigurationError(
                f"nonfinite_policy must be one of "
                f"{conditioning.NONFINITE_POLICIES}"
            )
        self.code_pair = code_pair
        self.good_count = good_count
        self.window_s = window_s
        self.nonfinite_policy = nonfinite_policy

    def _chip_means(
        self,
        normalized: np.ndarray,
        timestamps_s: np.ndarray,
        start_time_s: float,
        chip_duration_s: float,
        num_chips: int,
    ) -> np.ndarray:
        """Mean measurement per chip interval, shape (num_chips, channels).

        Chips with no packet measurements contribute zero (an erasure
        that simply doesn't add correlation energy).
        """
        idx = np.floor((timestamps_s - start_time_s) / chip_duration_s).astype(int)
        valid = (idx >= 0) & (idx < num_chips)
        idx = idx[valid]
        sums = np.zeros((num_chips, normalized.shape[1]))
        np.add.at(sums, idx, normalized[valid])
        counts = np.bincount(idx, minlength=num_chips).astype(float)
        nonzero = counts > 0
        sums[nonzero] /= counts[nonzero, None]
        return sums

    def decode_bits(
        self,
        stream: MeasurementStream,
        num_bits: int,
        chip_duration_s: float,
        start_time_s: float,
        mode: str = "csi",
    ) -> CorrelationDecodeResult:
        """Decode ``num_bits`` code-expanded bits.

        Args:
            stream: reader measurements.
            num_bits: bits to decode (each spans ``L`` chips).
            chip_duration_s: one chip's duration (the pre-expansion bit
                clock of the tag).
            start_time_s: start of the first code word. Long-range
                operation assumes reader/tag synchronization from the
                query-response handshake, so the start is known.
            mode: "csi" or "rssi".

        Raises:
            DecodeError: if the stream cannot cover the coded span.
        """
        if num_bits < 1:
            raise ConfigurationError("num_bits must be >= 1")
        if chip_duration_s <= 0:
            raise ConfigurationError("chip_duration_s must be positive")
        if len(stream) == 0:
            raise DecodeError("empty measurement stream")
        if mode == "csi":
            matrix = stream.flattened_csi()
        elif mode == "rssi":
            matrix = stream.rssi_matrix()
        else:
            raise ConfigurationError(f"unknown mode {mode!r}")
        timestamps = stream.timestamps
        span = num_bits * self.code_pair.length * chip_duration_s
        if timestamps[-1] + chip_duration_s < start_time_s + span:
            raise DecodeError(
                f"stream covers {timestamps[-1] - start_time_s:.3f} s of the "
                f"{span:.3f} s coded message"
            )
        # Correlation is the last rung of the degradation ladder, so it
        # must digest poisoned samples rather than bail: repair (or
        # reject, per policy) before conditioning.
        t_decode = time.perf_counter() if obs.metrics_enabled() else 0.0
        with forensics.ensure_record("correlation"), \
                obs.span("correlation.decode"):
            matrix, repaired = conditioning.sanitize(
                matrix, self.nonfinite_policy
            )
            if repaired:
                obs.counter("correlation.nonfinite.repaired").inc(repaired)
            cond = conditioning.condition(
                matrix, timestamps, self.window_s, nonfinite="propagate"
            )

            length = self.code_pair.length
            chips = self._chip_means(
                cond.normalized,
                timestamps,
                start_time_s,
                chip_duration_s,
                num_bits * length,
            )
            code_one = np.asarray(self.code_pair.code_one, dtype=float)
            code_zero = np.asarray(self.code_pair.code_zero, dtype=float)

            # Per-bit, per-channel correlations with both codes.
            per_bit = chips.reshape(num_bits, length, -1)
            corr_one = np.einsum("blc,l->bc", per_bit, code_one) / length
            corr_zero = np.einsum("blc,l->bc", per_bit, code_zero) / length

            # Pick the channels with the strongest total correlation energy
            # ("the sub-channels that provide the maximum correlation
            # peaks").
            energy = (np.abs(corr_one) + np.abs(corr_zero)).sum(axis=0)
            count = min(self.good_count, matrix.shape[1])
            best = np.argsort(-energy)[:count]

            # Decision: larger |correlation| wins, energy-combined across
            # the selected channels (|.| makes the decision polarity-free).
            score_one = np.abs(corr_one[:, best]).sum(axis=1)
            score_zero = np.abs(corr_zero[:, best]).sum(axis=1)
            bits = (score_one > score_zero).astype(int)
            margins = score_one - score_zero
            if obs.recording_enabled():
                forensics.stage(
                    "condition",
                    mode=mode,
                    packets=len(stream),
                    channels=int(matrix.shape[1]),
                    repaired=int(repaired),
                    window_s=float(self.window_s),
                )
                forensics.stage(
                    "correlate",
                    code_length=length,
                    channels=best,
                    channel_energy=energy[best],
                    score_one=score_one,
                    score_zero=score_zero,
                    bit_margins=margins,
                )
        if obs.enabled():
            obs.counter("correlation.decodes").inc()
            if obs.metrics_enabled():
                obs.timeseries("correlation.decode.latency_s").sample(
                    time.perf_counter() - t_decode
                )
            obs.histogram("correlation.margin").observe_many(np.abs(margins))
            obs.histogram("correlation.subchannel.energy").observe_many(
                energy[best]
            )
            sp = obs.current_span()
            if sp is not None:
                sp.set(
                    code_length=length,
                    selected_subchannels=best,
                    margin_mean=float(np.abs(margins).mean()),
                )
        return CorrelationDecodeResult(
            bits=bits, margins=margins, channel_indices=best
        )
