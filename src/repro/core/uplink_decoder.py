"""The complete uplink decoding pipeline (§3.2, §3.3).

Chains every stage the paper describes:

1. signal conditioning (400 ms moving average removal + normalization),
2. preamble correlation to find the frame start and rank sub-channels,
3. top-10 good sub-channel selection with antennas treated as extra
   sub-channels,
4. noise-variance-weighted maximum-ratio combining,
5. hysteresis slicing of the combined statistic,
6. timestamp binning + majority vote per transmitted bit,
7. optional frame parsing with CRC check.

Two measurement modes share the pipeline:

* ``"csi"`` — all 90 antenna x sub-channel values (Intel 5300);
* ``"rssi"`` — per-antenna RSSI only; the best single RSSI channel is
  chosen by preamble correlation (§3.3), reflecting that RSSI carries
  no frequency diversity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs import forensics
from repro.core import combining, conditioning, slicer, subchannel
from repro.core.barker import barker_bits
from repro.core.frames import UplinkFrame
from repro.errors import ConfigurationError, DecodeError, MeasurementError
from repro.measurement import MeasurementStream

#: Supported measurement modes.
MODES = ("csi", "rssi")

#: Minimum fraction of finite samples for a CSI sub-channel to count as
#: usable when deciding whether CSI-mode decoding is viable at all.
MIN_CHANNEL_FINITE_FRACTION = 0.5


@dataclass(frozen=True)
class UplinkDecoderConfig:
    """Tunables of the uplink pipeline (paper defaults).

    Attributes:
        window_s: conditioning moving-average window (400 ms).
        good_count: sub-channels kept by the selector (10).
        hysteresis_width: threshold offset in units of sigma (0.5).
        preamble_bits: the known tag preamble (13-bit Barker).
        search_step_fraction: preamble search grid, as a fraction of the
            bit duration.
        min_detection_score: preamble detection threshold (0 accepts the
            best candidate).
        per_source_conditioning: condition each transmitter's packets
            separately before combining. Different helpers reach the
            reader over different channels, so their raw CSI levels
            differ; normalizing per source lets the reader "leverage
            transmissions from all Wi-Fi devices in the network and
            combine the channel information across all of them" (§5).
        nonfinite_policy: what to do with NaN/inf samples — "repair"
            (default: impute the channel's finite median and keep
            decoding), "reject" (raise :class:`MeasurementError`), or
            "propagate" (legacy NaN-poisoning, for diagnosis only).
        rssi_fallback: graceful degradation — when CSI-mode decoding is
            requested but the stream's CSI is missing or mostly dead
            (sub-channel dropouts), silently fall back to RSSI-mode
            decoding instead of failing.  Clean streams are unaffected.
    """

    window_s: float = conditioning.DEFAULT_WINDOW_S
    good_count: int = subchannel.DEFAULT_GOOD_COUNT
    hysteresis_width: float = 0.5
    preamble_bits: Sequence[int] = field(default_factory=barker_bits)
    search_step_fraction: float = 0.25
    min_detection_score: float = 0.0
    per_source_conditioning: bool = False
    nonfinite_policy: str = "repair"
    rssi_fallback: bool = True

    def __post_init__(self) -> None:
        if self.good_count < 1:
            raise ConfigurationError("good_count must be >= 1")
        if not 0 < self.search_step_fraction <= 1:
            raise ConfigurationError("search_step_fraction must be in (0, 1]")
        if self.nonfinite_policy not in conditioning.NONFINITE_POLICIES:
            raise ConfigurationError(
                f"nonfinite_policy must be one of "
                f"{conditioning.NONFINITE_POLICIES}"
            )


@dataclass(frozen=True)
class UplinkDecodeResult:
    """Everything the pipeline produced for one transmission.

    Attributes:
        bits: decoded data bits (after the preamble).
        detection: the preamble detection record.
        weights: MRC weights used.
        combined: per-packet combined statistic.
        sliced: binning/majority metadata.
        mode: the mode actually decoded with ("csi" or "rssi").
        fallback_from: the originally requested mode when graceful
            degradation switched modes (None on the normal path).
        repaired_values: non-finite samples repaired before decoding.
        frame_slice: ``(start, end)`` packet indices of the decoded
            frame within ``combined`` (the stream also holds idle
            padding, which quality assessment must not average in).
    """

    bits: np.ndarray
    detection: subchannel.PreambleDetection
    weights: combining.CombinerWeights
    combined: np.ndarray
    sliced: slicer.SlicedBits
    mode: str
    fallback_from: Optional[str] = None
    repaired_values: int = 0
    frame_slice: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class LinkQuality:
    """Post-decode link health, driving the degradation ladder.

    Attributes:
        separation: two-level separability of the combined statistic —
            the gap between the upper and lower sample clusters in
            units of their intra-cluster spread.  Past ~65 cm "there
            are no two distinct levels in the channel measurements"
            (Fig 6), which shows up here as the separation collapsing
            toward the unimodal-noise baseline (~2.7 for a Gaussian).
        erasure_fraction: fraction of bit intervals with zero
            measurements (helper outage bursts produce these).
        mean_support: mean measurements per decided bit.
        repaired_values: non-finite samples repaired during decoding.
        degraded: whether the decode already fell back CSI -> RSSI.
    """

    separation: float
    erasure_fraction: float
    mean_support: float
    repaired_values: int
    degraded: bool

    #: Separation below which standard slicing is considered collapsed
    #: and the ladder recommends the long-range correlation mode.
    SEPARATION_COLLAPSE = 3.5
    #: Erasure fraction above which the frame was starved of packets
    #: (retry later / back off — the channel may recover).
    ERASURE_STARVED = 0.25

    @property
    def recommendation(self) -> str:
        """One of "ok", "retry", "long_range"."""
        if self.erasure_fraction > self.ERASURE_STARVED:
            return "retry"
        if self.separation < self.SEPARATION_COLLAPSE:
            return "long_range"
        return "ok"


def assess_quality(result: UplinkDecodeResult) -> LinkQuality:
    """Judge a decode's trustworthiness from its own diagnostics.

    Cheap (no re-decode) and label-free: uses only the combined
    statistic and slicing metadata, so the ARQ layer can call it on
    every transaction to decide whether to accept, retry, or drop to
    the coded long-range mode.
    """
    combined = np.asarray(result.combined, dtype=float)
    if result.frame_slice is not None:
        lo, hi = result.frame_slice
        combined = combined[lo:hi]
    finite = combined[np.isfinite(combined)]
    support = np.asarray(result.sliced.support, dtype=float)
    # Per-packet samples are noise-dominated even when the eye is wide
    # open; the slicer's decisions work because it averages ~support
    # packets per bit. Block-average at that scale so the statistic
    # measures the *level* separation the slicer actually sees, not
    # the raw packet noise (for which a median split is always ~2.7).
    k = int(round(float(support.mean()))) if support.size else 1
    if k > 1 and finite.size >= 2 * k:
        n_blocks = finite.size // k
        finite = finite[: n_blocks * k].reshape(n_blocks, k).mean(axis=1)
    if finite.size < 4:
        separation = 0.0
    else:
        mid = float(np.median(finite))
        upper = finite[finite >= mid]
        lower = finite[finite < mid]
        if upper.size == 0 or lower.size == 0:
            separation = 0.0
        else:
            spread = 0.5 * (float(upper.std()) + float(lower.std()))
            separation = (float(upper.mean()) - float(lower.mean())) / max(
                spread, 1e-9
            )
    num_bits = len(result.sliced.bits)
    erasure_fraction = (
        len(result.sliced.erasures) / num_bits if num_bits else 0.0
    )
    quality = LinkQuality(
        separation=separation,
        erasure_fraction=erasure_fraction,
        mean_support=float(support.mean()) if support.size else 0.0,
        repaired_values=result.repaired_values,
        degraded=result.fallback_from is not None,
    )
    obs.gauge("uplink.quality.separation").set(separation)
    obs.gauge("uplink.quality.erasure_fraction").set(erasure_fraction)
    return quality


class UplinkDecoder:
    """Decodes tag transmissions from a reader's measurement stream."""

    def __init__(self, config: Optional[UplinkDecoderConfig] = None) -> None:
        self.config = config or UplinkDecoderConfig()
        #: Per-mode stream-memo keys for the resolve cache (computed
        #: once: the config is fixed for the decoder's lifetime).
        self._resolve_keys: Dict[str, str] = {}

    # -- measurement matrices -------------------------------------------------

    def _matrix(self, stream: MeasurementStream, mode: str) -> np.ndarray:
        if mode == "csi":
            return stream.flattened_csi()
        if mode == "rssi":
            return stream.rssi_matrix()
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")

    def _resolve_matrix(self, stream: MeasurementStream, mode: str):
        """Pick the effective mode and sanitized matrix (degradation rung 1).

        CSI-mode decoding degrades to RSSI when the stream's CSI is
        unusable — records without CSI at all, or so many sub-channel
        dropouts that fewer usable channels remain than the selector
        needs.  RSSI carries no frequency diversity, but it is always
        reported, so a corrupted capture still yields a decode attempt
        instead of an exception.

        Returns:
            ``(effective_mode, matrix, repaired_count)``.
        """
        cfg = self.config
        # Clean resolutions (no degradation, hence no counter/span side
        # effects) memoize on the stream: re-decodes of the same stream
        # skip the probe.
        memo_key = self._resolve_keys.get(mode)
        if memo_key is None:
            memo_key = self._resolve_keys.setdefault(mode, (
                f"resolve:{mode}:{cfg.good_count}:{cfg.rssi_fallback}:"
                f"{cfg.nonfinite_policy}"
            ))
        cached = stream.memo_get(memo_key)
        if cached is not None:
            return cached
        if mode == "csi" and cfg.rssi_fallback:
            reason = None
            if stream.csi_coverage() < 1.0:
                reason = "records without CSI"
            else:
                raw = self._matrix(stream, "csi")
                finite_frac = stream.finite_column_fraction("csi")
                usable = int(
                    (finite_frac >= MIN_CHANNEL_FINITE_FRACTION).sum()
                )
                if usable >= min(cfg.good_count, raw.shape[1]):
                    return stream.memo_put(
                        memo_key,
                        ("csi",) + self._sanitized(stream, "csi", raw),
                    )
                reason = f"only {usable} usable CSI sub-channels"
            obs.counter("uplink.degradation.rssi_fallbacks").inc()
            sp = obs.current_span()
            if sp is not None:
                sp.set(rssi_fallback_reason=reason)
            return ("rssi",) + self._sanitized(
                stream, "rssi", self._matrix(stream, "rssi")
            )
        return stream.memo_put(
            memo_key,
            (mode,) + self._sanitized(stream, mode, self._matrix(stream, mode)),
        )

    def _sanitized(self, stream: MeasurementStream, mode: str, raw: np.ndarray):
        """Sanitize gate with a clean-stream bypass.

        When the stream has no non-finite cell the sanitize pass is the
        identity and is skipped; dirty matrices take the full
        :func:`conditioning.sanitize` path.
        """
        if stream.nonfinite_cells(mode) == 0:
            return np.asarray(raw, dtype=float), 0
        return conditioning.sanitize(raw, self.config.nonfinite_policy)

    def _condition(
        self,
        stream: MeasurementStream,
        matrix: np.ndarray,
        timestamps: np.ndarray,
    ) -> conditioning.ConditionedMeasurements:
        """Condition the measurement matrix, optionally per source.

        With per-source conditioning, each transmitter's packets are
        baseline-removed and normalized against their own history, then
        re-interleaved in time order — so measurements taken over
        different helper channels become commensurable.
        """
        cfg = self.config
        # The matrix has already been through the decoder's own
        # sanitize gate, so conditioning must not re-reject here.
        if not cfg.per_source_conditioning:
            return conditioning.condition(
                matrix, timestamps, cfg.window_s, nonfinite="propagate"
            )
        sources = stream.sources
        normalized = np.empty_like(matrix, dtype=float)
        scale = np.zeros(matrix.shape[1])
        for source in np.unique(sources):
            rows = np.nonzero(sources == source)[0]
            if len(rows) < 2:
                normalized[rows] = 0.0
                continue
            part = conditioning.condition(
                matrix[rows], timestamps[rows], cfg.window_s,
                nonfinite="propagate",
            )
            normalized[rows] = part.normalized
            scale = np.maximum(scale, part.scale)
        return conditioning.ConditionedMeasurements(
            normalized=normalized, scale=scale, timestamps_s=timestamps
        )

    # -- pipeline --------------------------------------------------------------

    def decode_bits(
        self,
        stream: MeasurementStream,
        num_bits: int,
        bit_duration_s: float,
        mode: str = "csi",
        start_time_s: Optional[float] = None,
    ) -> UplinkDecodeResult:
        """Decode ``num_bits`` data bits following the preamble.

        Args:
            stream: reader measurements covering the transmission.
            num_bits: data bits after the preamble (payload [+ CRC +
                postamble] as the caller counts them).
            bit_duration_s: tag bit duration.
            mode: "csi" or "rssi".
            start_time_s: known frame start (skips preamble search when
                provided — used by experiments that control the tag).

        Raises:
            PreambleNotFound: no preamble above the detection threshold.
            DecodeError: the stream is empty or too short to cover the
                data bits.
            ConfigurationError: ``num_bits`` < 1, or ``bit_duration_s``
                not finite and positive.
        """
        if len(stream) == 0:
            raise DecodeError("empty measurement stream")
        if num_bits < 1:
            raise ConfigurationError("num_bits must be >= 1")
        if not (math.isfinite(bit_duration_s) and bit_duration_s > 0):
            raise ConfigurationError(
                "bit_duration_s must be finite and positive"
            )
        t_decode = time.perf_counter() if obs.metrics_enabled() else 0.0
        with forensics.ensure_record("uplink"), \
                obs.span("uplink.decode", mode=mode, num_bits=num_bits,
                         packets=len(stream)):
            requested_mode = mode
            mode, matrix, repaired = self._resolve_matrix(stream, mode)
            if repaired:
                obs.counter("uplink.nonfinite.repaired").inc(repaired)
            timestamps = stream.timestamps
            with obs.span("uplink.decode.condition"):
                cond = self._condition(stream, matrix, timestamps)
            if obs.recording_enabled():
                forensics.stage(
                    "condition",
                    mode=mode,
                    requested_mode=requested_mode,
                    packets=len(stream),
                    channels=int(matrix.shape[1]),
                    repaired=int(repaired),
                    window_s=float(self.config.window_s),
                )

            cfg = self.config
            with obs.span("uplink.decode.detect",
                          known_timing=start_time_s is not None) \
                    as sp_detect:
                if start_time_s is None:
                    detection = subchannel.detect_preamble(
                        cond.normalized,
                        timestamps,
                        cfg.preamble_bits,
                        bit_duration_s,
                        search_step_s=cfg.search_step_fraction * bit_duration_s,
                        min_score=cfg.min_detection_score,
                    )
                else:
                    corr = subchannel.correlate_at(
                        cond.normalized,
                        timestamps,
                        start_time_s,
                        cfg.preamble_bits,
                        bit_duration_s,
                    )
                    detection = subchannel.PreambleDetection(
                        start_time_s=start_time_s,
                        correlations=corr,
                        score=float(np.abs(corr).sum()),
                        threshold=0.0,
                    )
                if sp_detect is not None:
                    sp_detect.set(start_time_s=detection.start_time_s,
                                  score=detection.score)
                if obs.recording_enabled():
                    forensics.stage(
                        "detect",
                        search="known" if start_time_s is not None
                        else "scan",
                        start_time_s=detection.start_time_s,
                        score=detection.score,
                        threshold=detection.threshold,
                        correlations=detection.correlations,
                    )

            # RSSI mode keeps only the single best antenna channel (§3.3);
            # CSI mode keeps the top `good_count` of all 90 channels.
            good_count = 1 if mode == "rssi" else cfg.good_count
            with obs.span("uplink.decode.combine") as sp_combine:
                good = subchannel.select_good_subchannels(
                    detection.correlations, good_count
                )
                variances = combining.estimate_noise_variance(
                    cond.normalized,
                    timestamps,
                    detection.start_time_s,
                    cfg.preamble_bits,
                    bit_duration_s,
                    detection.correlations,
                )
                weights = combining.make_weights(
                    detection.correlations, variances, good
                )
                combined = combining.combine(cond.normalized, weights)
                self._emit_combine_diagnostics(
                    detection, good, weights, sp_combine
                )
                if obs.recording_enabled():
                    forensics.stage(
                        "select",
                        **subchannel.selection_diagnostics(
                            detection.correlations, good
                        ),
                    )
                    forensics.stage(
                        "combine",
                        noise_variances=variances[good],
                        **combining.weight_diagnostics(weights),
                    )

            with obs.span("uplink.decode.slice") as sp_slice:
                thresholds = slicer.compute_thresholds(
                    combined, cfg.hysteresis_width
                )
                decisions = slicer.hysteresis_slice(combined, thresholds)
                data_start = (
                    detection.start_time_s
                    + len(cfg.preamble_bits) * bit_duration_s
                )
                last_needed = data_start + num_bits * bit_duration_s
                if timestamps[-1] < data_start:
                    raise DecodeError(
                        "measurement stream ends before the data bits begin"
                    )
                if timestamps[-1] + bit_duration_s < last_needed:
                    raise DecodeError(
                        f"stream covers only {timestamps[-1] - data_start:.3f}"
                        f" s of the {num_bits * bit_duration_s:.3f} s data span"
                    )
                sliced = slicer.majority_vote_bits(
                    decisions,
                    timestamps,
                    data_start,
                    bit_duration_s,
                    num_bits,
                )
                self._emit_slice_diagnostics(
                    combined, decisions, thresholds, sliced, sp_slice
                )
                if obs.recording_enabled():
                    forensics.stage(
                        "slice",
                        low=thresholds.low,
                        high=thresholds.high,
                        support=sliced.support,
                        erasures=len(sliced.erasures),
                        preamble_len=len(cfg.preamble_bits),
                        bit_margins=slicer.margin_profile(
                            combined, thresholds, timestamps,
                            data_start, bit_duration_s, num_bits,
                        ),
                    )
            obs.counter("uplink.decodes").inc()
            if obs.metrics_enabled():
                obs.timeseries("uplink.decode.latency_s").sample(
                    time.perf_counter() - t_decode
                )
            frame_lo, frame_hi = np.searchsorted(
                timestamps, [detection.start_time_s, last_needed]
            )
            return UplinkDecodeResult(
                bits=sliced.bits,
                detection=detection,
                weights=weights,
                combined=combined,
                sliced=sliced,
                mode=mode,
                fallback_from=(
                    requested_mode if mode != requested_mode else None
                ),
                repaired_values=repaired,
                frame_slice=(int(frame_lo), int(frame_hi)),
            )

    # -- diagnostics ----------------------------------------------------------

    @staticmethod
    def _emit_combine_diagnostics(
        detection: subchannel.PreambleDetection,
        good: np.ndarray,
        weights: combining.CombinerWeights,
        span,
    ) -> None:
        """Selected sub-channels, correlation scores, and MRC weights."""
        if not obs.metrics_enabled() and span is None:
            return
        selected_corr = detection.correlations[good]
        obs.gauge("uplink.preamble.score").set(detection.score)
        obs.histogram("uplink.subchannel.correlation").observe_many(
            np.abs(selected_corr)
        )
        obs.histogram("uplink.mrc.weight").observe_many(np.abs(weights.weights))
        if span is not None:
            span.set(
                selected_subchannels=good,
                correlation_scores=selected_corr,
                mrc_weights=weights.weights,
            )

    @staticmethod
    def _emit_slice_diagnostics(
        combined: np.ndarray,
        decisions: np.ndarray,
        thresholds: slicer.HysteresisThresholds,
        sliced: slicer.SlicedBits,
        span,
    ) -> None:
        """Slicer margins, hysteresis flips, and erasures.

        The margin of a sample is its distance past the threshold it
        must clear (negative inside the dead band): small margins mean
        the two reflection levels are barely separable at this range.
        """
        if not obs.metrics_enabled() and span is None:
            return
        flips = int(np.count_nonzero(np.diff(decisions)))
        mid = 0.5 * (thresholds.low + thresholds.high)
        margins = np.where(
            combined >= mid, combined - thresholds.high,
            thresholds.low - combined,
        )
        obs.counter("uplink.slicer.flips").inc(flips)
        obs.counter("uplink.slicer.erasures").inc(len(sliced.erasures))
        obs.histogram("uplink.slicer.margin").observe_many(margins)
        obs.histogram("uplink.slicer.support").observe_many(sliced.support)
        if span is not None:
            span.set(
                threshold_low=thresholds.low,
                threshold_high=thresholds.high,
                hysteresis_flips=flips,
                erasures=len(sliced.erasures),
                margin_mean=float(margins.mean()) if margins.size else None,
            )

    def decode_frame(
        self,
        stream: MeasurementStream,
        payload_len: int,
        bit_duration_s: float,
        mode: str = "csi",
        start_time_s: Optional[float] = None,
    ) -> UplinkFrame:
        """Decode and CRC-check a complete uplink frame.

        The frame layout is preamble | payload | crc8 | postamble; the
        preamble is consumed by detection, the rest is decoded and
        handed to :meth:`UplinkFrame.parse`.

        Raises:
            CrcError: the payload failed its CRC.
            FrameError: structural mismatch.
        """
        pre = list(self.config.preamble_bits)
        tail_bits = payload_len + 8 + len(pre)  # payload + crc + postamble
        result = self.decode_bits(
            stream, tail_bits, bit_duration_s, mode=mode, start_time_s=start_time_s
        )
        full = pre + list(result.bits)
        return UplinkFrame.parse(full, payload_len)
