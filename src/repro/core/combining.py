"""Noise-variance-weighted combining across sub-channels (§3.2 step 2.2).

"The Wi-Fi reader combines the information across the sub-channels by
computing a weighted average where sub-channels with low noise
variance are given a higher weight":

    CSI_weighted = sum_i CSI_i / sigma_i^2

"similar to maximum ratio combining techniques ... known to be optimal
for Gaussian noise". We additionally carry each channel's polarity
(sign of its preamble correlation) so that sub-channels where the
reflecting state *lowers* the amplitude contribute constructively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.subchannel import expected_chips_at
from repro.errors import ConfigurationError, DecodeError

#: Floor applied to estimated noise variances to avoid infinite weights.
MIN_VARIANCE = 1e-6


def estimate_noise_variance(
    normalized: np.ndarray,
    timestamps_s: np.ndarray,
    start_time_s: float,
    preamble_bits: Sequence[int],
    bit_duration_s: float,
    correlations: np.ndarray,
) -> np.ndarray:
    """Per-channel noise variance from preamble residuals.

    During the preamble the transmitted chips are known, so the
    residual after removing each channel's best-fit modulation
    (``correlation * chip``) is pure noise.

    Returns:
        Variance per channel, floored at :data:`MIN_VARIANCE`.

    Raises:
        DecodeError: fewer than 2 packets fell inside the preamble (a
            starved stream, not a bad configuration).
    """
    normalized = np.asarray(normalized, dtype=float)
    chips = expected_chips_at(
        timestamps_s, start_time_s, preamble_bits, bit_duration_s
    )
    mask = chips != 0
    if int(mask.sum()) < 2:
        raise DecodeError(
            "need at least 2 preamble packets to estimate noise variance"
        )
    residual = normalized[mask] - np.outer(chips[mask], correlations)
    var = residual.var(axis=0)
    return np.maximum(var, MIN_VARIANCE)


@dataclass(frozen=True)
class CombinerWeights:
    """MRC weights for a set of good channels.

    Attributes:
        channel_indices: which channels participate.
        weights: signed weight per participating channel
            (``sign(correlation) / variance``).
    """

    channel_indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if len(self.channel_indices) != len(self.weights):
            raise ConfigurationError("indices and weights must align")
        if len(self.channel_indices) == 0:
            raise ConfigurationError("combiner needs at least one channel")


def make_weights(
    correlations: np.ndarray,
    variances: np.ndarray,
    channel_indices: np.ndarray,
) -> CombinerWeights:
    """Build signed MRC weights for the selected channels.

    The magnitude follows the paper's ``1 / sigma_i^2``; the sign comes
    from the preamble correlation so inverted-polarity channels add
    constructively.
    """
    correlations = np.asarray(correlations, dtype=float)
    variances = np.asarray(variances, dtype=float)
    idx = np.asarray(channel_indices, dtype=int)
    if np.any(idx < 0) or np.any(idx >= len(correlations)):
        raise ConfigurationError("channel index out of range")
    signs = np.sign(correlations[idx])
    signs[signs == 0] = 1.0
    weights = signs / np.maximum(variances[idx], MIN_VARIANCE)
    return CombinerWeights(channel_indices=idx, weights=weights)


#: A single channel carrying more than this share of total |weight|
#: means the combiner has effectively collapsed onto it.
COLLAPSE_SHARE = 0.9


def weight_diagnostics(weights: CombinerWeights) -> dict:
    """Forensics summary of an MRC weight vector.

    ``weight_max_share`` is the dominant channel's fraction of the
    total absolute weight; near 1.0 the "combiner" is really a single
    (possibly poisoned) channel, which the attribution engine labels
    ``mrc_weight_collapse``.
    """
    magnitudes = np.abs(np.asarray(weights.weights, dtype=float))
    total = float(magnitudes.sum())
    share = float(magnitudes.max() / total) if total > 0 else 1.0
    return {
        "channels": [int(c) for c in weights.channel_indices],
        "weights": [float(w) for w in weights.weights],
        "weight_total": total,
        "weight_max_share": share,
        "collapsed": bool(len(magnitudes) > 1 and share > COLLAPSE_SHARE),
    }


def combine(normalized: np.ndarray, weights: CombinerWeights) -> np.ndarray:
    """Weighted per-packet decision statistic.

    Args:
        normalized: conditioned measurements (packets x channels).
        weights: output of :func:`make_weights`.

    Returns:
        1-D array (one combined value per packet), scaled so that the
        ideal '1'/'0' levels sit near +1/-1 (weights are normalized by
        their absolute sum).
    """
    normalized = np.asarray(normalized, dtype=float)
    if normalized.ndim != 2:
        raise ConfigurationError("normalized must be 2-D (packets x channels)")
    total = np.abs(weights.weights).sum()
    return normalized[:, weights.channel_indices] @ (weights.weights / total)
