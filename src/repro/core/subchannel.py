"""Preamble correlation and good-sub-channel selection (§3.2 step 2).

"The set of 'good' sub-channels and antennas varies significantly with
the position of the tag" (Fig 5), so the reader re-learns them per
transmission: it "correlates with the preamble along every sub-channel
(treating multiple antennas as additional sub-channels), while waiting
for an incoming transmission. When a transmission arrives (which is
identified by a peak in the correlation), the Wi-Fi reader sorts the
sub-channels based on the correlation value" and keeps the top ten.

Because measurements arrive at packet times (not on a uniform grid),
correlation is evaluated against the preamble *waveform*: the expected
chip for a packet is determined by which preamble bit interval its
timestamp falls into, relative to a candidate frame start time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.barker import bits_to_chips
from repro.core.conditioning import _prefix_sum
from repro.errors import ConfigurationError, PreambleNotFound

#: Number of good sub-channels the paper's reader keeps.
DEFAULT_GOOD_COUNT = 10


def expected_chips_at(
    timestamps_s: np.ndarray,
    start_time_s: float,
    preamble_bits: Sequence[int],
    bit_duration_s: float,
) -> np.ndarray:
    """Expected +1/-1 chip for each packet, or 0 outside the preamble.

    Args:
        timestamps_s: packet timestamps.
        start_time_s: candidate frame start.
        preamble_bits: the known preamble (0/1).
        bit_duration_s: tag bit duration.
    """
    chips = bits_to_chips(preamble_bits)
    idx = np.floor((np.asarray(timestamps_s) - start_time_s) / bit_duration_s)
    out = np.zeros(len(timestamps_s))
    valid = (idx >= 0) & (idx < len(chips))
    out[valid] = chips[idx[valid].astype(int)]
    return out


def correlate_at(
    normalized: np.ndarray,
    timestamps_s: np.ndarray,
    start_time_s: float,
    preamble_bits: Sequence[int],
    bit_duration_s: float,
) -> np.ndarray:
    """Per-channel normalized correlation with the preamble at one offset.

    Returns:
        Signed correlation per channel in [-1, 1]-ish range: the mean of
        ``measurement * expected_chip`` over in-preamble packets. The
        sign captures the channel's polarity (reflection may raise or
        lower a given sub-channel's amplitude).
    """
    normalized = np.asarray(normalized, dtype=float)
    if normalized.ndim != 2:
        raise ConfigurationError("normalized must be 2-D (packets x channels)")
    chips = expected_chips_at(timestamps_s, start_time_s, preamble_bits, bit_duration_s)
    mask = chips != 0
    count = int(mask.sum())
    if count == 0:
        return np.zeros(normalized.shape[1])
    return (normalized[mask] * chips[mask, None]).mean(axis=0)


#: Candidate start times evaluated per correlation block.  Caps
#: the (candidates x packets) expected-chip matrix at a few MB for
#: typical streams so the vectorized search stays cache-friendly.
SEARCH_CHUNK = 256


def correlation_matrix(
    normalized: np.ndarray,
    timestamps_s: np.ndarray,
    start_times_s: np.ndarray,
    preamble_bits: Sequence[int],
    bit_duration_s: float,
) -> np.ndarray:
    """Per-channel preamble correlations at many candidate offsets.

    The many-offset form of :func:`correlate_at`.  Packet timestamps are
    sorted, so the packets expecting chip ``k`` of a candidate starting
    at ``s`` are exactly the contiguous run in
    ``[s + k*bit, s + (k+1)*bit)`` — each candidate's per-chip
    measurement sums are prefix-sum differences at ``searchsorted``
    bit boundaries.  That replaces the per-offset Python loop (and the
    dense candidates-x-packets expected-chip matrix) with O(candidates
    x preamble_len) work, independent of the packet count.  A
    ``sliding_window_view`` over the sample axis does not apply here
    because the timestamps are non-uniform.

    Chip assignment brackets timestamps between bit boundaries, which
    matches :func:`correlate_at`'s ``floor`` indexing in exact
    arithmetic; a timestamp landing within one float ulp of a boundary
    may fall on the other side of it, a measure-zero event for the
    continuous packet-arrival processes this decodes.

    Returns:
        Array of shape ``(len(start_times_s), channels)``; rows with no
        in-preamble packets are all-zero, matching
        :func:`correlate_at`'s empty-mask behaviour.
    """
    normalized = np.asarray(normalized, dtype=float)
    if normalized.ndim != 2:
        raise ConfigurationError("normalized must be 2-D (packets x channels)")
    timestamps = np.asarray(timestamps_s, dtype=float)
    starts = np.atleast_1d(np.asarray(start_times_s, dtype=float))
    chips = bits_to_chips(preamble_bits)
    num_chips = len(chips)
    channels = normalized.shape[1]
    prefix = np.zeros((len(timestamps) + 1, channels))
    _prefix_sum(normalized, prefix[1:])
    boundaries = np.arange(num_chips + 1) * bit_duration_s
    # Telescope the per-chip sum: sum_l chips[l] * (P[b_{l+1}] - P[b_l])
    # == sum_k coef[k] * P[b_k], where coef is nonzero only at the two
    # ends and at chip transitions — for a Barker code that prunes most
    # boundary gathers (the dominant cost).
    coef = np.zeros(num_chips + 1)
    coef[0] = -chips[0]
    coef[-1] = chips[-1]
    coef[1:-1] = chips[:-1] - chips[1:]
    nz = np.flatnonzero(coef)
    out = np.zeros((len(starts), channels))
    for lo in range(0, len(starts), SEARCH_CHUNK):
        block = starts[lo:lo + SEARCH_CHUNK]
        bounds = block[:, None] + boundaries[None, :]
        pos = np.searchsorted(timestamps, bounds.ravel()).reshape(
            len(block), num_chips + 1
        )
        sums = np.einsum("k,bkj->bj", coef[nz], prefix[pos[:, nz]])
        counts = (pos[:, -1] - pos[:, 0]).astype(float)
        nonzero = counts > 0
        out[lo:lo + SEARCH_CHUNK][nonzero] = (
            sums[nonzero] / counts[nonzero, None]
        )
    return out


@dataclass(frozen=True)
class PreambleDetection:
    """Result of a preamble search.

    Attributes:
        start_time_s: estimated frame start.
        correlations: signed per-channel correlation at the peak.
        score: detection statistic (sum of |correlation| across
            channels) at the peak.
        threshold: the score needed for detection.
    """

    start_time_s: float
    correlations: np.ndarray
    score: float
    threshold: float


def detect_preamble(
    normalized: np.ndarray,
    timestamps_s: np.ndarray,
    preamble_bits: Sequence[int],
    bit_duration_s: float,
    search_step_s: Optional[float] = None,
    min_score: float = 0.0,
) -> PreambleDetection:
    """Scan candidate start times for the preamble correlation peak.

    Args:
        normalized: conditioned measurements (packets x channels).
        timestamps_s: packet timestamps.
        preamble_bits: the known preamble.
        bit_duration_s: tag bit duration.
        search_step_s: grid step for candidate starts (default: a
            quarter bit).
        min_score: detection threshold on the summed |correlation|;
            0 accepts the best peak unconditionally.

    Raises:
        PreambleNotFound: when no candidate reaches ``min_score`` or the
            stream is too short to contain the preamble.
    """
    timestamps = np.asarray(timestamps_s, dtype=float)
    if len(timestamps) == 0:
        raise PreambleNotFound("empty measurement stream")
    if bit_duration_s <= 0:
        raise ConfigurationError("bit_duration_s must be positive")
    preamble_span = len(preamble_bits) * bit_duration_s
    t_first, t_last = timestamps[0], timestamps[-1]
    if t_last - t_first < preamble_span:
        raise PreambleNotFound(
            f"stream spans {t_last - t_first:.3f} s, shorter than the "
            f"{preamble_span:.3f} s preamble"
        )
    step = search_step_s if search_step_s is not None else bit_duration_s / 4.0
    if step <= 0:
        raise ConfigurationError("search_step_s must be positive")
    candidates = np.arange(t_first, t_last - preamble_span + step, step)
    corr_matrix = correlation_matrix(
        normalized, timestamps, candidates, preamble_bits, bit_duration_s
    )
    scores = np.abs(corr_matrix).sum(axis=1)
    # argmax returns the first maximum, matching the legacy loop's
    # strict-> best tracking (first peak wins ties).
    best = int(np.argmax(scores))
    best_score = float(scores[best])
    if best_score < min_score:
        raise PreambleNotFound(
            f"best correlation score {best_score:.3f} below threshold "
            f"{min_score:.3f}"
        )
    return PreambleDetection(
        start_time_s=float(candidates[best]),
        correlations=corr_matrix[best],
        score=best_score,
        threshold=min_score,
    )


def select_good_subchannels(
    correlations: np.ndarray, count: int = DEFAULT_GOOD_COUNT
) -> np.ndarray:
    """Indices of the ``count`` best channels by |preamble correlation|.

    "The sub-channels that correlate well with the preamble have a
    better signal from the Wi-Fi Backscatter tag than those that
    correlate poorly. The Wi-Fi reader picks the top ten 'good'
    sub-channels" (§3.2).
    """
    corr = np.asarray(correlations, dtype=float)
    if corr.ndim != 1:
        raise ConfigurationError("correlations must be 1-D")
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    count = min(count, len(corr))
    order = np.argsort(-np.abs(corr))
    return order[:count]


def selection_diagnostics(
    correlations: np.ndarray, selected: np.ndarray
) -> dict:
    """Forensics summary of a good-sub-channel selection.

    ``selection_ratio`` compares the mean |correlation| of the chosen
    channels against the rejected ones; near 1.0 the "good" channels
    are indistinguishable from the rest (the attribution engine's
    ``bad_subchannel_selection`` signal). Infinite when every channel
    was selected or the rejects correlate at exactly zero.
    """
    corr = np.abs(np.asarray(correlations, dtype=float))
    idx = np.asarray(selected, dtype=int)
    mask = np.zeros(len(corr), dtype=bool)
    mask[idx] = True
    sel_mean = float(corr[mask].mean()) if mask.any() else 0.0
    rejected = corr[~mask]
    unsel_mean = float(rejected.mean()) if rejected.size else 0.0
    ratio = sel_mean / unsel_mean if unsel_mean > 0 else float("inf")
    return {
        "channels": [int(c) for c in idx],
        "num_selected": int(len(idx)),
        "sel_mean": sel_mean,
        "unsel_mean": unsel_mean,
        "selection_ratio": float(ratio),
    }
