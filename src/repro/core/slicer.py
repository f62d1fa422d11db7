"""Bit slicing: timestamp binning, hysteresis, majority vote (§3.2 step 3).

Three mechanisms from the paper combine here:

* **Timestamp binning** — "it is unlikely that every bit transmitted by
  the tag sees the same number of Wi-Fi packets ... we use the
  timestamp that is in every Wi-Fi packet header to accurately group
  Wi-Fi packets belonging to the same bit transmission."
* **Hysteresis** — Intel cards "report spurious changes in the CSI once
  every so often", so per-measurement decisions use two thresholds
  ``Thresh1``/``Thresh0`` at ``mu +/- sigma/2``; values between them
  repeat the previous decision instead of flipping on a glitch.
* **Majority vote** — "each bit transmitted by the tag corresponds to
  multiple channel measurements ... [the reader] uses a simple
  majority vote to compute the transmitted bits."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, DecodeError


@dataclass(frozen=True)
class HysteresisThresholds:
    """The two slicing thresholds.

    Attributes:
        low: ``Thresh0`` — output 0 when the value is below this.
        high: ``Thresh1`` — output 1 when the value is above this.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ConfigurationError(
                f"low threshold {self.low} exceeds high threshold {self.high}"
            )


def compute_thresholds(values: np.ndarray, width: float = 0.5) -> HysteresisThresholds:
    """Thresholds at ``mu +/- width * sigma`` of the combined statistic.

    The paper sets them from "the mean and standard deviation of
    CSI_weighted computed across packets" with a half-sigma offset.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigurationError("cannot compute thresholds of empty input")
    if width < 0:
        raise ConfigurationError("width must be >= 0")
    mu = float(values.mean())
    sigma = float(values.std())
    return HysteresisThresholds(low=mu - width * sigma, high=mu + width * sigma)


def hysteresis_slice(
    values: np.ndarray,
    thresholds: HysteresisThresholds,
    initial: int = 0,
) -> np.ndarray:
    """Per-measurement hard decisions with hysteresis.

    Values above ``high`` output 1, below ``low`` output 0, and values
    in the dead band (NaN included) repeat the previous output —
    absorbing spurious single-packet CSI jumps.
    """
    values = np.asarray(values, dtype=float)
    if initial not in (0, 1):
        raise ConfigurationError("initial state must be 0 or 1")
    return _forward_fill(values > thresholds.high, values < thresholds.low,
                         initial)


def _forward_fill(
    up: np.ndarray, down: np.ndarray, initial: int = 0
) -> np.ndarray:
    """Hysteresis decisions along the last axis from the threshold masks.

    Each output is the decision of the last sample that cleared a
    threshold (1 above ``high``, 0 below ``low``), or ``initial`` before
    the first one.  Slot 0 of a padded row holds ``initial`` and sample
    ``i`` sits in slot ``i + 1``; a running maximum over the slots of
    the samples that cleared a threshold forward-fills that decision.
    Integer-exact, so each row gives the per-packet loop's output.
    """
    n = up.shape[-1]
    padded = np.empty(up.shape[:-1] + (n + 1,), dtype=int)
    padded[..., 0] = initial
    padded[..., 1:] = up
    slots = np.where(up | down, np.arange(1, n + 1), 0)
    np.maximum.accumulate(slots, axis=-1, out=slots)
    return np.take_along_axis(padded, slots, axis=-1)


def margin_profile(
    combined: np.ndarray,
    thresholds: HysteresisThresholds,
    timestamps_s: np.ndarray,
    start_time_s: float,
    bit_duration_s: float,
    num_bits: int,
) -> np.ndarray:
    """Per-bit slicing margin: how far outside the dead band each bit sat.

    The per-measurement margin is the distance from the value to the
    threshold it had to clear (``combined - high`` when above the dead
    band's midpoint, ``low - combined`` below it); negative values mean
    the measurement landed inside the dead band and rode on hysteresis.
    Each bit's margin is the mean over its binned measurements — the
    forensics signal for "the slicer decided with no confidence".

    Returns:
        ``num_bits`` floats; bits with no measurements get NaN.
    """
    combined = np.asarray(combined, dtype=float)
    mid = 0.5 * (thresholds.low + thresholds.high)
    per_sample = np.where(
        combined >= mid, combined - thresholds.high, thresholds.low - combined
    )
    return _bit_means(per_sample, timestamps_s, start_time_s,
                      bit_duration_s, num_bits)[0]


def bin_by_timestamp(
    timestamps_s: np.ndarray,
    start_time_s: float,
    bit_duration_s: float,
    num_bits: int,
) -> List[np.ndarray]:
    """Packet indices belonging to each transmitted bit interval.

    Args:
        timestamps_s: packet timestamps.
        start_time_s: first bit's start time (from preamble detection).
        bit_duration_s: tag bit duration.
        num_bits: number of bit intervals to produce.

    Returns:
        List of ``num_bits`` ascending index arrays (possibly empty for
        bits that saw no packets — the caller decides how to handle
        erasures).
    """
    bins, inside = _bit_bins(timestamps_s, start_time_s, bit_duration_s,
                             num_bits)
    order = np.flatnonzero(inside)[np.argsort(bins, kind="stable")]
    bounds = np.cumsum(np.bincount(bins, minlength=num_bits))[:-1]
    return np.split(order, bounds)


def _bit_bins(
    timestamps_s: np.ndarray,
    start_time_s: float,
    bit_duration_s: float,
    num_bits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The binning pass every per-bit statistic shares.

    Returns ``(bins, inside)``: ``inside`` marks the packets whose
    ``floor((t - start) / bit)`` falls in ``[0, num_bits)``, and ``bins``
    holds that bit index for each of them, in packet order.
    """
    if bit_duration_s <= 0:
        raise ConfigurationError("bit_duration_s must be positive")
    if num_bits < 1:
        raise ConfigurationError("num_bits must be >= 1")
    ts = np.asarray(timestamps_s, dtype=float)
    idx = np.floor((ts - start_time_s) / bit_duration_s)
    inside = (idx >= 0) & (idx < num_bits)
    return idx[inside].astype(np.intp), inside


def _bit_means(
    values: np.ndarray,
    timestamps_s: np.ndarray,
    start_time_s: float,
    bit_duration_s: float,
    num_bits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each bit's mean of ``values`` over its binned packets.

    Returns ``(means, support)``; bits with no packets get NaN.  The
    bits with ``n`` packets are gathered into one ``(bits, n)`` block,
    in packet order, and summed along rows: NumPy reduces each row with
    the pairwise sum a 1-D ``mean`` of the bit's packets uses, so each
    mean equals that ``mean`` bit for bit.
    """
    bins, inside = _bit_bins(timestamps_s, start_time_s, bit_duration_s,
                             num_bits)
    order = np.argsort(bins, kind="stable")
    binned = np.asarray(values, dtype=float)[inside][order]
    support = np.bincount(bins, minlength=num_bits)
    starts = np.cumsum(support) - support
    means = np.full(num_bits, np.nan)
    for size in np.unique(support[support > 0]).tolist():
        bits = np.flatnonzero(support == size)
        block = binned[starts[bits][:, None] + np.arange(size)]
        means[bits] = block.sum(axis=1) / size
    return means, support


@dataclass(frozen=True)
class SlicedBits:
    """Decoded bit decisions with per-bit support counts.

    Attributes:
        bits: decided bit per interval (erasures resolved to
            ``erasure_value``).
        support: measurements contributing to each bit.
        erasures: indices of bits that saw zero measurements.
    """

    bits: np.ndarray
    support: np.ndarray
    erasures: np.ndarray


def majority_vote_bits(
    decisions: np.ndarray,
    timestamps_s: np.ndarray,
    start_time_s: float,
    bit_duration_s: float,
    num_bits: int,
    erasure_value: int = 0,
    min_support: int = 1,
    strict: bool = False,
) -> SlicedBits:
    """Majority vote of per-measurement decisions within each bit bin.

    Args:
        decisions: 0/1 per-measurement decisions (from hysteresis).
        timestamps_s: matching packet timestamps.
        start_time_s: first bit boundary.
        bit_duration_s: tag bit duration.
        num_bits: bits to decode.
        erasure_value: value assigned to bins with no measurements.
        min_support: bins with fewer measurements than this count as
            erasures.
        strict: raise :class:`DecodeError` on any erasure instead of
            substituting ``erasure_value``.

    Ties (equal ones and zeros) resolve to 1 — the combined statistic
    is zero-mean so ties are rare and unbiased either way.
    """
    decisions = np.asarray(decisions, dtype=int)
    if len(decisions) != len(timestamps_s):
        raise ConfigurationError("decisions and timestamps must align")
    bins, inside = _bit_bins(timestamps_s, start_time_s, bit_duration_s,
                             num_bits)
    # Two bincount passes count each bit's measurements and ones.  The
    # ones are summed as float64, which is exact for sums of small
    # integers.
    support = np.bincount(bins, minlength=num_bits)
    ones = np.bincount(
        bins, weights=decisions[inside], minlength=num_bits
    ).astype(int)
    erased = support < min_support
    bits = np.where(erased, erasure_value, (2 * ones >= support).astype(int))
    erasures = np.flatnonzero(erased)
    if erasures.size and strict:
        raise DecodeError(
            f"{len(erasures)} bit(s) saw fewer than {min_support} "
            f"measurement(s): {erasures[:10].tolist()}"
        )
    return SlicedBits(bits=bits, support=support, erasures=erasures)


def soft_average_bits(
    combined: np.ndarray,
    timestamps_s: np.ndarray,
    start_time_s: float,
    bit_duration_s: float,
    num_bits: int,
    erasure_value: int = 0,
) -> SlicedBits:
    """Ablation alternative: average the soft statistic per bin, then slice.

    Compared in the ablation benches against the paper's
    hysteresis+majority approach.
    """
    means, support = _bit_means(combined, timestamps_s, start_time_s,
                                bit_duration_s, num_bits)
    bits = np.where(support > 0, (means >= 0).astype(int), erasure_value)
    return SlicedBits(
        bits=bits, support=support, erasures=np.flatnonzero(support == 0)
    )
