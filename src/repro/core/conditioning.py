"""Signal conditioning for uplink channel measurements (§3.2 step 1).

Two-fold goal, per the paper: "1) remove the natural temporal
variations in the channel measurements due to mobility in the
environment, and 2) normalize the channel measurements to map to -1
and +1 values."

* Temporal variations: subtract a moving average "computed over a
  duration of 400 ms" — time-based, not sample-count-based, because
  the packet rate varies with network load.
* Normalization: divide the zero-mean measurements by the mean of
  their absolute values, so a '1' (reflecting) bit maps near +1 and a
  '0' near -1 without knowing the transmitted bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, MeasurementError

#: Moving-average window used in the paper's experiments.
DEFAULT_WINDOW_S = 0.4

#: Non-finite sample policies accepted by :func:`sanitize`.
NONFINITE_POLICIES = ("reject", "repair", "propagate")

#: Cells per block of the moving-average pass (512 KB of float64).
_BLOCK_CELLS = 1 << 16


def sanitize(
    values: np.ndarray, policy: str = "reject"
) -> Tuple[np.ndarray, int]:
    """Handle NaN/inf samples before they poison the pipeline.

    A single NaN CSI cell, left alone, turns the moving-average
    baseline, the normalization scale, the MRC weights, and finally
    every sliced bit into NaN — silent corruption.  Decoders therefore
    run their matrices through this gate first.

    Args:
        values: measurement matrix, shape ``(n_packets, n_channels)``.
        policy: ``"reject"`` raises :class:`MeasurementError` on any
            non-finite sample; ``"repair"`` replaces each non-finite
            cell with its channel's finite median (0 for channels with
            no finite samples at all); ``"propagate"`` returns the
            input untouched (the pre-fix legacy behaviour, kept for
            diagnosis).

    Returns:
        ``(clean_matrix, num_repaired)`` — ``num_repaired`` counts the
        non-finite cells found (0 under ``reject`` when it returns).

    Raises:
        MeasurementError: non-finite samples under the reject policy.
    """
    if policy not in NONFINITE_POLICIES:
        raise ConfigurationError(
            f"nonfinite policy must be one of {NONFINITE_POLICIES}, "
            f"got {policy!r}"
        )
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    count = int(np.count_nonzero(bad))
    if count == 0 or policy == "propagate":
        return values, count
    if policy == "reject":
        raise MeasurementError(
            f"measurement matrix contains {count} non-finite sample(s); "
            "repair or drop them before decoding"
        )
    repaired = values.copy()
    if repaired.ndim == 1:
        repaired = repaired[:, None]
        bad = bad[:, None]
    np.copyto(repaired, _finite_medians(repaired, bad), where=bad)
    repaired = repaired.reshape(values.shape)
    obs.counter("conditioning.nonfinite.repaired").inc(count)
    return repaired, count


def _finite_medians(values: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """``np.median`` of each column's finite cells, 0.0 for none.

    The columns holding a bad cell are copied with their bad cells set
    to +inf and sorted in one call, so each column's finite cells come
    first, in order.  The fill follows ``np.median``'s arithmetic on
    them: the mean of the middle value or two, which NumPy sums from
    0.0 (so a -0.0 median comes out as 0.0).

    Returns:
        One fill per column, shape ``(n_channels,)``; 0.0 for columns
        without a bad cell.
    """
    fills = np.zeros(values.shape[1])
    cols = np.flatnonzero(bad.any(axis=0))
    ordered, holes = values.T[cols], bad.T[cols]
    np.copyto(ordered, np.inf, where=holes)
    ordered.sort(axis=1)
    finite = len(values) - holes.sum(axis=1)
    rows = np.arange(len(cols))
    # With no finite cell both picks are +inf, and the fill is 0.0.
    lo = ordered[rows, (finite - 1) // 2]
    hi = ordered[rows, finite // 2]
    median = 0.0 + lo
    even = finite % 2 == 0
    median[even] = (0.0 + (lo[even] + hi[even])) / 2.0
    median[finite == 0] = 0.0
    fills[cols] = median
    return fills


def moving_average_by_time(
    values: np.ndarray, timestamps_s: np.ndarray, window_s: float = DEFAULT_WINDOW_S
) -> np.ndarray:
    """Centered time-windowed moving average of each column.

    For each packet ``i`` the average is taken over packets whose
    timestamp lies within ``window_s / 2`` of packet ``i``'s.

    Args:
        values: measurement matrix, shape ``(n_packets, n_channels)``.
        timestamps_s: packet timestamps, shape ``(n_packets,)``,
            non-decreasing.
        window_s: full window width in seconds.

    Returns:
        Matrix of the same shape holding the local means.
    """
    return _moving_average(values, timestamps_s, window_s)[0]


def _moving_average(
    values: np.ndarray, timestamps_s: np.ndarray, window_s: float
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`moving_average_by_time` plus a spare ``(n, C)`` buffer.

    The column prefix sums go into one preallocated ``(n + 1, C)``
    buffer.  Each window's mean is the difference of two of its rows
    over the window's packet count.  That runs block by block in the
    output buffer, so a block's gathered rows are still in cache for
    the subtract and the divide; each cell sees the same two
    operations whatever the block size.  The window bounds come from
    ``searchsorted`` and lie in ``[0, n]``, so the unbuffered ``clip``
    gather never clips.  The prefix buffer is dead after the gathers,
    and its last ``n`` rows are returned as the spare.
    """
    values = np.asarray(values, dtype=float)
    timestamps = np.asarray(timestamps_s, dtype=float)
    if values.ndim != 2:
        raise ConfigurationError("values must be 2-D (packets x channels)")
    if len(timestamps) != values.shape[0]:
        raise ConfigurationError("timestamps length must match values rows")
    if window_s <= 0:
        raise ConfigurationError("window_s must be positive")
    if len(timestamps) > 1 and np.any(np.diff(timestamps) < 0):
        raise ConfigurationError("timestamps must be non-decreasing")
    n, channels = values.shape
    half = window_s / 2.0
    lo = np.searchsorted(timestamps, timestamps - half, side="left")
    hi = np.searchsorted(timestamps, timestamps + half, side="right")
    counts = (hi - lo).astype(float)[:, None]
    prefix = np.empty((n + 1, channels))
    prefix[0] = 0.0
    _prefix_sum(values, prefix[1:])
    means = np.empty((n, channels))
    rows = max(1, _BLOCK_CELLS // max(channels, 1))
    for a in range(0, n, rows):
        block = means[a:a + rows]
        np.take(prefix, hi[a:a + rows], axis=0, out=block, mode="clip")
        np.subtract(block, prefix[lo[a:a + rows]], out=block)
        np.divide(block, counts[a:a + rows], out=block)
    return means, prefix[1:]


def _prefix_sum(values: np.ndarray, out: np.ndarray) -> None:
    """``np.cumsum(values, axis=-2, out=out)``, two columns per add.

    Each column's running sum is a chain of dependent adds, so a plain
    cumsum waits on add latency.  Viewing each pair of adjacent columns
    as one complex128 runs two chains per step.  Complex addition is
    componentwise, so every cell sees the same adds in the same order
    and the result equals ``np.cumsum`` bit for bit, NaN, inf and -0.0
    included.  An odd last column is summed on its own.

    Args:
        values: float array, shape ``(..., packets, channels)``.
        out: float64 array of the same shape whose last axis is
            contiguous.
    """
    values = np.ascontiguousarray(values, dtype=float)
    channels = values.shape[-1]
    paired = channels - channels % 2
    if paired:
        np.cumsum(values[..., :paired].view(np.complex128), axis=-2,
                  out=out[..., :paired].view(np.complex128))
    if paired < channels:
        np.cumsum(values[..., -1], axis=-1, out=out[..., -1])


@dataclass(frozen=True)
class ConditionedMeasurements:
    """Output of signal conditioning.

    Attributes:
        normalized: zero-mean, unit-mean-absolute measurements with the
            same shape as the input — '1' bits cluster near +1, '0'
            bits near -1 on sub-channels where the tag is visible.
        scale: the per-channel normalization divisor (mean |zero-mean|),
            useful as a raw signal-strength diagnostic.
        timestamps_s: pass-through packet timestamps.
        repaired: non-finite input cells repaired before conditioning.
    """

    normalized: np.ndarray
    scale: np.ndarray
    timestamps_s: np.ndarray
    repaired: int = 0


def condition(
    values: np.ndarray,
    timestamps_s: np.ndarray,
    window_s: float = DEFAULT_WINDOW_S,
    nonfinite: str = "reject",
) -> ConditionedMeasurements:
    """Full §3.2-step-1 conditioning of a measurement matrix.

    Args:
        values: raw CSI amplitudes or RSSI values, shape
            ``(n_packets, n_channels)``. RSSI streams use
            ``n_channels == num_antennas``.
        timestamps_s: packet timestamps.
        window_s: moving-average window.
        nonfinite: NaN/inf policy — see :func:`sanitize`.  The default
            rejects with a typed :class:`MeasurementError` rather than
            silently propagating NaN downstream; ``"propagate"`` skips
            the scan and reports ``repaired`` as 0.

    Returns:
        :class:`ConditionedMeasurements`.

    Raises:
        MeasurementError: non-finite samples under the reject policy.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] == 0:
        raise ConfigurationError("cannot condition an empty measurement set")
    with obs.span("conditioning.condition"):
        repaired = 0
        if nonfinite != "propagate":
            values, repaired = sanitize(values, nonfinite)
        # The baseline buffer becomes the zero-mean matrix and then the
        # normalized one; the absolute values go into the spare buffer.
        zero_mean, spare = _moving_average(values, timestamps_s, window_s)
        np.subtract(values, zero_mean, out=zero_mean)
        scale = np.abs(zero_mean, out=spare).mean(axis=0)
        # Guard sub-channels with no variation at all (e.g. all-quantized
        # to one level): leave them at zero rather than dividing by zero.
        safe = np.where(scale > 0, scale, 1.0)
        normalized = np.divide(zero_mean, safe, out=zero_mean)
    return ConditionedMeasurements(
        normalized=normalized,
        scale=scale,
        timestamps_s=np.asarray(timestamps_s, dtype=float),
        repaired=repaired,
    )

