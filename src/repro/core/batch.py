"""Cross-packet batched uplink decoding (§3.2/§3.3 at batch scale).

The scalar :class:`~repro.core.uplink_decoder.UplinkDecoder` pays its
Python, observability, and per-call numpy overhead once per packet.
This module stacks K packets' conditioned CSI streams into one
``(K, samples, channels)`` ndarray and runs the pipeline across the
whole batch:

* moving-average conditioning via one batched prefix sum over the
  packed array, with the window gathers written straight into reusable
  scratch buffers,
* preamble search through
  :func:`repro.core.subchannel.correlation_matrix_batch`,
* expected-chip evaluation as one elementwise pass over the packed
  timestamp matrix (gathered through a cached chip table),
* top-``good_count`` sub-channel selection via ``argpartition``,
* noise-variance-weighted MRC with the weight math batched across the
  selected sub-channels of every packet at once,
* hysteresis slicing and majority voting through the scalar slicer's
  own array kernels (a forward-fill of the last decision and a
  ``bincount`` vote), run over the whole packed group.

**Bit-identity contract.**  Every decode produced here is bitwise
identical to the scalar pipeline — bits, margins, selected
sub-channels, and forensics stage records (the unit/property suites
hold an equality oracle over all of it).  Three rules make that true:

1. Integer and elementwise float work (searchsorted, chip indexing,
   weight signs, hysteresis, majority counts) is batched freely —
   results do not depend on array shape.
2. Floating-point reductions over the *sample* axis (conditioning
   scale, per-bit thresholds) batch only because numpy reduces a
   strided axis in sequential index order and a contiguous axis with
   length-determined pairwise blocking — either way the summation
   order depends on the reduction length alone, which the batch
   preserves.  When packet lengths are ragged those reductions fall
   back to per-item views with the exact shape the scalar call sees.
3. Reductions whose length differs per item even at equal packet
   counts (the preamble-masked correlation mean and noise variance)
   always run per item, on the same gathered rows the scalar pipeline
   builds.

Sub-channel selection uses an ``argpartition`` fast path and falls
back to the scalar ``argsort`` selector whenever |correlation| values
tie (fault plans that zero channels create exact ties, and the
selected *order* feeds the combiner's matrix-vector product).

Observability: batched decodes emit one ``uplink.decode_batch`` span
plus the scalar path's counters (``uplink.decodes``,
``uplink.nonfinite.repaired``, ``uplink.degradation.rssi_fallbacks``);
the per-decode histogram/gauge emissions of the scalar path are
intentionally skipped on the batch hot path.  Forensics stage records
are replayed per item and match the scalar records exactly.

The decoder keeps per-shape scratch buffers (a few MB at serve
shapes) so steady-state batches allocate almost nothing; instances are
therefore not thread-safe, matching the scalar decoder's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs import forensics
from repro.obs.caches import register_cache
from repro.core import combining, conditioning, slicer, subchannel
from repro.core.uplink_decoder import (
    UplinkDecodeResult,
    UplinkDecoder,
    UplinkDecoderConfig,
)
from repro.errors import ConfigurationError, DecodeError, PreambleNotFound
from repro.measurement import MeasurementStream

__all__ = [
    "BatchItem",
    "BatchOutcome",
    "BatchedUplinkDecoder",
]


# -- cached templates ---------------------------------------------------------

@lru_cache(maxsize=64)
def _chip_table(preamble_bits: Tuple[float, ...]) -> np.ndarray:
    """Chip template with an out-of-preamble sentinel appended.

    The batched expected-chip pass gathers through this table with a
    sentinel index for samples outside the preamble, replacing the
    scalar path's boolean scatter.  Read-only: shared across batches.
    """
    from repro.core.barker import bits_to_chips

    chips = bits_to_chips(preamble_bits)
    table = np.concatenate([chips, [0.0]])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _index_grid(n: int) -> np.ndarray:
    """Read-only ``arange(n)``: lane row indices and flat row offsets.

    Cached because serve micro-batches re-use the same shapes
    continuously.
    """
    grid = np.arange(n)
    grid.flags.writeable = False
    return grid


register_cache("core.batch_chip_table", _chip_table)
register_cache("core.batch_index_grid", _index_grid)


# -- public item/outcome types ------------------------------------------------

@dataclass(frozen=True)
class BatchItem:
    """One packet's decode request inside a batch.

    Mirrors the arguments of :meth:`UplinkDecoder.decode_bits`.
    """

    stream: MeasurementStream
    num_bits: int
    bit_duration_s: float
    mode: str = "csi"
    start_time_s: Optional[float] = None


@dataclass(frozen=True)
class BatchOutcome:
    """Per-item decode result or the exception the scalar path raises."""

    result: Optional[UplinkDecodeResult] = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None


# -- internal per-item state --------------------------------------------------

@dataclass
class _Lane:
    """Mutable per-item pipeline state inside one decode_batch call."""

    index: int
    num_bits: int
    bit_duration_s: float
    requested_mode: str
    start_time_s: Optional[float]
    mode: str = ""
    matrix: Optional[np.ndarray] = None
    repaired: int = 0
    n: int = 0
    error: Optional[Exception] = None
    pre_record: bool = False   # error raised before the forensics record opens
    stages: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    # group-local fields
    slot: int = -1
    normalized: Optional[np.ndarray] = None
    timestamps: Optional[np.ndarray] = None
    detection: Optional[subchannel.PreambleDetection] = None
    sel_rows: Optional[np.ndarray] = None    # preamble-masked normalized rows
    sel_chips: Optional[np.ndarray] = None   # matching nonzero chips
    good: Optional[np.ndarray] = None
    variances: Optional[np.ndarray] = None
    weights: Optional[combining.CombinerWeights] = None
    combined: Optional[np.ndarray] = None
    thresholds: Optional[slicer.HysteresisThresholds] = None
    data_start: float = float("nan")
    last_needed: float = float("nan")
    sliced: Optional[slicer.SlicedBits] = None

    def fail(self, exc: Exception) -> None:
        self.error = exc

    @property
    def live(self) -> bool:
        return self.error is None


def _take_rows(source: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = source[index]`` along axis 0, written straight into ``out``.

    ``np.take`` in its default ``raise`` mode writes through a temporary
    buffer when given ``out``; ``clip`` mode writes in place.  So the
    bounds are checked here and an out-of-range index stays an error.
    """
    if index.size and (index.min() < 0 or index.max() >= len(source)):
        raise IndexError(f"row index out of bounds for {len(source)} rows")
    np.take(source, index, axis=0, out=out, mode="clip")


def _select_good(correlations: np.ndarray, count: int) -> np.ndarray:
    """Top-``count`` channels by |correlation| via ``argpartition``.

    Bitwise-identical to :func:`subchannel.select_good_subchannels`:
    when the top set is free of ties (the clean-stream case) the
    partition + in-set descending sort reproduces the scalar
    ``argsort`` prefix exactly; any tie at or across the selection
    boundary falls back to the scalar selector, because tied |values|
    make the *order* an implementation detail of the sort and the
    order feeds the combiner.
    """
    corr = np.asarray(correlations, dtype=float)
    count = min(count, len(corr))
    if count >= len(corr):
        return subchannel.select_good_subchannels(corr, count)
    magnitude = np.abs(corr)
    part = np.argpartition(-magnitude, count)
    top = part[:count]
    vals = magnitude[top]
    order = np.argsort(-vals)
    ranked = vals[order]
    distinct = bool(np.all(ranked[:-1] > ranked[1:])) if count > 1 else True
    if distinct and magnitude[part[count]] < ranked[-1]:
        return top[order]
    return subchannel.select_good_subchannels(corr, count)


class BatchedUplinkDecoder:
    """Decodes many tag transmissions in one batched pipeline pass.

    Wraps a scalar :class:`UplinkDecoder` for mode resolution (CSI →
    RSSI degradation, sanitize policy) and for the per-source
    conditioning path, which stays scalar.
    """

    def __init__(self, config: Optional[UplinkDecoderConfig] = None) -> None:
        self.scalar = UplinkDecoder(config)
        self.config = self.scalar.config
        #: Per-shape scratch arrays, reused across decode calls.
        self._buffers: Dict[Tuple[int, int, int], Dict[str, np.ndarray]] = {}

    # -- entry points ---------------------------------------------------------

    def decode_batch(self, items: Sequence[BatchItem]) -> List[BatchOutcome]:
        """Decode every item, returning per-item results or errors.

        The scalar pipeline raises per decode; the batch API instead
        captures each item's exception in its :class:`BatchOutcome`
        (same type and message the scalar call would raise) so one bad
        packet cannot take down the rest of the batch.
        """
        if self.config.per_source_conditioning:
            # Per-source conditioning re-interleaves per-transmitter
            # segments; batching buys nothing there, so defer to the
            # scalar path wholesale.
            return [self._scalar_outcome(item) for item in items]
        with obs.span("uplink.decode_batch", items=len(items)), \
                obs.profile("uplink.decode_batch"):
            lanes = [self._resolve_lane(i, item)
                     for i, item in enumerate(items)]
            for group in self._group(lanes):
                self._decode_group(group)
            self._finalize_obs(lanes)
            if obs.recording_enabled():
                for lane in lanes:
                    self._replay_forensics(lane)
            return [self._outcome(lane) for lane in lanes]

    # -- resolution -----------------------------------------------------------

    def _scalar_outcome(self, item: BatchItem) -> BatchOutcome:
        try:
            return BatchOutcome(result=self.scalar.decode_bits(
                item.stream, item.num_bits, item.bit_duration_s,
                mode=item.mode, start_time_s=item.start_time_s,
            ))
        except Exception as exc:  # mirror scalar raise as a captured error
            return BatchOutcome(error=exc)

    def _resolve_lane(self, index: int, item: BatchItem) -> _Lane:
        lane = _Lane(
            index=index,
            num_bits=item.num_bits,
            bit_duration_s=item.bit_duration_s,
            requested_mode=item.mode,
            start_time_s=item.start_time_s,
        )
        # Scalar decode_bits raises these before opening its forensics
        # record, so no record is replayed for them either.
        if len(item.stream) == 0:
            lane.fail(DecodeError("empty measurement stream"))
            lane.pre_record = True
            return lane
        if item.num_bits < 1:
            lane.fail(ConfigurationError("num_bits must be >= 1"))
            lane.pre_record = True
            return lane
        try:
            mode, matrix, repaired = self.scalar._resolve_matrix(
                item.stream, item.mode
            )
        except Exception as exc:
            lane.fail(exc)
            return lane
        lane.mode = mode
        lane.matrix = matrix
        lane.repaired = repaired
        lane.timestamps = item.stream.timestamps
        lane.n = matrix.shape[0]
        return lane

    @staticmethod
    def _group(lanes: Sequence[_Lane]) -> List[List[_Lane]]:
        """Live lanes grouped by channel count (CSI 90 vs RSSI 3)."""
        groups: Dict[int, List[_Lane]] = {}
        for lane in lanes:
            if not lane.live:
                continue
            groups.setdefault(lane.matrix.shape[1], []).append(lane)
        return list(groups.values())

    def _scratch(
        self, k_count: int, n_max: int, channels: int
    ) -> Dict[str, np.ndarray]:
        """Reusable per-shape work arrays (uninitialised between calls)."""
        key = (k_count, n_max, channels)
        found = self._buffers.get(key)
        if found is None:
            if len(self._buffers) >= 4:
                self._buffers.clear()
            found = {
                "values": np.empty((k_count, n_max, channels)),
                "times": np.empty((k_count, n_max)),
                "prefix": np.empty((k_count, n_max + 1, channels)),
                "normalized": np.empty((k_count, n_max, channels)),
                "buf_a": np.empty((k_count, n_max, channels)),
                "buf_b": np.empty((k_count, n_max, channels)),
                "combined": np.empty((k_count, n_max)),
            }
            self._buffers[key] = found
        return found

    def _scratch_block(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """One reusable uninitialised block per (name, shape) key."""
        key = (name,) + shape
        found = self._buffers.get(key)
        if found is None:
            if len(self._buffers) >= 12:
                self._buffers.clear()
            found = np.empty(shape)
            self._buffers[key] = found
        return found

    # -- the packed pipeline --------------------------------------------------

    def _decode_group(self, lanes: List[_Lane]) -> None:
        cfg = self.config
        recording = obs.recording_enabled()
        channels = lanes[0].matrix.shape[1]
        n_max = max(lane.n for lane in lanes)
        uniform = all(lane.n == n_max for lane in lanes)
        buf = self._scratch(len(lanes), n_max, channels)
        values, times = buf["values"], buf["times"]
        for slot, lane in enumerate(lanes):
            lane.slot = slot
            values[slot, :lane.n] = lane.matrix
            times[slot, :lane.n] = lane.timestamps
            if lane.n < n_max:
                values[slot, lane.n:] = 0.0
                times[slot, lane.n:] = np.inf

        # Stage 1: conditioning.  Equal lengths batch the whole stage:
        # one prefix sum, window gathers straight into scratch, and the
        # scale reduction over the (strided) sample axis.  Ragged
        # groups run the scalar kernel per lane.
        if uniform:
            self._condition_uniform(lanes, buf, cfg.window_s / 2.0)
        else:
            self._condition_ragged(lanes, buf, cfg.window_s)
        normalized = buf["normalized"]
        for lane in lanes:
            lane.normalized = normalized[lane.slot, :lane.n]
            if recording:
                lane.stages.append(("condition", dict(
                    mode=lane.mode,
                    requested_mode=lane.requested_mode,
                    packets=lane.n,
                    channels=int(lane.matrix.shape[1]),
                    repaired=int(lane.repaired),
                    window_s=float(cfg.window_s),
                )))

        # Stage 2: preamble detection.  Scan lanes share one batched
        # correlation pass; then one elementwise pass yields every
        # lane's expected chips at its (given or detected) start, and
        # known-timing lanes correlate on the gathered preamble rows —
        # which stage 3 reuses for the noise variance.
        self._detect_scan(lanes, normalized, times, recording)
        chips = self._expected_chips(lanes, times)
        gathered = self._gather_preamble(lanes, chips, buf)
        self._correlate_known(lanes, channels, gathered, recording)

        # Stage 3+4: selection, noise variance, MRC weights, combine,
        # thresholds.  Per-lane where reduction lengths differ (masked
        # variance), batched where elementwise (weight math) or
        # length-uniform (threshold mean/std).
        self._combine_group(lanes, buf, uniform, gathered, recording)

        # Stage 5: hysteresis slicing over the whole group, then span
        # checks and one majority vote across the group (both through
        # the slicer's integer-exact kernels).
        decisions = self._hysteresis(lanes, buf)
        preamble = cfg.preamble_bits
        for lane in lanes:
            if not lane.live:
                continue
            lane.data_start = (
                lane.detection.start_time_s
                + len(preamble) * lane.bit_duration_s
            )
            lane.last_needed = (
                lane.data_start + lane.num_bits * lane.bit_duration_s
            )
            last_t = lane.timestamps[-1]
            if last_t < lane.data_start:
                lane.fail(DecodeError(
                    "measurement stream ends before the data bits begin"
                ))
            elif last_t + lane.bit_duration_s < lane.last_needed:
                lane.fail(DecodeError(
                    f"stream covers only {last_t - lane.data_start:.3f}"
                    f" s of the {lane.num_bits * lane.bit_duration_s:.3f}"
                    f" s data span"
                ))
        self._majority_vote(lanes, decisions, times)
        if recording:
            for lane in lanes:
                if not lane.live:
                    continue
                lane.stages.append(("slice", dict(
                    low=lane.thresholds.low,
                    high=lane.thresholds.high,
                    support=lane.sliced.support,
                    erasures=len(lane.sliced.erasures),
                    preamble_len=len(preamble),
                    bit_margins=slicer.margin_profile(
                        lane.combined, lane.thresholds, lane.timestamps,
                        lane.data_start, lane.bit_duration_s, lane.num_bits,
                    ),
                )))

    def _condition_uniform(
        self, lanes: List[_Lane], buf: Dict[str, np.ndarray], half: float
    ) -> None:
        """Moving-average conditioning, fully batched (equal lengths)."""
        values, prefix = buf["values"], buf["prefix"]
        k_count, n_max, channels = values.shape
        prefix[:, 0] = 0.0
        conditioning._prefix_sum(values, prefix[:, 1:])
        times = buf["times"]
        if bool((times == times[0]).all()):
            # One helper schedule shared by the whole batch (the serve
            # micro-batching case): the window bounds are identical per
            # lane, so search once and broadcast.
            ts = lanes[0].timestamps
            lo1 = ts.searchsorted(ts - half, side="left")
            hi1 = ts.searchsorted(ts + half, side="right")
            lo = np.broadcast_to(lo1, (k_count, n_max))
            hi = np.broadcast_to(hi1, (k_count, n_max))
        else:
            lo = np.empty((k_count, n_max), dtype=np.intp)
            hi = np.empty((k_count, n_max), dtype=np.intp)
            for lane in lanes:
                ts = lane.timestamps
                lo[lane.slot] = ts.searchsorted(ts - half, side="left")
                hi[lane.slot] = ts.searchsorted(ts + half, side="right")
        flat = prefix.reshape(-1, channels)
        offsets = (_index_grid(k_count) * (n_max + 1))[:, None]
        work, mag = buf["buf_a"], buf["buf_b"]
        _take_rows(flat, (hi + offsets).ravel(), work.reshape(-1, channels))
        _take_rows(flat, (lo + offsets).ravel(), mag.reshape(-1, channels))
        np.subtract(work, mag, out=work)
        counts = (hi - lo).astype(float)
        np.divide(work, counts[:, :, None], out=work)       # baseline
        np.subtract(values, work, out=work)                 # zero-mean
        np.abs(work, out=mag)
        scale = mag.mean(axis=1)
        safe = np.where(scale > 0, scale, 1.0)
        np.divide(work, safe[:, None, :], out=buf["normalized"])

    def _condition_ragged(
        self, lanes: List[_Lane], buf: Dict[str, np.ndarray], window_s: float
    ) -> None:
        """Per-lane conditioning with the scalar kernel (ragged counts)."""
        values, normalized = buf["values"], buf["normalized"]
        for lane in lanes:
            normalized[lane.slot, :lane.n] = conditioning._normalize(
                values[lane.slot, :lane.n], lane.timestamps, window_s
            )[0]
            # Scan correlation prefix-sums over the packed rows, so the
            # padding must stay zero.
            normalized[lane.slot, lane.n:] = 0.0

    def _detect_scan(
        self,
        lanes: List[_Lane],
        normalized: np.ndarray,
        times: np.ndarray,
        recording: bool,
    ) -> None:
        cfg = self.config
        scan_lanes: List[_Lane] = []
        candidates: List[np.ndarray] = []
        for lane in lanes:
            if not lane.live or lane.start_time_s is not None:
                continue
            try:
                candidates.append(self._scan_candidates(lane))
                scan_lanes.append(lane)
            except Exception as exc:
                lane.fail(exc)
        if not scan_lanes:
            return
        slots = [lane.slot for lane in scan_lanes]
        corr_per_lane = subchannel.correlation_matrix_batch(
            normalized[slots],
            times[slots],
            np.array([lane.n for lane in scan_lanes]),
            candidates,
            cfg.preamble_bits,
            np.array([lane.bit_duration_s for lane in scan_lanes]),
        )
        for lane, cand, corr_matrix in zip(
            scan_lanes, candidates, corr_per_lane
        ):
            scores = np.abs(corr_matrix).sum(axis=1)
            best = int(np.argmax(scores))
            best_score = float(scores[best])
            if best_score < cfg.min_detection_score:
                lane.fail(PreambleNotFound(
                    f"best correlation score {best_score:.3f} below "
                    f"threshold {cfg.min_detection_score:.3f}"
                ))
                continue
            lane.detection = subchannel.PreambleDetection(
                start_time_s=float(cand[best]),
                correlations=corr_matrix[best],
                score=best_score,
                threshold=cfg.min_detection_score,
            )
            self._record_detect(lane, "scan", recording)

    def _scan_candidates(self, lane: _Lane) -> np.ndarray:
        """Candidate frame starts, matching detect_preamble exactly."""
        cfg = self.config
        timestamps = lane.timestamps
        if lane.bit_duration_s <= 0:
            raise ConfigurationError("bit_duration_s must be positive")
        preamble_span = len(cfg.preamble_bits) * lane.bit_duration_s
        t_first, t_last = timestamps[0], timestamps[-1]
        if t_last - t_first < preamble_span:
            raise PreambleNotFound(
                f"stream spans {t_last - t_first:.3f} s, shorter than the "
                f"{preamble_span:.3f} s preamble"
            )
        step = cfg.search_step_fraction * lane.bit_duration_s
        return np.arange(t_first, t_last - preamble_span + step, step)

    def _record_detect(
        self, lane: _Lane, search: str, recording: bool
    ) -> None:
        if recording:
            lane.stages.append(("detect", dict(
                search=search,
                start_time_s=lane.detection.start_time_s,
                score=lane.detection.score,
                threshold=lane.detection.threshold,
                correlations=lane.detection.correlations,
            )))

    def _expected_chips(
        self, lanes: List[_Lane], times: np.ndarray
    ) -> np.ndarray:
        """Expected chip per packed sample for every live lane.

        One elementwise pass; gathered through the cached sentinel
        table.  Cell values match expected_chips_at exactly: the
        elementwise float ops see identical operands, and out-of-range
        samples (including the +inf padding) read the 0.0 sentinel.
        """
        cfg = self.config
        table = _chip_table(tuple(float(b) for b in cfg.preamble_bits))
        num_chips = len(table) - 1
        k_count = times.shape[0]
        starts = np.full(k_count, np.nan)
        bits = np.ones(k_count)
        for lane in lanes:
            if not lane.live:
                continue
            starts[lane.slot] = (
                lane.start_time_s if lane.start_time_s is not None
                else lane.detection.start_time_s
            )
            bits[lane.slot] = lane.bit_duration_s
        with np.errstate(invalid="ignore"):
            idx = np.floor((times - starts[:, None]) / bits[:, None])
            valid = (idx >= 0) & (idx < num_chips)
        gather = np.where(valid, idx, num_chips).astype(int)
        return table[gather]

    def _gather_preamble(
        self, lanes: List[_Lane], chips: np.ndarray, buf: Dict[str, np.ndarray]
    ) -> Optional[Dict[str, Any]]:
        """Gather each lane's preamble rows once, for corr + variance.

        The scalar pipeline gathers these rows twice (correlate_at and
        estimate_noise_variance); both consume the identical selection,
        so one gather serves both stages.  When every live lane selects
        the same number of preamble rows (the common case: one helper
        schedule shared across the batch), the gathers fuse into a
        single flat row gather and the per-row views land in one
        ``(lanes, rows, channels)`` block — returned so the correlation
        and variance reductions can batch over it (axis-1 reductions
        match the per-lane axis-0 ones bitwise).
        """
        live = [lane for lane in lanes if lane.live]
        if not live:
            return None
        normalized = buf["normalized"]
        k_count, n_max, channels = normalized.shape
        # Padding and dead-lane cells hold the 0.0 sentinel, so one
        # flat nonzero yields every live lane's in-preamble positions.
        mask = chips != 0
        counts = mask.sum(axis=1)
        live_counts = {int(counts[lane.slot]) for lane in live}
        if len(live_counts) != 1 or min(live_counts) == 0:
            for lane in live:
                lane_chips = chips[lane.slot, :lane.n]
                pos = np.nonzero(lane_chips != 0)[0]
                lane.sel_rows = lane.normalized[pos]
                lane.sel_chips = lane_chips[pos]
            return None
        m = live_counts.pop()
        flat_idx = np.flatnonzero(mask)
        sel = self._scratch_block("sel", (len(live), m, channels))
        _take_rows(normalized.reshape(-1, channels), flat_idx,
                   sel.reshape(-1, channels))
        sel_chips = chips.reshape(-1).take(flat_idx).reshape(
            len(live), m
        )
        for i, lane in enumerate(live):
            lane.sel_rows = sel[i]
            lane.sel_chips = sel_chips[i]
        return {"lanes": live, "sel": sel, "chips": sel_chips, "m": m}

    def _correlate_known(
        self,
        lanes: List[_Lane],
        channels: int,
        gathered: Optional[Dict[str, Any]],
        recording: bool,
    ) -> None:
        """correlate_at for known-timing lanes, on the gathered rows."""
        known = [
            lane for lane in lanes
            if lane.live and lane.start_time_s is not None
        ]
        if not known:
            return
        if gathered is not None and len(known) == len(gathered["lanes"]):
            # All live lanes share known timing and a uniform row
            # count: one batched multiply + axis-1 sum replaces the
            # per-lane correlate (identical summation order per lane).
            sel, sel_chips = gathered["sel"], gathered["chips"]
            prod = self._scratch_block("work", sel.shape)
            np.multiply(sel, sel_chips[:, :, None], out=prod)
            corr_all = np.add.reduce(prod, axis=1) / gathered["m"]
            gathered["corr"] = corr_all
            scores = np.abs(corr_all).sum(axis=1)
            for i, lane in enumerate(gathered["lanes"]):
                lane.detection = subchannel.PreambleDetection(
                    start_time_s=lane.start_time_s,
                    correlations=corr_all[i],
                    score=float(scores[i]),
                    threshold=0.0,
                )
                self._record_detect(lane, "known", recording)
            return
        for lane in known:
            if len(lane.sel_chips) == 0:
                corr = np.zeros(channels)
            else:
                # (sel * chips).mean(axis=0) via the exact _mean op
                # sequence (pairwise sum, then true_divide by count).
                prod = lane.sel_rows * lane.sel_chips[:, None]
                corr = np.add.reduce(prod, axis=0) / prod.shape[0]
            lane.detection = subchannel.PreambleDetection(
                start_time_s=lane.start_time_s,
                correlations=corr,
                score=float(np.abs(corr).sum()),
                threshold=0.0,
            )
            self._record_detect(lane, "known", recording)

    def _select_group(
        self,
        lanes: List[_Lane],
        gathered: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Top-``good_count`` selection, batched across the group.

        Every lane in a group shares the channel count and (because
        groups never mix CSI with RSSI mode) the ``good_count``, so one
        ``argpartition``/``argsort`` pass along ``axis=1`` serves all
        lanes — numpy runs the identical per-row algorithm the 1-D fast
        path uses.  Rows with |correlation| ties at the selection
        boundary fall back to the scalar selector, as in
        :func:`_select_good`.
        """
        cfg = self.config
        live = [lane for lane in lanes if lane.live]
        if not live:
            return
        count = 1 if live[0].mode == "rssi" else cfg.good_count
        channels = len(live[0].detection.correlations)
        if count >= channels or len(live) == 1:
            for lane in live:
                lane.good = _select_good(lane.detection.correlations, count)
            return
        if (
            gathered is not None and "corr" in gathered
            and len(gathered["lanes"]) == len(live)
            and all(a is b for a, b in zip(gathered["lanes"], live))
        ):
            # Each lane's correlations are views of this stack already.
            magnitude = np.abs(gathered["corr"])
        else:
            magnitude = np.abs(np.stack(
                [lane.detection.correlations for lane in live]
            ))
        part = np.argpartition(-magnitude, count, axis=1)
        top = part[:, :count]
        # Row-fancy gathers instead of take_along_axis: identical
        # values, none of the index-grid wrapper overhead.
        rows = _index_grid(len(live))[:, None]
        vals = magnitude[rows, top]
        order = np.argsort(-vals, axis=1)
        ranked = vals[rows, order]
        boundary = magnitude[rows[:, 0], part[:, count]]
        if count > 1:
            distinct = np.all(ranked[:, :-1] > ranked[:, 1:], axis=1)
        else:
            distinct = np.ones(len(live), dtype=bool)
        clean = distinct & (boundary < ranked[:, -1])
        for i, lane in enumerate(live):
            if clean[i]:
                lane.good = top[i][order[i]]
            else:
                lane.good = subchannel.select_good_subchannels(
                    lane.detection.correlations, count
                )

    def _combine_group(
        self,
        lanes: List[_Lane],
        buf: Dict[str, np.ndarray],
        uniform: bool,
        gathered: Optional[Dict[str, Any]],
        recording: bool,
    ) -> None:
        cfg = self.config
        self._select_group(lanes, gathered)
        if gathered is not None and gathered["m"] >= 2 and all(
            lane.live for lane in gathered["lanes"]
        ):
            # Uniform preamble-row count: the whole group's noise
            # variance batches as axis-1 reductions over the gathered
            # block (per-lane summation order unchanged).
            sel, sel_chips, m = (
                gathered["sel"], gathered["chips"], gathered["m"]
            )
            live = gathered["lanes"]
            corr_stack = gathered.get("corr")
            if corr_stack is None:
                corr_stack = np.stack(
                    [lane.detection.correlations for lane in live]
                )
            residual = self._scratch_block("work", sel.shape)
            np.multiply(sel_chips[:, :, None], corr_stack[:, None, :],
                        out=residual)
            np.subtract(sel, residual, out=residual)
            mean = np.add.reduce(residual, axis=1) / m
            np.subtract(residual, mean[:, None, :], out=residual)
            np.multiply(residual, residual, out=residual)
            var_all = np.maximum(
                np.add.reduce(residual, axis=1) / m, combining.MIN_VARIANCE
            )
            gathered["var"] = var_all
            for i, lane in enumerate(live):
                lane.variances = var_all[i]
        else:
            for lane in lanes:
                if not lane.live:
                    continue
                corr = lane.detection.correlations
                if len(lane.sel_chips) < 2:
                    lane.fail(ConfigurationError(
                        "need at least 2 preamble packets to estimate "
                        "noise variance"
                    ))
                    continue
                # residual.var(axis=0), spelled as the op sequence
                # numpy's _var runs (sum/divide/subtract/multiply/sum)
                # — the method wrapper costs ~20us per call at
                # preamble shapes.
                residual = lane.sel_rows - lane.sel_chips[:, None] * corr
                m = residual.shape[0]
                mean = np.add.reduce(residual, axis=0) / m
                np.subtract(residual, mean, out=residual)
                np.multiply(residual, residual, out=residual)
                lane.variances = np.maximum(
                    np.add.reduce(residual, axis=0) / m,
                    combining.MIN_VARIANCE,
                )
        live = [lane for lane in lanes if lane.live]
        if not live:
            return
        good_counts = {len(lane.good) for lane in live}
        if len(good_counts) == 1:
            # Elementwise weight math batched over (lanes, selected):
            # identical per row to make_weights on the same indices.
            stacked = (
                gathered is not None
                and "corr" in gathered and "var" in gathered
                and len(gathered["lanes"]) == len(live)
                and all(a is b for a, b in zip(gathered["lanes"], live))
            )
            good_all = np.stack([lane.good for lane in live])
            if stacked:
                rows = _index_grid(len(live))[:, None]
                corr_sel = gathered["corr"][rows, good_all]
                var_sel = gathered["var"][rows, good_all]
            else:
                corr_sel = np.stack([
                    lane.detection.correlations[lane.good] for lane in live
                ])
                var_sel = np.stack([
                    lane.variances[lane.good] for lane in live
                ])
            signs = np.sign(corr_sel)
            signs[signs == 0] = 1.0
            weights_all = signs / np.maximum(var_sel, combining.MIN_VARIANCE)
            unit_all = weights_all / np.abs(weights_all).sum(axis=1)[:, None]
            for i, lane in enumerate(live):
                lane.weights = combining.CombinerWeights(
                    channel_indices=lane.good, weights=weights_all[i]
                )
                # The column pick must stay the scalar path's exact
                # fancy-index copy: BLAS selects kernels by buffer
                # alignment, so a take_along_axis block view produces
                # ULP-different matvec results.
                lane.combined = lane.normalized[:, lane.good] @ unit_all[i]
        else:
            for lane in live:
                lane.weights = combining.make_weights(
                    lane.detection.correlations, lane.variances, lane.good
                )
                lane.combined = combining.combine(
                    lane.normalized, lane.weights
                )
        cmb = buf["combined"]
        filled = np.zeros(cmb.shape[0], dtype=bool)
        for lane in live:
            cmb[lane.slot, :lane.n] = lane.combined
            cmb[lane.slot, lane.n:] = 0.0
            filled[lane.slot] = True
        cmb[~filled] = 0.0
        if uniform:
            # Threshold mean/std batch bit-exactly: each row is
            # contiguous with the same length the scalar 1-D call sees.
            mu = cmb.mean(axis=1)
            sigma = cmb.std(axis=1)
            low = mu - cfg.hysteresis_width * sigma
            high = mu + cfg.hysteresis_width * sigma
            for lane in live:
                try:
                    lane.thresholds = slicer.HysteresisThresholds(
                        low=float(low[lane.slot]),
                        high=float(high[lane.slot]),
                    )
                except Exception as exc:
                    lane.fail(exc)
        else:
            for lane in live:
                try:
                    lane.thresholds = slicer.compute_thresholds(
                        lane.combined, cfg.hysteresis_width
                    )
                except Exception as exc:
                    lane.fail(exc)
        if recording:
            for lane in live:
                if not lane.live:
                    continue
                lane.stages.append(("select", subchannel.selection_diagnostics(
                    lane.detection.correlations, lane.good
                )))
                lane.stages.append(("combine", dict(
                    noise_variances=lane.variances[lane.good],
                    **combining.weight_diagnostics(lane.weights),
                )))

    def _hysteresis(
        self, lanes: List[_Lane], buf: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """hysteresis_slice for every lane at once (initial state 0).

        Padding and dead lanes compare against NaN thresholds, so they
        never clear one and decide 0.
        """
        combined = buf["combined"]
        k_count = combined.shape[0]
        low = np.full(k_count, np.nan)
        high = np.full(k_count, np.nan)
        for lane in lanes:
            if lane.live:
                low[lane.slot] = lane.thresholds.low
                high[lane.slot] = lane.thresholds.high
        return slicer._forward_fill(
            combined > high[:, None], combined < low[:, None]
        )

    def _majority_vote(
        self,
        lanes: List[_Lane],
        decisions: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """majority_vote_bits for every live lane with one vote pass.

        Each lane's bins get their own block of ``nb_max`` slots in one
        flat bit index, so a single majority pass covers the group.
        """
        live = [lane for lane in lanes if lane.live]
        if not live:
            return
        k_count = times.shape[0]
        starts = np.full(k_count, np.nan)
        bits_d = np.ones(k_count)
        nbits = np.zeros(k_count, dtype=int)
        for lane in live:
            starts[lane.slot] = lane.data_start
            bits_d[lane.slot] = lane.bit_duration_s
            nbits[lane.slot] = lane.num_bits
        nb_max = int(nbits.max())
        with np.errstate(invalid="ignore"):
            bin_idx = np.floor((times - starts[:, None]) / bits_d[:, None])
            valid = (bin_idx >= 0) & (bin_idx < nbits[:, None])
        rows = np.nonzero(valid)
        flat = rows[0] * nb_max + bin_idx[rows].astype(np.intp)
        bit_out, support, _ = slicer._majority(
            flat, decisions[rows], k_count * nb_max
        )
        bit_out = bit_out.reshape(k_count, nb_max)
        support = support.reshape(k_count, nb_max)
        for lane in live:
            nb = lane.num_bits
            support_k = support[lane.slot, :nb]
            lane.sliced = slicer.SlicedBits(
                bits=bit_out[lane.slot, :nb],
                support=support_k,
                erasures=np.flatnonzero(support_k == 0),
            )

    # -- epilogue -------------------------------------------------------------

    def _finalize_obs(self, lanes: Sequence[_Lane]) -> None:
        successes = sum(1 for lane in lanes if lane.live)
        if successes:
            obs.counter("uplink.decodes").inc(successes)
        for lane in lanes:
            if lane.repaired:
                obs.counter("uplink.nonfinite.repaired").inc(lane.repaired)

    def _replay_forensics(self, lane: _Lane) -> None:
        """Replay the lane's stage records as the scalar decode would.

        The scalar pipeline stages into a record as it computes; the
        batch pipeline computes first and replays after, which yields
        byte-identical records (same stages, same fields, same failure
        attribution) because ``ensure_record`` commits the failure from
        the in-flight exception type.
        """
        if lane.pre_record:
            return
        try:
            with forensics.ensure_record("uplink"):
                for name, fields in lane.stages:
                    forensics.stage(name, **fields)
                if lane.error is not None:
                    raise lane.error
        except Exception:
            pass

    def _outcome(self, lane: _Lane) -> BatchOutcome:
        if lane.error is not None:
            return BatchOutcome(error=lane.error)
        detection = lane.detection
        frame_lo, frame_hi = lane.timestamps.searchsorted(
            [detection.start_time_s, lane.last_needed]
        )
        return BatchOutcome(result=UplinkDecodeResult(
            bits=lane.sliced.bits,
            detection=detection,
            weights=lane.weights,
            combined=lane.combined,
            sliced=lane.sliced,
            mode=lane.mode,
            fallback_from=(
                lane.requested_mode if lane.mode != lane.requested_mode
                else None
            ),
            repaired_values=lane.repaired,
            frame_slice=(int(frame_lo), int(frame_hi)),
        ))
