"""Exact oracles for the array-native §3.2 decode kernels.

Each kernel is compared, with exact equality, against the per-packet or
per-bit loop it replaced.  The loops live here only, as references.
"""

import numpy as np
import pytest

from repro.core import conditioning, slicer
from repro.core.conditioning import _prefix_sum
from repro.core.slicer import HysteresisThresholds
from repro.errors import DecodeError
from repro.faults.spec import parse_fault_spec
from repro.measurement import ChannelMeasurement
from repro.sim import link

#: The fault plan of the ``fault_sweep`` benchmark workload.
FAULT_SWEEP_SPEC = ("outage:duty=0.1,burst=0.3;"
                    "csi_dropout:duty=0.2,burst=0.2,frac=0.5;"
                    "nan:prob=0.01;agc_jump:prob=0.02")


# -- reference loops ----------------------------------------------------------

def ref_hysteresis(values, thresholds, initial=0):
    out = np.empty(len(values), dtype=int)
    state = initial
    for i, v in enumerate(np.asarray(values, dtype=float)):
        if v > thresholds.high:
            state = 1
        elif v < thresholds.low:
            state = 0
        out[i] = state
    return out


def ref_bins(timestamps, start, bit, num_bits):
    idx = np.floor((np.asarray(timestamps, dtype=float) - start) / bit)
    idx = idx.astype(int)
    return [np.nonzero(idx == k)[0] for k in range(num_bits)]


def ref_majority(decisions, timestamps, start, bit, num_bits,
                 erasure_value=0, min_support=1, strict=False):
    decisions = np.asarray(decisions, dtype=int)
    bits = np.empty(num_bits, dtype=int)
    support = np.empty(num_bits, dtype=int)
    erasures = []
    for k, indices in enumerate(ref_bins(timestamps, start, bit, num_bits)):
        support[k] = len(indices)
        if len(indices) < min_support:
            erasures.append(k)
            bits[k] = erasure_value
            continue
        ones = int(decisions[indices].sum())
        bits[k] = 1 if 2 * ones >= len(indices) else 0
    if erasures and strict:
        raise DecodeError(
            f"{len(erasures)} bit(s) saw fewer than {min_support} "
            f"measurement(s): {erasures[:10]}"
        )
    return bits, support, np.asarray(erasures, dtype=int)


def ref_margins(combined, thresholds, timestamps, start, bit, num_bits):
    mid = 0.5 * (thresholds.low + thresholds.high)
    per_sample = np.where(combined >= mid, combined - thresholds.high,
                          thresholds.low - combined)
    out = np.full(num_bits, np.nan)
    for k, indices in enumerate(ref_bins(timestamps, start, bit, num_bits)):
        if len(indices):
            out[k] = float(per_sample[indices].mean())
    return out


def ref_soft(combined, timestamps, start, bit, num_bits, erasure_value=0):
    bits = np.empty(num_bits, dtype=int)
    support = np.empty(num_bits, dtype=int)
    erasures = []
    for k, indices in enumerate(ref_bins(timestamps, start, bit, num_bits)):
        support[k] = len(indices)
        if len(indices) == 0:
            erasures.append(k)
            bits[k] = erasure_value
            continue
        bits[k] = 1 if combined[indices].mean() >= 0 else 0
    return bits, support, np.asarray(erasures, dtype=int)


def ref_condition(values, timestamps, window_s):
    """The conditioning arithmetic with a vstacked prefix copy."""
    half = window_s / 2.0
    lo = np.searchsorted(timestamps, timestamps - half, side="left")
    hi = np.searchsorted(timestamps, timestamps + half, side="right")
    csum = np.vstack([np.zeros((1, values.shape[1])),
                      np.cumsum(values, axis=0)])
    baseline = (csum[hi] - csum[lo]) / (hi - lo).astype(float)[:, None]
    zero_mean = values - baseline
    scale = np.abs(zero_mean).mean(axis=0)
    return baseline, zero_mean / np.where(scale > 0, scale, 1.0), scale


def ref_sanitize(values):
    """The repair policy's per-column ``np.median`` loop."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    repaired = values.copy()
    if repaired.ndim == 1:
        repaired = repaired[:, None]
        bad = bad[:, None]
    for col in np.nonzero(bad.any(axis=0))[0]:
        finite = repaired[~bad[:, col], col]
        fill = float(np.median(finite)) if finite.size else 0.0
        repaired[bad[:, col], col] = fill
    return repaired.reshape(values.shape), int(bad.sum())


def same_bits(a, b):
    """Equal values and dtypes, NaN matching NaN and -0.0 only -0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            and np.array_equal(np.signbit(a), np.signbit(b)))


# -- hysteresis ---------------------------------------------------------------

TH = HysteresisThresholds(low=-0.5, high=0.5)


class TestHysteresisOracle:
    @pytest.mark.parametrize("values", [
        [np.nan, 1.0, np.nan, -1.0, np.nan],
        [0.5, -0.5, 0.5, 1.0, 0.5, -0.5, -1.0, -0.5],
        [0.0, 0.2, -0.3, 0.49, -0.49],
        [],
        [np.inf, -np.inf, np.nan, 0.0],
    ], ids=["nan", "at-thresholds", "all-dead-band", "empty", "inf"])
    @pytest.mark.parametrize("initial", [0, 1])
    def test_edge_cases(self, values, initial):
        values = np.array(values, dtype=float)
        expected = ref_hysteresis(values, TH, initial)
        got = slicer.hysteresis_slice(values, TH, initial)
        assert same_bits(got, expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=int(rng.integers(1, 3000)))
        values[rng.random(len(values)) < 0.05] = np.nan
        low = float(rng.normal(scale=0.5))
        th = HysteresisThresholds(low=low, high=low + float(rng.random()))
        initial = int(rng.integers(0, 2))
        assert same_bits(slicer.hysteresis_slice(values, th, initial),
                         ref_hysteresis(values, th, initial))

    def test_equal_thresholds(self):
        th = HysteresisThresholds(low=0.0, high=0.0)
        values = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
        assert same_bits(slicer.hysteresis_slice(values, th, 1),
                         ref_hysteresis(values, th, 1))

    def test_rows_match_one_row_at_a_time(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 200))
        rows = slicer._forward_fill(values > 0.4, values < -0.4)
        for row, value_row in zip(rows, values):
            th = HysteresisThresholds(low=-0.4, high=0.4)
            assert same_bits(row, ref_hysteresis(value_row, th))


# -- binning, majority vote, margins, soft average ----------------------------

def binning_cases():
    rng = np.random.default_rng(11)
    sorted_times = np.sort(rng.uniform(-0.05, 0.3, 800))
    unsorted = rng.permutation(sorted_times)
    sparse = np.array([0.001, 0.002, 0.035, 0.036, 0.071, 0.5, -0.2])
    # Bits with 0, 1 and uneven packet counts, on both sides of the
    # pairwise sum's 8-wide unrolling and of its 128-element blocks.
    counts = [0, 1, 2, 7, 8, 9, 16, 0, 127, 128, 129, 1, 255, 256, 257,
              300, 3, 0, 1, 64, 65, 5, 0, 33, 1]
    uneven = np.concatenate([
        0.01 * (k + np.sort(rng.uniform(0.0, 1.0, n)))
        for k, n in enumerate(counts)
    ])
    return {
        "sorted": sorted_times,
        "unsorted": unsorted,
        "empty-bins": sparse,
        "no-packets": np.array([]),
        "all-outside": np.array([-1.0, 5.0, 6.0]),
        "uneven": uneven,
        "uneven-unsorted": rng.permutation(uneven),
    }


CASES = binning_cases()
START, BIT, NUM_BITS = 0.0, 0.01, 25


class TestBinningOracle:
    @pytest.mark.parametrize("name", list(CASES))
    def test_bins(self, name):
        times = CASES[name]
        got = slicer.bin_by_timestamp(times, START, BIT, NUM_BITS)
        expected = ref_bins(times, START, BIT, NUM_BITS)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert same_bits(g, e)

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("min_support,erasure_value", [(1, 0), (3, 1),
                                                          (0, 0)])
    def test_majority(self, name, min_support, erasure_value):
        times = CASES[name]
        rng = np.random.default_rng(len(times))
        decisions = rng.integers(0, 2, len(times))
        got = slicer.majority_vote_bits(
            decisions, times, START, BIT, NUM_BITS,
            erasure_value=erasure_value, min_support=min_support,
        )
        bits, support, erasures = ref_majority(
            decisions, times, START, BIT, NUM_BITS,
            erasure_value=erasure_value, min_support=min_support,
        )
        assert same_bits(got.bits, bits)
        assert same_bits(got.support, support)
        assert same_bits(got.erasures, erasures)

    @pytest.mark.parametrize("min_support", [1, 4])
    def test_strict_raises_the_same_error(self, min_support):
        times = CASES["empty-bins"]
        decisions = np.ones(len(times), dtype=int)
        with pytest.raises(DecodeError) as expected:
            ref_majority(decisions, times, START, BIT, NUM_BITS,
                         min_support=min_support, strict=True)
        with pytest.raises(DecodeError) as got:
            slicer.majority_vote_bits(decisions, times, START, BIT, NUM_BITS,
                                      min_support=min_support, strict=True)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("name", list(CASES))
    def test_margins_and_soft_average(self, name):
        times = CASES[name]
        rng = np.random.default_rng(7)
        combined = rng.normal(size=len(times))
        th = HysteresisThresholds(low=-0.3, high=0.2)
        assert same_bits(
            slicer.margin_profile(combined, th, times, START, BIT, NUM_BITS),
            ref_margins(combined, th, times, START, BIT, NUM_BITS),
        )
        got = slicer.soft_average_bits(combined, times, START, BIT, NUM_BITS,
                                       erasure_value=1)
        bits, support, erasures = ref_soft(combined, times, START, BIT,
                                           NUM_BITS, erasure_value=1)
        assert same_bits(got.bits, bits)
        assert same_bits(got.support, support)
        assert same_bits(got.erasures, erasures)

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_margins_and_soft_average_with_nan_samples(self, name, seed):
        """Samples over twelve decades (so the summation order shows in
        the last bit) with NaN, +-inf and -0.0 cells."""
        times = CASES[name]
        combined = awkward(len(times), seed)
        th = HysteresisThresholds(low=-0.3, high=0.2)
        with np.errstate(invalid="ignore"):  # inf - inf in a bit's sum
            assert same_bits(
                slicer.margin_profile(combined, th, times, START, BIT,
                                      NUM_BITS),
                ref_margins(combined, th, times, START, BIT, NUM_BITS),
            )
            got = slicer.soft_average_bits(combined, times, START, BIT,
                                           NUM_BITS)
            bits, support, erasures = ref_soft(combined, times, START, BIT,
                                               NUM_BITS)
        assert same_bits(got.bits, bits)
        assert same_bits(got.support, support)
        assert same_bits(got.erasures, erasures)


# -- prefix sums and conditioning ---------------------------------------------

def awkward(shape, seed):
    """Random cells with NaN, +-inf and -0.0 sprinkled in."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
    flat = values.reshape(-1)
    for special, stride in ((np.nan, 17), (np.inf, 23), (-np.inf, 29),
                            (-0.0, 5)):
        flat[int(rng.integers(0, 5))::stride] = special
    return values


class TestPrefixSum:
    @pytest.mark.parametrize("shape", [(500, 90), (500, 3), (4, 300, 90),
                                       (4, 300, 3), (7, 1), (0, 90)])
    def test_matches_cumsum(self, shape):
        values = awkward(shape, sum(shape))
        out = np.empty(shape)
        with np.errstate(invalid="ignore"):
            _prefix_sum(values, out)
            expected = np.cumsum(values, axis=-2)
        assert same_bits(out, expected)

    @pytest.mark.parametrize("channels", [90, 3])
    def test_non_contiguous_input(self, channels):
        base = awkward((400, 2 * channels), channels)
        values = base[::2, ::2]
        prefix = np.full((201, channels), 7.0)
        with np.errstate(invalid="ignore"):
            _prefix_sum(values, prefix[1:])
            expected = np.cumsum(values, axis=0)
        assert same_bits(prefix[1:], expected)
        assert (prefix[0] == 7.0).all()


class TestConditioningOracle:
    @pytest.mark.parametrize("channels", [90, 3, 1])
    @pytest.mark.parametrize("packets", [1, 50, 3000])
    def test_matches_vstack_arithmetic(self, channels, packets):
        rng = np.random.default_rng(packets + channels)
        times = np.sort(rng.uniform(0.0, 2.0, packets))
        values = rng.normal(8.0, 1.0, size=(packets, channels))
        values[:, 0] = 5.0  # a flat channel takes the zero-scale guard
        baseline, normalized, scale = ref_condition(values, times, 0.4)
        assert same_bits(
            conditioning.moving_average_by_time(values, times, 0.4), baseline
        )
        cond = conditioning.condition(values, times, 0.4)
        assert same_bits(cond.normalized, normalized)
        assert same_bits(cond.scale, scale)

    def test_nan_propagates_as_before(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0.0, 1.0, 400))
        values = rng.normal(size=(400, 6))
        values[100, 2] = np.nan
        with np.errstate(invalid="ignore"):
            _, normalized, scale = ref_condition(values, times, 0.4)
            cond = conditioning.condition(values, times, 0.4,
                                          nonfinite="propagate")
        assert same_bits(cond.normalized, normalized)
        assert same_bits(cond.scale, scale)
        # Propagating repairs no cell, whatever the matrix holds.
        assert cond.repaired == 0


class TestSanitizeOracle:
    @pytest.mark.parametrize("column", [
        [np.nan, 1.0, 2.0, 3.0],              # odd finite count
        [np.nan, 1.0, 2.0, 3.0, 4.0],         # even finite count
        [np.inf, -np.inf, 5.0, -2.0],         # +-inf are repaired too
        [np.nan, -0.0, 1.0, -1.0],            # a -0.0 median
        [np.nan, -0.0, -0.0],                 # an even pair of -0.0
        [np.nan, 0.0, -0.0, 0.0, np.inf],     # zeros of both signs
        [np.nan, np.inf, -np.inf],            # an all-bad column
        [np.nan],
        [1e308, 1.7e308, np.nan],             # the mean of the middle pair
    ])
    def test_edge_columns(self, column):
        """Each column alone (1-D), and beside a clean column (2-D)."""
        column = np.array(column)
        for values in (column, np.stack([column, np.arange(len(column))], 1),
                       np.stack([np.arange(len(column)), column], 1)):
            with np.errstate(over="ignore"):
                got = conditioning.sanitize(values, "repair")
                expected = ref_sanitize(values)
            assert same_bits(got[0], expected[0])
            assert got[1] == expected[1]

    @pytest.mark.parametrize("shape", [(500, 90), (301, 3), (1, 5), (40,)])
    def test_awkward_matrices(self, shape):
        values = awkward(shape, 7 + sum(shape))
        got = conditioning.sanitize(values, "repair")
        expected = ref_sanitize(values)
        assert same_bits(got[0], expected[0])
        assert got[1] == expected[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_fault_sweep_streams(self, seed):
        for mode in ("csi", "rssi"):
            stream = faulted_stream(seed)
            values = (stream.flattened_csi() if mode == "csi"
                      else stream.rssi_matrix())
            got = conditioning.sanitize(values, "repair")
            assert same_bits(got[0], ref_sanitize(values)[0])


# -- finite counts ------------------------------------------------------------

def direct_counts(stream, mode):
    matrix = stream.flattened_csi() if mode == "csi" else stream.rssi_matrix()
    finite = np.isfinite(matrix)
    return finite.mean(axis=0), int((~finite).sum())


def faulted_stream(seed):
    _, stream, _ = link.synthesize_uplink_trial(
        0.3, 10.0, num_payload_bits=90, rng=np.random.default_rng(seed),
        faults=parse_fault_spec(FAULT_SWEEP_SPEC, base_seed=seed),
    )
    return stream


class TestFiniteCounts:
    @pytest.mark.parametrize("seed", range(3))
    def test_fault_sweep_stream_then_growth(self, seed):
        stream = faulted_stream(seed)
        assert direct_counts(stream, "csi")[1] > 0
        for mode in ("csi", "rssi"):
            fraction, cells = direct_counts(stream, mode)
            assert same_bits(stream.finite_column_fraction(mode), fraction)
            assert stream.nonfinite_cells(mode) == cells
        last = float(stream.timestamps[-1])
        csi = np.full(stream.csi_matrix().shape[1:], 8.0)
        csi[1, 4] = np.inf
        rssi = np.array([-40.0, np.nan, -41.0])
        stream.append(ChannelMeasurement(last + 0.001, csi, rssi))
        stream.append(ChannelMeasurement(last + 0.002, csi * 0.5,
                                         np.array([-40.0, -41.0, -42.0])))
        for mode in ("csi", "rssi"):
            fraction, cells = direct_counts(stream, mode)
            assert same_bits(stream.finite_column_fraction(mode), fraction)
            assert stream.nonfinite_cells(mode) == cells

    def test_clean_stream(self):
        _, stream, _ = link.synthesize_uplink_trial(
            0.3, 10.0, num_payload_bits=16, rng=np.random.default_rng(1)
        )
        for mode in ("csi", "rssi"):
            fraction, cells = direct_counts(stream, mode)
            assert cells == 0
            assert same_bits(stream.finite_column_fraction(mode), fraction)
            assert stream.nonfinite_cells(mode) == 0
