"""Vectorized decode hot paths vs their kept reference implementations.

The vectorized preamble search (prefix sums + ``searchsorted`` at chip
boundaries) and the vectorized per-chip means must match the legacy
per-offset / per-chip Python loops, which live in this module purely
as equivalence oracles (``_reference_*``).
"""

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.barker import barker_bits, bits_to_chips
from repro.core.coding import make_code_pair
from repro.core.correlation_decoder import CorrelationDecoder
from repro.core.subchannel import (
    PreambleDetection,
    correlate_at,
    correlation_matrix,
    detect_preamble,
)
from repro.errors import ConfigurationError, PreambleNotFound

BIT_S = 0.01
PREAMBLE = barker_bits()


def _reference_detect_preamble(
    normalized: np.ndarray,
    timestamps_s: np.ndarray,
    preamble_bits: Sequence[int],
    bit_duration_s: float,
    search_step_s: Optional[float] = None,
    min_score: float = 0.0,
) -> PreambleDetection:
    """Pre-vectorization per-offset search, kept as the equivalence
    oracle for :func:`detect_preamble` (tests only — O(candidates)
    Python-loop iterations of :func:`correlate_at`)."""
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
    best_score = -np.inf
    best_start = candidates[0]
    best_corr: Optional[np.ndarray] = None
    for t0 in candidates:
        corr = correlate_at(
            normalized, timestamps, t0, preamble_bits, bit_duration_s
        )
        score = float(np.abs(corr).sum())
        if score > best_score:
            best_score = score
            best_start = float(t0)
            best_corr = corr
    assert best_corr is not None
    if best_score < min_score:
        raise PreambleNotFound(
            f"best correlation score {best_score:.3f} below threshold "
            f"{min_score:.3f}"
        )
    return PreambleDetection(
        start_time_s=best_start,
        correlations=best_corr,
        score=best_score,
        threshold=min_score,
    )


def _reference_chip_means(
    normalized: np.ndarray,
    timestamps_s: np.ndarray,
    start_time_s: float,
    chip_duration_s: float,
    num_chips: int,
) -> np.ndarray:
    """Pre-vectorization per-chip loop, kept as the equivalence
    oracle for :meth:`_chip_means` (tests only)."""
    idx = np.floor((timestamps_s - start_time_s) / chip_duration_s).astype(int)
    out = np.zeros((num_chips, normalized.shape[1]))
    for k in range(num_chips):
        sel = idx == k
        if np.any(sel):
            out[k] = normalized[sel].mean(axis=0)
    return out


def _noise_stream(num_packets, channels, seed, span_s=1.0):
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0.0, span_s, num_packets))
    normalized = rng.normal(size=(num_packets, channels))
    return normalized, timestamps


def _preamble_stream(num_packets, channels, seed, start_s=0.31, span_s=1.0):
    """Noise stream with the preamble waveform injected at ``start_s``."""
    normalized, timestamps = _noise_stream(num_packets, channels, seed, span_s)
    chips = bits_to_chips(PREAMBLE)
    idx = np.floor((timestamps - start_s) / BIT_S).astype(int)
    valid = (idx >= 0) & (idx < len(chips))
    normalized[valid] += 4.0 * chips[idx[valid]][:, None]
    return normalized, timestamps


class TestCorrelationMatrixEquivalence:
    def test_rows_match_correlate_at(self):
        normalized, timestamps = _noise_stream(600, 6, seed=1)
        starts = np.arange(0.0, 0.8, 0.013)
        matrix = correlation_matrix(
            normalized, timestamps, starts, PREAMBLE, BIT_S
        )
        for row, t0 in zip(matrix, starts):
            expected = correlate_at(
                normalized, timestamps, t0, PREAMBLE, BIT_S
            )
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    def test_out_of_stream_candidates_are_zero_rows(self):
        normalized, timestamps = _noise_stream(200, 3, seed=2)
        starts = np.array([-5.0, 10.0])
        matrix = correlation_matrix(
            normalized, timestamps, starts, PREAMBLE, BIT_S
        )
        assert not matrix.any()


class TestDetectPreambleEquivalence:
    def test_matches_reference_on_noise(self):
        normalized, timestamps = _noise_stream(700, 8, seed=3)
        fast = detect_preamble(normalized, timestamps, PREAMBLE, BIT_S)
        slow = _reference_detect_preamble(
            normalized, timestamps, PREAMBLE, BIT_S
        )
        assert fast.start_time_s == slow.start_time_s
        np.testing.assert_allclose(fast.score, slow.score, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            fast.correlations, slow.correlations, rtol=0, atol=1e-12
        )

    def test_matches_reference_on_embedded_preamble(self):
        normalized, timestamps = _preamble_stream(900, 8, seed=4)
        fast = detect_preamble(normalized, timestamps, PREAMBLE, BIT_S)
        slow = _reference_detect_preamble(
            normalized, timestamps, PREAMBLE, BIT_S
        )
        assert fast.start_time_s == slow.start_time_s
        # The injected preamble starts at 0.31 s; the quarter-bit grid
        # must land within a bit of it.
        assert abs(fast.start_time_s - 0.31) < BIT_S

    def test_chunked_search_spans_chunk_boundary(self):
        # More candidates than SEARCH_CHUNK exercises the block loop.
        normalized, timestamps = _preamble_stream(
            1200, 4, seed=5, span_s=2.0, start_s=1.4
        )
        fast = detect_preamble(
            normalized, timestamps, PREAMBLE, BIT_S,
            search_step_s=BIT_S / 8.0,
        )
        slow = _reference_detect_preamble(
            normalized, timestamps, PREAMBLE, BIT_S,
            search_step_s=BIT_S / 8.0,
        )
        assert fast.start_time_s == slow.start_time_s


class TestChipMeansEquivalence:
    def test_matches_reference(self):
        decoder = CorrelationDecoder(make_code_pair(8))
        rng = np.random.default_rng(6)
        timestamps = np.sort(rng.uniform(0.0, 0.5, 400))
        normalized = rng.normal(size=(400, 5))
        fast = decoder._chip_means(normalized, timestamps, 0.05, 0.002, 64)
        slow = _reference_chip_means(
            normalized, timestamps, 0.05, 0.002, 64
        )
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_empty_chips_are_zero(self):
        decoder = CorrelationDecoder(make_code_pair(8))
        timestamps = np.array([0.0011])
        normalized = np.array([[3.0, -2.0]])
        out = decoder._chip_means(normalized, timestamps, 0.0, 0.001, 4)
        assert out[1].tolist() == [3.0, -2.0]
        assert not out[[0, 2, 3]].any()


class TestPreambleSearchMicroBench:
    def test_vectorized_search_is_faster(self):
        """Acceptance: preamble-search self-time down >= 5x vs the old
        per-offset loop; gate at 3x to keep CI jitter out of the
        signal (typical measured speedup is >10x)."""
        normalized, timestamps = _preamble_stream(
            3000, 30, seed=7, span_s=3.0, start_s=1.1
        )

        def best_of(fn, rounds=3):
            best = float("inf")
            for _ in range(rounds):
                t0 = time.perf_counter()
                fn(normalized, timestamps, PREAMBLE, BIT_S)
                best = min(best, time.perf_counter() - t0)
            return best

        fast = best_of(detect_preamble)
        slow = best_of(_reference_detect_preamble)
        assert slow / fast >= 3.0, (
            f"vectorized search only {slow / fast:.1f}x faster "
            f"({slow * 1e3:.1f} ms -> {fast * 1e3:.1f} ms)"
        )
