"""Property-based tests: fleet sketch merge laws + registry conservation.

The fleet layer leans on three algebraic promises that unit vectors
cannot sweep: quantile estimates stay within alpha of the true order
statistic for *any* input, merging sketches is a commutative monoid
(up to float-sum association in the scalar total), and the health
registry conserves admissions under arbitrary fold/evict interleaving.
Hypothesis walks the input space so the promises hold everywhere.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.fleet.health import TagHealthRegistry
from repro.obs.fleet.sketch import (
    MIN_TRACKED_VALUE,
    QuantileSketch,
    SpaceSavingSketch,
)

# Magnitudes comfortably above the zero threshold and below overflow,
# of either sign, so the geometric bucket rule of both stores (not the
# zero counter) is always on trial.
magnitudes = st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False)
values = st.one_of(magnitudes, magnitudes.map(lambda v: -v))
value_lists = st.lists(values, min_size=1, max_size=60)
alphas = st.floats(0.002, 0.2)
quantiles = st.floats(0.0, 1.0)

hh_keys = st.integers(0, 12)
hh_streams = st.lists(hh_keys, min_size=0, max_size=80)


def _sketch(vals, alpha=0.01):
    sketch = QuantileSketch("p", alpha=alpha)
    sketch.observe_many(vals)
    return sketch


def _structural(payload):
    """Payload minus the float-association-sensitive running total."""
    out = dict(payload)
    out.pop("total")
    return out


class TestQuantileAccuracy:
    @given(value_lists, alphas, quantiles)
    @settings(max_examples=150)
    def test_relative_error_bounded_by_alpha(self, vals, alpha, q):
        sketch = _sketch(vals, alpha=alpha)
        est = sketch.quantile(q)
        ordered = sorted(vals)
        rank = max(0, int(math.ceil(q * len(ordered))) - 1)
        truth = ordered[rank]
        assert abs(est - truth) <= alpha * abs(truth) + 1e-9

    @given(value_lists)
    def test_count_min_max_are_exact(self, vals):
        sketch = _sketch(vals)
        assert sketch.count == len(vals)
        assert sketch.min == min(vals)
        assert sketch.max == max(vals)

    @given(st.lists(st.just(0.0), min_size=1, max_size=10), value_lists)
    def test_zeros_are_exact(self, zeros, vals):
        sketch = _sketch(zeros + vals)
        assert sketch.zero_count == len(zeros)
        # The first rank past the negatives lands in the zero region.
        negatives = sum(v < 0 for v in vals)
        assert sketch.quantile((negatives + 0.5) / sketch.count) == 0.0


class TestQuantileMergeLaws:
    @given(value_lists, value_lists)
    def test_commutative(self, xs, ys):
        ab = _sketch(xs)
        ab.merge(_sketch(ys))
        ba = _sketch(ys)
        ba.merge(_sketch(xs))
        assert _structural(ab.to_payload()) == _structural(ba.to_payload())
        assert ab.total == pytest.approx(ba.total)

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=60)
    def test_associative(self, xs, ys, zs):
        left = _sketch(xs)
        left.merge(_sketch(ys))
        left.merge(_sketch(zs))
        bc = _sketch(ys)
        bc.merge(_sketch(zs))
        right = _sketch(xs)
        right.merge(bc)
        assert _structural(left.to_payload()) == \
            _structural(right.to_payload())

    @given(value_lists)
    def test_empty_is_identity(self, xs):
        sketch = _sketch(xs)
        before = sketch.to_payload()
        sketch.merge(QuantileSketch("p"))
        assert sketch.to_payload() == before
        empty = QuantileSketch("p")
        empty.merge_payload(before)
        assert empty.to_payload() == before


class TestHeavyHitters:
    @given(hh_streams, st.integers(1, 6))
    @settings(max_examples=150)
    def test_overestimate_invariant(self, stream, capacity):
        sketch = SpaceSavingSketch("p", capacity=capacity)
        truth = {}
        for key in stream:
            truth[str(key)] = truth.get(str(key), 0) + 1
            sketch.offer(key)
        for entry in sketch.top():
            true_count = truth.get(entry["key"], 0)
            assert entry["count"] >= true_count
            assert entry["count"] - entry["error"] <= true_count

    @given(hh_streams, st.integers(1, 6))
    @settings(max_examples=150)
    def test_heavy_keys_always_tracked(self, stream, capacity):
        sketch = SpaceSavingSketch("p", capacity=capacity)
        truth = {}
        for key in stream:
            truth[str(key)] = truth.get(str(key), 0) + 1
            sketch.offer(key)
        threshold = len(stream) / capacity
        for key, count in truth.items():
            if count > threshold:
                assert sketch.estimate(key) >= count

    @given(hh_streams, hh_streams)
    def test_under_capacity_merge_is_exact_union_sum(self, xs, ys):
        # Capacity above the whole key universe: merge must be the
        # plain union-sum, and therefore commutative.
        a = SpaceSavingSketch("p", capacity=16)
        b = SpaceSavingSketch("p", capacity=16)
        for key in xs:
            a.offer(key)
        for key in ys:
            b.offer(key)
        ab = SpaceSavingSketch("p", capacity=16)
        ab.merge(a)
        ab.merge(b)
        truth = {}
        for key in xs + ys:
            truth[str(key)] = truth.get(str(key), 0) + 1
        for key, count in truth.items():
            assert ab.estimate(key) == count
        ba = SpaceSavingSketch("p", capacity=16)
        ba.merge(b)
        ba.merge(a)
        assert ab.to_payload() == ba.to_payload()

    @given(hh_streams, hh_streams, st.integers(1, 4))
    @settings(max_examples=80)
    def test_capacity_bounded_merge_keeps_overestimate(self, xs, ys, cap):
        a = SpaceSavingSketch("p", capacity=cap)
        b = SpaceSavingSketch("p", capacity=cap)
        for key in xs:
            a.offer(key)
        for key in ys:
            b.offer(key)
        a.merge(b)
        assert len(a) <= cap
        assert a.total == pytest.approx(len(xs) + len(ys))
        truth = {}
        for key in xs + ys:
            truth[str(key)] = truth.get(str(key), 0) + 1
        for entry in a.top():
            assert entry["count"] + 1e-9 >= truth.get(entry["key"], 0)


registry_folds = st.lists(
    st.tuples(
        st.integers(0, 500),
        st.sampled_from(
            ["delivered", "decode_failed", "shed", "deadline_abandoned",
             "worker_lost"]
        ),
    ),
    max_size=120,
)


class TestRegistryConservation:
    @given(registry_folds, st.integers(1, 12))
    @settings(max_examples=150)
    def test_admissions_conserved_and_memory_bounded(self, folds, cap):
        registry = TagHealthRegistry(capacity=cap)
        for t, (tag, status) in enumerate(folds):
            registry.fold(tag, status, errors=1 if status != "shed" else 0,
                          bits=8, t=float(t))
        assert registry.tags_seen == registry.tracked + registry.evictions
        assert len(registry) <= cap
        tracked_requests = sum(
            e.requests for e in registry._tags.values()
        )
        assert tracked_requests + registry.other.requests == len(folds)

    @given(registry_folds, st.integers(1, 8))
    @settings(max_examples=80)
    def test_payload_round_trip_preserves_conservation(self, folds, cap):
        registry = TagHealthRegistry(capacity=cap)
        for t, (tag, status) in enumerate(folds):
            registry.fold(tag, status, bits=8, t=float(t))
        registry.detect(t=float(len(folds)))
        rebuilt = TagHealthRegistry.from_payload(registry.to_payload())
        assert rebuilt.to_payload() == registry.to_payload()
        assert rebuilt.tags_seen == rebuilt.tracked + rebuilt.evictions


class TestZeroThresholdEdge:
    @given(st.floats(MIN_TRACKED_VALUE * 0.1, MIN_TRACKED_VALUE))
    def test_at_or_below_threshold_counts_as_zero(self, v):
        sketch = QuantileSketch("p")
        sketch.observe(v)
        assert sketch.zero_count == 1

    @given(st.floats(MIN_TRACKED_VALUE * 1.01, 1e-9))
    def test_above_threshold_lands_in_a_bucket(self, v):
        sketch = QuantileSketch("p")
        sketch.observe(v)
        assert sketch.zero_count == 0
        assert sketch.quantile(1.0) == pytest.approx(v, rel=0.011)
