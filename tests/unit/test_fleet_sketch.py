"""Fleet sketches: relative-error quantiles + space-saving top-K.

The fleet layer's memory bound is only useful if the summaries stay
honest: the quantile sketch must keep every estimate within its
advertised alpha of the true order statistic, the heavy-hitter sketch
must never under-report and must always track genuinely heavy keys,
and both must merge to exactly what a single serial sketch would have
produced (the workers=0 vs workers=N contract).
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.fleet.sketch import (
    DEFAULT_ALPHA,
    MIN_TRACKED_VALUE,
    QuantileSketch,
    SpaceSavingSketch,
)


def _true_quantile(values, q):
    """The order statistic the sketch's rank rule targets."""
    ordered = sorted(values)
    rank = max(0, int(math.ceil(q * len(ordered))) - 1)
    return ordered[rank]


class TestQuantileSketch:
    def test_empty_sketch_reports_none(self):
        sketch = QuantileSketch("t")
        assert sketch.quantile(0.5) is None
        assert sketch.mean is None
        assert sketch.summary()["count"] == 0

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_relative_error_bound_on_lognormal(self, alpha):
        rng = np.random.default_rng(7)
        values = np.exp(rng.normal(0.0, 2.0, size=5000)).tolist()
        sketch = QuantileSketch("t", alpha=alpha)
        sketch.observe_many(values)
        assert sketch.collapsed == 0
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            truth = _true_quantile(values, q)
            est = sketch.quantile(q)
            assert abs(est - truth) <= alpha * truth + 1e-12

    def test_zero_region_is_exact(self):
        sketch = QuantileSketch("t")
        sketch.observe_many([0.0] * 60 + [1.0] * 40)
        assert sketch.zero_count == 60
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.9) == pytest.approx(1.0, rel=0.02)

    def test_values_at_min_tracked_count_as_zero(self):
        sketch = QuantileSketch("t")
        sketch.observe(MIN_TRACKED_VALUE)
        assert sketch.zero_count == 1 and sketch.count == 1

    def test_nan_rejected_and_negative_estimated(self):
        sketch = QuantileSketch("t")
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError):
                sketch.observe(bad)
        # A rejected value mid-batch leaves the earlier ones recorded.
        with pytest.raises(ConfigurationError):
            sketch.observe_many([-1e-9, float("nan"), 5.0])
        assert sketch.count == 1 and sketch.zero_count == 0
        assert sketch.quantile(0.5) == pytest.approx(-1e-9, rel=DEFAULT_ALPHA)

    def test_signed_values_within_alpha(self):
        rng = np.random.default_rng(9)
        values = rng.normal(0.3, 1.0, size=4000).tolist()
        sketch = QuantileSketch("t")
        sketch.observe_many(values)
        assert sketch.min == min(values) and sketch.max == max(values)
        for q in (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0):
            truth = _true_quantile(values, q)
            est = sketch.quantile(q)
            assert abs(est - truth) <= DEFAULT_ALPHA * abs(truth) + 1e-12
            assert (est < 0) == (truth < 0)

    def test_negative_store_in_payload_only_when_used(self):
        sketch = QuantileSketch("t")
        sketch.observe_many([0.0, 0.5, 2.0])
        assert "negative" not in sketch.to_payload()
        assert sketch.summary()["buckets"] == 2
        sketch.observe_many([-0.5, -3.0])
        payload = sketch.to_payload()
        assert [n for _, n in payload["negative"]] == [1, 1]
        assert sketch.summary()["buckets"] == 4
        rebuilt = QuantileSketch("t")
        rebuilt.merge_payload(payload)
        assert rebuilt.to_payload() == payload

    def test_scalar_and_batched_observation_agree(self):
        values = np.random.default_rng(4).normal(0.0, 2.0, size=500)
        one_by_one = QuantileSketch("t")
        for v in values:
            one_by_one.observe(v)
        batched = QuantileSketch("t")
        batched.observe_many(values)
        assert one_by_one.to_payload() == batched.to_payload()

    def test_negative_collapse_folds_nearest_zero(self):
        rng = np.random.default_rng(8)
        values = (-np.exp(rng.uniform(-7.0, 7.0, size=4000))).tolist()
        sketch = QuantileSketch("t", alpha=0.05, max_buckets=8)
        sketch.observe_many(values)
        assert sketch.collapsed > 0
        assert len(sketch._negative) <= 8 and not sketch._buckets
        p1_truth = _true_quantile(values, 0.01)
        assert abs(sketch.quantile(0.01) - p1_truth) <= 0.05 * abs(p1_truth)
        # Folding away from zero only pushes estimates more negative.
        for q in (0.5, 0.9):
            assert sketch.quantile(q) <= _true_quantile(values, q)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch("t", alpha=0.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch("t", alpha=1.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch("t", max_buckets=1)
        with pytest.raises(ConfigurationError):
            QuantileSketch("t").quantile(1.5)

    def test_collapse_bounds_memory_and_spares_the_tail(self):
        # A 14-ln-decade spread into 8 buckets forces collapse; the
        # damage must stay in the collapsed low region (where collapse
        # only ever overestimates) while the retained top buckets keep
        # the alpha bound for the tail quantiles that page.
        rng = np.random.default_rng(3)
        values = np.exp(rng.uniform(-7.0, 7.0, size=4000)).tolist()
        sketch = QuantileSketch("t", alpha=0.05, max_buckets=8)
        sketch.observe_many(values)
        assert sketch.collapsed > 0
        assert len(sketch._buckets) <= 8
        p99_truth = _true_quantile(values, 0.99)
        assert abs(sketch.quantile(0.99) - p99_truth) <= 0.05 * p99_truth
        # Collapsed-region estimates are biased upward, never downward.
        for q in (0.1, 0.5):
            assert sketch.quantile(q) >= _true_quantile(values, q)

    def test_payload_round_trip_is_lossless(self):
        rng = np.random.default_rng(11)
        sketch = QuantileSketch("t")
        sketch.observe_many(rng.exponential(2.0, size=500).tolist())
        rebuilt = QuantileSketch("t")
        rebuilt.merge_payload(sketch.to_payload())
        assert rebuilt.to_payload() == sketch.to_payload()
        assert rebuilt.summary() == sketch.summary()

    def test_merge_of_shards_matches_serial(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(1.0, size=1200).tolist()
        serial = QuantileSketch("t")
        serial.observe_many(values)
        parts = [QuantileSketch("t") for _ in range(3)]
        for i, v in enumerate(values):
            parts[i % 3].observe(v)
        merged = QuantileSketch("t")
        for part in parts:
            merged.merge_payload(part.to_payload())
        ours, theirs = merged.to_payload(), serial.to_payload()
        # Bucket counts add exactly; only the running `total` differs
        # by float summation order across shards.
        assert ours.pop("total") == pytest.approx(theirs.pop("total"))
        assert ours == theirs
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == serial.quantile(q)

    def test_merge_rejects_mismatched_alpha(self):
        a = QuantileSketch("t", alpha=0.01)
        b = QuantileSketch("t", alpha=0.02)
        b.observe(1.0)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merge_with_empty_is_identity(self):
        sketch = QuantileSketch("t")
        sketch.observe_many([0.5, 2.5, 9.0])
        before = sketch.to_payload()
        sketch.merge_payload(QuantileSketch("t").to_payload())
        assert sketch.to_payload() == before


class TestSpaceSavingSketch:
    def test_below_capacity_counts_are_exact(self):
        sketch = SpaceSavingSketch("t", capacity=8)
        for key, n in (("a", 5), ("b", 3), ("c", 1)):
            for _ in range(n):
                sketch.offer(key)
        assert sketch.estimate("a") == 5.0
        assert sketch.estimate("b") == 3.0
        assert sketch.estimate("missing") == 0.0
        assert all(e["error"] == 0.0 for e in sketch.top())

    def test_keys_coerce_to_str(self):
        sketch = SpaceSavingSketch("t", capacity=4)
        sketch.offer(7, weight=2.0)
        assert sketch.estimate("7") == 2.0
        assert sketch.top()[0]["key"] == "7"

    def test_overestimate_invariant_under_eviction(self):
        # Zipf-ish stream through a tiny sketch: every reported count
        # must bracket the truth from above, within its error bar.
        rng = np.random.default_rng(9)
        stream = [int(k) for k in rng.zipf(1.5, size=3000) % 40]
        truth = {}
        sketch = SpaceSavingSketch("t", capacity=6)
        for key in stream:
            truth[str(key)] = truth.get(str(key), 0) + 1
            sketch.offer(key)
        for entry in sketch.top():
            true_count = truth.get(entry["key"], 0)
            assert entry["count"] >= true_count
            assert entry["count"] - entry["error"] <= true_count

    def test_heavy_keys_guaranteed_tracked(self):
        sketch = SpaceSavingSketch("t", capacity=5)
        # "hot" holds 40% of a 1000-offer stream; > total/capacity.
        for i in range(1000):
            sketch.offer("hot" if i % 5 < 2 else f"cold-{i}")
        assert sketch.estimate("hot") >= 400.0

    def test_top_order_is_count_desc_key_asc(self):
        sketch = SpaceSavingSketch("t", capacity=8)
        for key in ("b", "a", "c", "a", "b"):
            sketch.offer(key)
        assert [e["key"] for e in sketch.top()] == ["a", "b", "c"]
        assert [e["key"] for e in sketch.top(1)] == ["a"]

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            SpaceSavingSketch("t", capacity=0)
        sketch = SpaceSavingSketch("t")
        with pytest.raises(ConfigurationError):
            sketch.offer("a", weight=0.0)
        with pytest.raises(ConfigurationError):
            sketch.offer("a", weight=float("nan"))

    def test_payload_round_trip_is_lossless(self):
        sketch = SpaceSavingSketch("t", capacity=3)
        for i in range(30):
            sketch.offer(i % 7)
        rebuilt = SpaceSavingSketch("t", capacity=3)
        rebuilt.merge_payload(sketch.to_payload())
        assert rebuilt.to_payload() == sketch.to_payload()

    def test_under_capacity_merge_is_exact_union(self):
        a = SpaceSavingSketch("t", capacity=16)
        b = SpaceSavingSketch("t", capacity=16)
        for key in ("x", "y", "x"):
            a.offer(key)
        for key in ("y", "z"):
            b.offer(key)
        a.merge(b)
        assert a.estimate("x") == 2.0
        assert a.estimate("y") == 2.0
        assert a.estimate("z") == 1.0
        assert a.total == 5.0

    def test_merge_full_sketches_charges_the_floor(self):
        # A key absent from a full source sketch may have been evicted
        # there with up to min_count mass; the merge must keep the
        # overestimate invariant by charging that floor as error.
        a = SpaceSavingSketch("t", capacity=2)
        b = SpaceSavingSketch("t", capacity=2)
        for _ in range(4):
            a.offer("a")
        for _ in range(3):
            a.offer("b")
        for _ in range(5):
            b.offer("c")
        for _ in range(2):
            b.offer("d")
        a.merge(b)
        assert len(a) <= 2
        top = a.top()
        assert top[0]["key"] == "c"
        # "a" absorbed b's floor (min_count 2) as both count and error.
        assert a.estimate("a") == 6.0
        assert a.total == 14.0

    def test_merge_rejects_mismatched_capacity(self):
        a = SpaceSavingSketch("t", capacity=4)
        b = SpaceSavingSketch("t", capacity=8)
        b.offer("x")
        with pytest.raises(ConfigurationError):
            a.merge(b)
