"""Mergeable fixed-memory sketches for fleet-scale telemetry.

Raw samples (ring buffers, exemplar reservoirs) stop scaling the
moment one gateway serves thousands of tags or one run decodes tens of
thousands of packets.  This module provides the two fixed-memory
summaries the fleet layer and the metrics registry are built on:

* :class:`QuantileSketch` — a DDSketch-style relative-error quantile
  sketch (Masson et al., VLDB 2019), and the registry's histogram.
  Values land in geometric buckets ``(gamma**(k-1), gamma**k]`` of
  ``|v|`` with ``gamma = (1 + alpha) / (1 - alpha)``, one store per
  sign, so any reported quantile is within a factor ``(1 +/- alpha)``
  of the true order statistic over the whole stream.  Memory is
  bounded by ``max_buckets`` per store (the buckets nearest zero
  collapse first, biasing only the values closest to zero).
* :class:`SpaceSavingSketch` — a space-saving heavy-hitter summary
  over at most ``capacity`` keys.  Counts are overestimates; each
  counter carries the maximum possible overcount (``error``), and any
  key whose true weight exceeds ``total / capacity`` is guaranteed to
  be tracked.

Both sketches are **mergeable and deterministic**: ``merge_payload``
folds another sketch's :meth:`to_payload` into this one, bucket counts
add exactly, and all exported orderings are canonical (sorted), so a
parent merging per-worker payloads in task order reproduces the serial
sketch byte-for-byte whenever no capacity bound triggers — the
contract the ``workers=0`` vs ``workers=2`` determinism tests pin.

Payloads are plain dicts/lists/numbers (pickle- and JSON-safe) and
carry the sketch configuration, so
:meth:`repro.obs.metrics.MetricsRegistry.merge_payload` can rebuild an
equivalent sketch in another process and refuse mismatched configs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Observations at or below this magnitude are exact zeros for sketch
#: purposes (they get their own counter; relative error is meaningless
#: at zero).
MIN_TRACKED_VALUE = 1e-12

#: Default relative-error bound (1%).
DEFAULT_ALPHA = 0.01

#: Default bucket bound; generous enough that realistic latency/error
#: distributions never collapse (collapse only bites the low tail).
DEFAULT_MAX_BUCKETS = 1024

#: Default heavy-hitter capacity (top-K tracking slots).
DEFAULT_HH_CAPACITY = 8


class QuantileSketch:
    """DDSketch-style quantile sketch with bounded relative error.

    Positive values land in ``_buckets`` and values below
    ``-MIN_TRACKED_VALUE`` in ``_negative``, keyed by the same grid over
    ``|v|``; everything in between counts as an exact zero.

    Attributes:
        name: dotted metric name.
        alpha: relative-error bound in (0, 1).
        gamma: bucket growth factor ``(1 + alpha) / (1 - alpha)``.
        count: total observations (including zeros).
        zero_count: observations with ``|v| <= MIN_TRACKED_VALUE``.
        collapsed: bucket collapse events (0 = sketch is exact
            within the alpha bound everywhere).
    """

    kind = "quantile_sketch"

    __slots__ = ("name", "alpha", "gamma", "max_buckets", "count",
                 "zero_count", "total", "min", "max", "collapsed",
                 "_buckets", "_negative", "_inv_log_gamma")

    def __init__(
        self,
        name: str,
        alpha: float = DEFAULT_ALPHA,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if not (0.0 < alpha < 1.0):
            raise ConfigurationError(
                "quantile sketch alpha must be in (0, 1)"
            )
        if max_buckets < 2:
            raise ConfigurationError(
                "quantile sketch max_buckets must be >= 2"
            )
        self.name = name
        self.alpha = float(alpha)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self.max_buckets = int(max_buckets)
        self.count = 0
        self.zero_count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.collapsed = 0
        #: bucket key -> observation count; key k covers
        #: (gamma**(k-1), gamma**k] (of -v in ``_negative``).
        self._buckets: Dict[int, int] = {}
        self._negative: Dict[int, int] = {}
        self._inv_log_gamma = 1.0 / math.log(self.gamma)

    # -- ingest -------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation (NaN and infinities rejected)."""
        self.observe_many((value,))

    def observe_many(self, values) -> None:
        """Record observations in order (an iterable or an array)."""
        if isinstance(values, np.ndarray):
            values = values.ravel().tolist()
        log, ceil, inf = math.log, math.ceil, math.inf
        inv_log_gamma = self._inv_log_gamma
        positive, negative = self._buckets, self._negative
        max_buckets = self.max_buckets
        count, zeros, total = self.count, self.zero_count, self.total
        lo, hi = self.min, self.max
        try:
            for value in values:
                v = float(value)
                if not -inf < v < inf:
                    raise ConfigurationError(
                        f"quantile sketch {self.name!r} requires finite "
                        f"values, got {value!r}"
                    )
                count += 1
                total += v
                if v < lo:
                    lo = v
                if v > hi:
                    hi = v
                if v > MIN_TRACKED_VALUE:
                    store = positive
                elif v < -MIN_TRACKED_VALUE:
                    store, v = negative, -v
                else:
                    zeros += 1
                    continue
                key = ceil(log(v) * inv_log_gamma)
                store[key] = store.get(key, 0) + 1
                if len(store) > max_buckets:
                    self._collapse(store)
        finally:
            self.count, self.zero_count, self.total = count, zeros, total
            self.min, self.max = lo, hi

    def _collapse(self, store: Dict[int, int]) -> None:
        """Fold a store's buckets nearest zero together until within
        the bound.

        Collapsing away from zero only ever biases the estimates nearest
        zero; the tails keep the alpha guarantee.
        """
        while len(store) > self.max_buckets:
            keys = sorted(store)
            lowest, second = keys[0], keys[1]
            store[second] += store.pop(lowest)
            self.collapsed += 1

    # -- query --------------------------------------------------------------

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (q in [0, 1]); None when empty.

        The estimate is within relative error ``alpha`` of the true
        order statistic at rank ``ceil(q * count) - 1`` whenever that
        statistic's magnitude exceeds :data:`MIN_TRACKED_VALUE` (exactly
        0.0 for the zero region), provided no collapse has folded its
        bucket.
        """
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError("quantile q must be in [0, 1]")
        if self.count == 0:
            return None
        rank = max(0, int(math.ceil(q * self.count)) - 1)
        cum = 0
        for key in sorted(self._negative, reverse=True):
            cum += self._negative[key]
            if cum > rank:
                return -self._estimate(key)
        cum += self.zero_count
        if rank < cum:
            return 0.0
        for key in sorted(self._buckets):
            cum += self._buckets[key]
            if cum > rank:
                return self._estimate(key)
        # Float-rounding fallback: rank beyond every bucket.
        return self.max if self.max > -math.inf else 0.0

    def _estimate(self, key: int) -> float:
        return 2.0 * self.gamma ** key / (self.gamma + 1.0)

    def percentile(self, p: float) -> Optional[float]:
        """Percentile variant of :meth:`quantile` (p in [0, 100])."""
        if not (0.0 <= p <= 100.0):
            raise ConfigurationError("percentile must be in [0, 100]")
        return self.quantile(p / 100.0)

    def summary(self) -> Dict[str, object]:
        """Registry-snapshot form (scalar fields only)."""
        if self.count == 0:
            return {"type": self.kind, "count": 0, "alpha": self.alpha,
                    "buckets": 0}
        return {
            "type": self.kind,
            "count": self.count,
            "zero_count": self.zero_count,
            "alpha": self.alpha,
            "buckets": len(self._buckets) + len(self._negative),
            "collapsed": self.collapsed,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # -- merge contract -----------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Lossless, canonical (sorted-bucket) export for merging; the
        ``negative`` store rides along only when non-empty."""
        payload: Dict[str, object] = {
            "alpha": self.alpha,
            "max_buckets": self.max_buckets,
            "count": self.count,
            "zero_count": self.zero_count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "collapsed": self.collapsed,
            "buckets": [[k, self._buckets[k]]
                        for k in sorted(self._buckets)],
        }
        if self._negative:
            payload["negative"] = [[k, self._negative[k]]
                                   for k in sorted(self._negative)]
        return payload

    def merge_payload(self, payload: Dict[str, object]) -> None:
        """Fold another sketch's :meth:`to_payload` into this one.

        Bucket counts add exactly, so merging is commutative and
        associative (and the identity is an empty sketch) whenever each
        combined store stays within ``max_buckets``.  Only ``total``
        depends on merge order, through float addition.  Mismatched
        ``alpha`` is a configuration error — the bucket grids would not
        line up.
        """
        alpha = float(payload.get("alpha", self.alpha))
        if abs(alpha - self.alpha) > 1e-12:
            raise ConfigurationError(
                f"cannot merge quantile sketch {self.name!r}: "
                f"alpha {alpha} != {self.alpha}"
            )
        count = int(payload.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.zero_count += int(payload.get("zero_count", 0))
        self.total += float(payload.get("total", 0.0))
        self.min = min(self.min, float(payload.get("min", math.inf)))
        self.max = max(self.max, float(payload.get("max", -math.inf)))
        self.collapsed += int(payload.get("collapsed", 0))
        for store, field in ((self._buckets, "buckets"),
                             (self._negative, "negative")):
            for key, n in payload.get(field, []):
                k = int(key)
                store[k] = store.get(k, 0) + int(n)
            if len(store) > self.max_buckets:
                self._collapse(store)

    def merge(self, other: "QuantileSketch") -> None:
        self.merge_payload(other.to_payload())


class SpaceSavingSketch:
    """Space-saving heavy-hitter summary over at most ``capacity`` keys.

    Each tracked key holds an overestimating count and the maximum
    possible overcount (``error``); when a new key arrives at capacity
    it inherits the evicted minimum count as both floor and error.
    Guarantees (per sketch, before merging):

    * every tracked estimate satisfies ``true <= count`` and
      ``count - error <= true``;
    * any key with true weight ``> total / capacity`` is tracked.

    Merging sums estimates over the key union (keys absent from a
    *full* sketch contribute that sketch's minimum count — the
    standard mergeable-summaries rule preserving the overestimate
    invariant) and prunes back to ``capacity`` keeping the largest
    counts with a deterministic ``(count desc, key asc)`` order.  When
    every input is below capacity the merge is the exact union-sum, so
    commutativity/associativity/identity hold exactly; otherwise the
    heavy-hitter guarantee degrades gracefully (keys above twice the
    average weight per slot stay tracked).
    """

    kind = "heavy_hitters"

    __slots__ = ("name", "capacity", "total", "_counters")

    def __init__(self, name: str,
                 capacity: int = DEFAULT_HH_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                "heavy-hitter capacity must be >= 1"
            )
        self.name = name
        self.capacity = int(capacity)
        self.total = 0.0
        #: key -> [count, error]
        self._counters: Dict[str, List[float]] = {}

    def __len__(self) -> int:
        return len(self._counters)

    @property
    def min_count(self) -> float:
        """Smallest tracked count (0.0 while below capacity)."""
        if len(self._counters) < self.capacity:
            return 0.0
        return min(c[0] for c in self._counters.values())

    def offer(self, key: object, weight: float = 1.0) -> None:
        """Record ``weight`` for ``key`` (coerced to str)."""
        w = float(weight)
        if math.isnan(w) or w <= 0.0:
            raise ConfigurationError(
                f"heavy-hitter weight must be > 0, got {weight!r}"
            )
        k = str(key)
        self.total += w
        entry = self._counters.get(k)
        if entry is not None:
            entry[0] += w
            return
        if len(self._counters) < self.capacity:
            self._counters[k] = [w, 0.0]
            return
        victim = min(self._counters,
                     key=lambda c: (self._counters[c][0], c))
        floor = self._counters.pop(victim)[0]
        self._counters[k] = [floor + w, floor]

    def estimate(self, key: object) -> float:
        """Estimated weight of ``key`` (0.0 when untracked)."""
        entry = self._counters.get(str(key))
        return entry[0] if entry is not None else 0.0

    def top(self, k: Optional[int] = None) -> List[Dict[str, object]]:
        """Largest-count entries, ``(count desc, key asc)`` ordered."""
        ordered = sorted(
            self._counters.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        if k is not None:
            ordered = ordered[:k]
        return [
            {"key": key, "count": entry[0], "error": entry[1]}
            for key, entry in ordered
        ]

    def summary(self) -> Dict[str, object]:
        """Registry-snapshot form (scalar fields only)."""
        return {
            "type": self.kind,
            "total": self.total,
            "tracked": len(self._counters),
            "capacity": self.capacity,
            "min_count": self.min_count,
        }

    # -- merge contract -----------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Canonical export: counters in ``(count desc, key asc)``."""
        ordered = sorted(
            self._counters.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        return {
            "capacity": self.capacity,
            "total": self.total,
            "counters": [[key, entry[0], entry[1]]
                         for key, entry in ordered],
        }

    def merge_payload(self, payload: Dict[str, object]) -> None:
        """Fold another sketch's :meth:`to_payload` into this one."""
        capacity = int(payload.get("capacity", self.capacity))
        if capacity != self.capacity:
            raise ConfigurationError(
                f"cannot merge heavy-hitter sketch {self.name!r}: "
                f"capacity {capacity} != {self.capacity}"
            )
        theirs: Dict[str, Tuple[float, float]] = {
            str(key): (float(count), float(error))
            for key, count, error in payload.get("counters", [])
        }
        if not theirs:
            self.total += float(payload.get("total", 0.0))
            return
        floor_self = self.min_count
        floor_other = 0.0
        if len(theirs) >= capacity:
            floor_other = min(c for c, _ in theirs.values())
        merged: Dict[str, List[float]] = {}
        for key in set(self._counters) | set(theirs):
            a = self._counters.get(key)
            b = theirs.get(key)
            a_count, a_err = (
                (a[0], a[1]) if a is not None
                else (floor_self, floor_self)
            )
            b_count, b_err = b if b is not None \
                else (floor_other, floor_other)
            merged[key] = [a_count + b_count, a_err + b_err]
        if len(merged) > self.capacity:
            keep = sorted(
                merged.items(), key=lambda kv: (-kv[1][0], kv[0])
            )[:self.capacity]
            merged = {key: entry for key, entry in keep}
        self._counters = merged
        self.total += float(payload.get("total", 0.0))

    def merge(self, other: "SpaceSavingSketch") -> None:
        self.merge_payload(other.to_payload())

