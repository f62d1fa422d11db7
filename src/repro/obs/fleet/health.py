"""Bounded per-tag health accounting with fleet-wide anomaly flags.

:class:`TagHealthRegistry` folds every settled serve request into a
per-tag :class:`TagHealth` record — delivery rate, BER EWMA, breaker
state, deadline misses — while holding **O(capacity)** memory no
matter how many distinct tags appear: the registry is an LRU of at
most ``capacity`` tracked tags plus a single aggregated ``other``
overflow bucket that absorbs evicted records.  Accounting is conserved
by construction::

    tags_seen == tracked + evictions

where ``tags_seen`` counts tracked-set *admissions* (a tag evicted and
later re-admitted counts again — the registry deliberately has no
memory of evicted identities, that is what keeps it O(capacity)).

Anomaly detection is a robust z-score over the fleet's health-score
distribution: a tag is anomalous when its score sits more than
``z_threshold`` robust standard deviations (median absolute deviation
scaled by 1.4826) *below* the fleet median.  Using the fleet
distribution as the reference makes the detector immune to
common-mode shifts — an overload burst that sheds everyone equally
moves the median, not the z-scores.  Each :meth:`detect` call emits
``anomalous`` / ``recovered`` transitions, which the serve telemetry
stream records per snapshot.

Everything here is deterministic (pure fold order, canonical sorted
exports), so the serialized payload is byte-identical across worker
counts when fed the same outcome stream.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.serve.breaker import BREAKER_CLOSED, BREAKER_OPEN

#: Outcome status labels accepted by :meth:`TagHealthRegistry.fold`
#: (mirrors ``repro.serve.request.STATUSES``).
FOLD_STATUSES = (
    "delivered", "decode_failed", "shed", "deadline_abandoned",
    "worker_lost",
)

#: EWMA smoothing factor for the per-tag BER estimate.
BER_EWMA_ALPHA = 0.2

#: Health-score histogram bin count over [0, 1].
HEALTH_BINS = 10

#: MAD consistency constant (sigma estimate for normal data).
MAD_SCALE = 1.4826

#: Floor on the robust deviation scale so a perfectly homogeneous
#: fleet (MAD == 0) does not flag every tiny wobble.
MAD_FLOOR = 0.02

#: Bound on the retained anomaly-transition log.
MAX_TRANSITIONS = 256


class TagHealth:
    """Streaming health aggregate for one tag (or the overflow bucket)."""

    __slots__ = (
        "requests", "delivered", "decode_failed", "shed",
        "deadline_abandoned", "worker_lost", "bits", "error_bits",
        "ber_ewma", "breaker_openings", "breaker_state", "last_seen_s",
        "worst_corr_id", "worst_errors",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.delivered = 0
        self.decode_failed = 0
        self.shed = 0
        self.deadline_abandoned = 0
        self.worker_lost = 0
        self.bits = 0
        self.error_bits = 0
        self.ber_ewma: Optional[float] = None
        self.breaker_openings = 0
        self.breaker_state = BREAKER_CLOSED
        self.last_seen_s = 0.0
        #: Correlation ID of the worst request seen (most error bits) —
        #: the hop from an anomaly row to the flight-recorder exemplar
        #: and forensics record.
        self.worst_corr_id = ""
        self.worst_errors = -1

    def fold(
        self,
        status: str,
        errors: int,
        bits: int,
        breaker_state: str,
        t: float,
        corr_id: str = "",
    ) -> None:
        self.requests += 1
        if status == "delivered":
            self.delivered += 1
            self.bits += int(bits)
            self.error_bits += int(errors)
            if bits > 0:
                ber = min(1.0, int(errors) / int(bits))
                if self.ber_ewma is None:
                    self.ber_ewma = ber
                else:
                    self.ber_ewma += BER_EWMA_ALPHA * (ber - self.ber_ewma)
        elif status == "decode_failed":
            self.decode_failed += 1
        elif status == "shed":
            self.shed += 1
        elif status == "deadline_abandoned":
            self.deadline_abandoned += 1
        elif status == "worker_lost":
            self.worker_lost += 1
        else:
            raise ConfigurationError(
                f"unknown outcome status {status!r} "
                f"(expected one of {FOLD_STATUSES})"
            )
        if (breaker_state == BREAKER_OPEN
                and self.breaker_state != BREAKER_OPEN):
            self.breaker_openings += 1
        self.breaker_state = str(breaker_state)
        self.last_seen_s = float(t)
        # Failed requests count full-payload errors; track the single
        # worst corr ID for exemplar/forensics linking.
        if status != "shed" and int(errors) > self.worst_errors:
            self.worst_errors = int(errors)
            self.worst_corr_id = str(corr_id)

    def absorb(self, other: "TagHealth") -> None:
        """Aggregate another record into this one (overflow bucket)."""
        self.requests += other.requests
        self.delivered += other.delivered
        self.decode_failed += other.decode_failed
        self.shed += other.shed
        self.deadline_abandoned += other.deadline_abandoned
        self.worker_lost += other.worker_lost
        self.bits += other.bits
        self.error_bits += other.error_bits
        if other.ber_ewma is not None:
            if self.ber_ewma is None:
                self.ber_ewma = other.ber_ewma
            else:
                # Delivery-weighted blend: EWMAs are not exactly
                # mergeable; the overflow bucket is an aggregate view,
                # not a per-tag estimator.
                weight = other.delivered / max(
                    1, self.delivered
                )
                weight = min(1.0, weight)
                self.ber_ewma += weight * (other.ber_ewma - self.ber_ewma)
        self.breaker_openings += other.breaker_openings
        if other.last_seen_s > self.last_seen_s:
            self.last_seen_s = other.last_seen_s
            self.breaker_state = other.breaker_state
        if other.worst_errors > self.worst_errors:
            self.worst_errors = other.worst_errors
            self.worst_corr_id = other.worst_corr_id

    @property
    def delivery_rate(self) -> float:
        if self.requests == 0:
            return 1.0
        return self.delivered / self.requests

    @property
    def deadline_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.deadline_abandoned / self.requests

    def health_score(self) -> float:
        """Composite health in [0, 1]; 1.0 = perfectly healthy.

        Weighted blend of delivery rate (0.5), BER headroom (0.3), and
        deadline headroom (0.2); an open breaker halves the score.
        Absolute levels matter less than the *fleet-relative* robust
        z-score computed over these values — see module docstring.
        """
        ber = min(1.0, self.ber_ewma or 0.0)
        score = (
            0.5 * self.delivery_rate
            + 0.3 * (1.0 - ber)
            + 0.2 * (1.0 - self.deadline_rate)
        )
        if self.breaker_state == BREAKER_OPEN:
            score *= 0.5
        return max(0.0, min(1.0, score))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "delivered": self.delivered,
            "decode_failed": self.decode_failed,
            "shed": self.shed,
            "deadline_abandoned": self.deadline_abandoned,
            "worker_lost": self.worker_lost,
            "bits": self.bits,
            "error_bits": self.error_bits,
            "ber_ewma": self.ber_ewma,
            "breaker_openings": self.breaker_openings,
            "breaker_state": self.breaker_state,
            "last_seen_s": self.last_seen_s,
            "worst_corr_id": self.worst_corr_id,
            "worst_errors": self.worst_errors,
            "health_score": self.health_score(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TagHealth":
        entry = cls()
        entry.requests = int(data.get("requests", 0))
        entry.delivered = int(data.get("delivered", 0))
        entry.decode_failed = int(data.get("decode_failed", 0))
        entry.shed = int(data.get("shed", 0))
        entry.deadline_abandoned = int(data.get("deadline_abandoned", 0))
        entry.worker_lost = int(data.get("worker_lost", 0))
        entry.bits = int(data.get("bits", 0))
        entry.error_bits = int(data.get("error_bits", 0))
        ber = data.get("ber_ewma")
        entry.ber_ewma = None if ber is None else float(ber)
        entry.breaker_openings = int(data.get("breaker_openings", 0))
        entry.breaker_state = str(data.get("breaker_state", BREAKER_CLOSED))
        entry.last_seen_s = float(data.get("last_seen_s", 0.0))
        entry.worst_corr_id = str(data.get("worst_corr_id", ""))
        entry.worst_errors = int(data.get("worst_errors", -1))
        return entry


def _median(ordered: List[float]) -> float:
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class TagHealthRegistry:
    """LRU-bounded per-tag health registry with an overflow bucket.

    Args:
        capacity: maximum tracked tags (O(capacity) memory total).
        z_threshold: robust z-score below the fleet median at which a
            tag is flagged anomalous.
        min_requests: tags with fewer folded requests are exempt from
            anomaly scoring (their scores are still histogrammed).
    """

    def __init__(
        self,
        capacity: int = 64,
        z_threshold: float = 3.0,
        min_requests: int = 3,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                "health registry capacity must be >= 1"
            )
        if z_threshold <= 0:
            raise ConfigurationError("z_threshold must be positive")
        if min_requests < 1:
            raise ConfigurationError("min_requests must be >= 1")
        self.capacity = int(capacity)
        self.z_threshold = float(z_threshold)
        self.min_requests = int(min_requests)
        #: Tracked tags in LRU order (least recently folded first).
        self._tags: "OrderedDict[int, TagHealth]" = OrderedDict()
        self.other = TagHealth()
        #: Tracked-set admissions (re-admission after eviction counts
        #: again); the conservation invariant is
        #: ``admissions == len(tracked) + evictions``.
        self.admissions = 0
        self.evictions = 0
        self._anomalous: set = set()
        self.transitions: List[Dict[str, Any]] = []
        self.transitions_total = 0

    # -- accounting ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tags)

    @property
    def tags_seen(self) -> int:
        """Tracked-set admission events (see class docstring)."""
        return self.admissions

    @property
    def tracked(self) -> int:
        return len(self._tags)

    def get(self, tag: int) -> Optional[TagHealth]:
        """The tracked record for ``tag`` (no LRU touch), or None."""
        return self._tags.get(int(tag))

    def _admit(self, tag: int) -> TagHealth:
        self.admissions += 1
        if len(self._tags) >= self.capacity:
            victim_tag, victim = self._tags.popitem(last=False)
            self.evictions += 1
            self.other.absorb(victim)
            self._anomalous.discard(victim_tag)
        entry = TagHealth()
        self._tags[tag] = entry
        return entry

    def fold(
        self,
        tag: int,
        status: str,
        errors: int = 0,
        bits: int = 0,
        breaker_state: str = BREAKER_CLOSED,
        t: float = 0.0,
        corr_id: str = "",
    ) -> TagHealth:
        """Fold one settled request outcome into the registry."""
        key = int(tag)
        entry = self._tags.get(key)
        if entry is None:
            entry = self._admit(key)
        else:
            self._tags.move_to_end(key)
        entry.fold(status, errors, bits, breaker_state, t,
                   corr_id=corr_id)
        return entry

    # -- anomaly detection --------------------------------------------------

    def scores(self) -> Dict[int, float]:
        """Health score per tracked tag (insertion/LRU order)."""
        return {tag: e.health_score() for tag, e in self._tags.items()}

    def detect(self, t: float = 0.0) -> List[Dict[str, Any]]:
        """Re-evaluate anomaly flags; returns the new transitions.

        A transition dict is ``{tag, kind, score, z, t_s}`` with kind
        ``anomalous`` or ``recovered``; transitions also append to the
        bounded :attr:`transitions` log.
        """
        eligible = {
            tag: e.health_score()
            for tag, e in self._tags.items()
            if e.requests >= self.min_requests
        }
        flagged: set = set()
        z_of: Dict[int, float] = {}
        if len(eligible) >= 4:
            ordered = sorted(eligible.values())
            med = _median(ordered)
            mad = _median(sorted(abs(s - med) for s in ordered))
            scale = max(MAD_SCALE * mad, MAD_FLOOR)
            for tag, score in eligible.items():
                z_of[tag] = (med - score) / scale
                if z_of[tag] >= self.z_threshold:
                    flagged.add(tag)
        new: List[Dict[str, Any]] = []
        for tag in sorted(flagged - self._anomalous):
            new.append({
                "tag": tag,
                "kind": "anomalous",
                "score": eligible[tag],
                "z": z_of.get(tag, 0.0),
                "corr_id": self._tags[tag].worst_corr_id,
                "t_s": float(t),
            })
        for tag in sorted(self._anomalous - flagged):
            entry = self._tags.get(tag)
            new.append({
                "tag": tag,
                "kind": "recovered",
                "score": (
                    entry.health_score() if entry is not None else None
                ),
                "z": z_of.get(tag, 0.0),
                "corr_id": (
                    entry.worst_corr_id if entry is not None else ""
                ),
                "t_s": float(t),
            })
        self._anomalous = flagged
        if new:
            self.transitions_total += len(new)
            self.transitions.extend(new)
            if len(self.transitions) > MAX_TRANSITIONS:
                self.transitions = self.transitions[-MAX_TRANSITIONS:]
        return new

    def anomalous_tags(self) -> List[int]:
        """Currently flagged tags, sorted."""
        return sorted(self._anomalous)

    # -- export -------------------------------------------------------------

    def histogram(self) -> List[int]:
        """Health-score counts over ``HEALTH_BINS`` bins spanning [0, 1]."""
        bins = [0] * HEALTH_BINS
        for entry in self._tags.values():
            idx = min(HEALTH_BINS - 1,
                      int(entry.health_score() * HEALTH_BINS))
            bins[idx] += 1
        return bins

    def snapshot_block(self) -> Dict[str, Any]:
        """Compact per-tick summary for the telemetry stream."""
        return {
            "tracked": self.tracked,
            "evictions": self.evictions,
            "tags_seen": self.tags_seen,
            "other_requests": self.other.requests,
            "histogram": self.histogram(),
            "anomalous": self.anomalous_tags(),
        }

    def to_payload(self) -> Dict[str, Any]:
        """Canonical full-state export (deterministic orderings)."""
        return {
            "capacity": self.capacity,
            "z_threshold": self.z_threshold,
            "min_requests": self.min_requests,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "anomalous": self.anomalous_tags(),
            "transitions_total": self.transitions_total,
            "other": self.other.to_dict(),
            # LRU order is state (it decides future evictions), and it
            # is deterministic for a deterministic fold stream.
            "lru": list(self._tags),
            "tags": [[tag, self._tags[tag].to_dict()]
                     for tag in sorted(self._tags)],
        }

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`to_payload` into this one.

        The other registry's already-evicted mass arrives via its
        overflow bucket (with its admissions/evictions both added, so
        conservation survives the merge); its tracked tags replay in
        LRU order through the normal admission path.
        """
        capacity = int(payload.get("capacity", self.capacity))
        if capacity != self.capacity:
            raise ConfigurationError(
                "cannot merge health registries with different "
                f"capacities ({capacity} != {self.capacity})"
            )
        evictions = int(payload.get("evictions", 0))
        self.evictions += evictions
        self.admissions += evictions
        self.other.absorb(TagHealth.from_dict(payload.get("other", {})))
        entries = {
            int(tag): data for tag, data in payload.get("tags", [])
        }
        order = [int(tag) for tag in payload.get("lru", sorted(entries))]
        for tag in order:
            data = entries.get(tag)
            if data is None:
                continue
            incoming = TagHealth.from_dict(data)
            entry = self._tags.get(tag)
            if entry is None:
                entry = self._admit(tag)
            else:
                self._tags.move_to_end(tag)
            entry.absorb(incoming)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TagHealthRegistry":
        registry = cls(
            capacity=int(payload.get("capacity", 64)),
            z_threshold=float(payload.get("z_threshold", 3.0)),
            min_requests=int(payload.get("min_requests", 3)),
        )
        registry.merge_payload(payload)
        # Merge replays tracked tags through the admission path, which
        # double-counts the source's own admissions; restore the
        # invariant from the authoritative payload counters.
        registry.admissions = int(payload.get("admissions",
                                              registry.admissions))
        registry.evictions = int(payload.get("evictions",
                                             registry.evictions))
        registry._anomalous = set(
            int(t) for t in payload.get("anomalous", [])
        )
        registry.transitions_total = int(
            payload.get("transitions_total", 0)
        )
        return registry
