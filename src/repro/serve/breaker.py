"""Per-tag circuit breakers for the serve path.

Reuses the breaker state machine the polling gateway
(:mod:`repro.net.gateway`) introduced — closed / open / half-open with
quarantine doubling and a single reopen probe — but keyed on *decode*
failures: a tag whose transmissions repeatedly fail to decode (dead
battery, hopeless channel, persistent interference at its spot) stops
being admitted to the queue, so it cannot starve healthy tags of
decode slots.  Time here is the serve loop's virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import obs
from repro.errors import ConfigurationError

#: Per-tag circuit-breaker states, shared with :mod:`repro.net.gateway`.
BREAKER_CLOSED = "closed"        # healthy: admit every poll / request
BREAKER_OPEN = "open"            # quarantined: skip until expiry
BREAKER_HALF_OPEN = "half_open"  # quarantine expired: one probe


@dataclass
class _TagBreakerState:
    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    open_until_s: float = 0.0
    quarantine_s: float = 0.0
    opened: int = 0


class TagBreaker:
    """Consecutive-failure breaker over tag addresses (virtual time)."""

    def __init__(
        self,
        failure_threshold: int = 3,
        quarantine_s: float = 5.0,
        max_quarantine_s: float = 60.0,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if quarantine_s <= 0 or max_quarantine_s < quarantine_s:
            raise ConfigurationError(
                "need 0 < quarantine_s <= max_quarantine_s"
            )
        self.failure_threshold = failure_threshold
        self.quarantine_s = quarantine_s
        self.max_quarantine_s = max_quarantine_s
        self._tags: Dict[int, _TagBreakerState] = {}
        self.opened_total = 0

    def _state(self, tag: int) -> _TagBreakerState:
        return self._tags.setdefault(tag, _TagBreakerState())

    def admit(self, tag: int, now_s: float) -> bool:
        """Whether a request from ``tag`` may enter the queue now.

        An expired quarantine admits exactly one probe request
        (half-open); its outcome decides between closing and a doubled
        quarantine.
        """
        st = self._state(tag)
        if st.state == BREAKER_OPEN:
            if now_s < st.open_until_s:
                return False
            st.state = BREAKER_HALF_OPEN
            obs.counter("serve.breaker.probes").inc()
        return True

    def record_success(self, tag: int) -> None:
        st = self._state(tag)
        if st.state == BREAKER_HALF_OPEN:
            obs.counter("serve.breaker.recovered").inc()
        st.state = BREAKER_CLOSED
        st.consecutive_failures = 0
        st.quarantine_s = 0.0

    def record_failure(self, tag: int, now_s: float) -> None:
        st = self._state(tag)
        st.consecutive_failures += 1
        if st.state == BREAKER_HALF_OPEN or \
                st.consecutive_failures >= self.failure_threshold:
            st.quarantine_s = min(
                self.max_quarantine_s,
                st.quarantine_s * 2.0 if st.quarantine_s else
                self.quarantine_s,
            )
            st.state = BREAKER_OPEN
            st.open_until_s = now_s + st.quarantine_s
            st.consecutive_failures = 0
            st.opened += 1
            self.opened_total += 1
            obs.counter("serve.breaker.opened").inc()

    def preempt(self, tag: int, now_s: float) -> bool:
        """Force-open ``tag``'s breaker before the failure threshold.

        The burn-rate quarantine hook: when the error budget is
        burning fast, tags with recent failures are quarantined
        immediately instead of being given ``failure_threshold`` more
        decode slots.  Quarantine doubling and the half-open probe
        path behave exactly as for a threshold-triggered open.
        Returns False (and does nothing) when already open.
        """
        st = self._state(tag)
        if st.state == BREAKER_OPEN:
            return False
        st.quarantine_s = min(
            self.max_quarantine_s,
            st.quarantine_s * 2.0 if st.quarantine_s else
            self.quarantine_s,
        )
        st.state = BREAKER_OPEN
        st.open_until_s = now_s + st.quarantine_s
        st.consecutive_failures = 0
        st.opened += 1
        self.opened_total += 1
        obs.counter("serve.breaker.preempted").inc()
        return True

    def state_of(self, tag: int) -> str:
        return self._state(tag).state

    def states(self) -> Dict[int, str]:
        """Per-tag breaker state for every tag seen so far (sorted)."""
        return {t: self._tags[t].state for t in sorted(self._tags)}

    def open_tags(self) -> List[int]:
        return sorted(
            t for t, st in self._tags.items() if st.state == BREAKER_OPEN
        )
