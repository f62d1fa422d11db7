"""The Internet bridge: a gateway service over Wi-Fi Backscatter.

The paper's point is connectivity, not just a link: "we show that it
is possible to reuse existing Wi-Fi infrastructure to provide Internet
connectivity to RF-powered devices" (§1). The reader — a phone or AP —
is the bridge: it inventories nearby tags, polls them over the
query-response protocol, and forwards their readings upstream.

:class:`BackscatterGateway` is that application layer: a tag registry,
a polling loop with per-tag health tracking, and a pluggable publish
sink standing in for the cloud upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.core.frames import bits_to_int
from repro.core.inventory import InventoryTag, SlottedAlohaInventory
from repro.core.protocol import CMD_READ_SENSOR, WiFiBackscatterReader
from repro.errors import ConfigurationError, ReproError
from repro.obs.perf.slo import AlertEvent, SloEngine
from repro.serve.breaker import BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN

#: Sink for readings headed upstream ("the Internet").
PublishFn = Callable[["SensorReading"], None]


@dataclass(frozen=True)
class SensorReading:
    """One reading forwarded upstream.

    Attributes:
        tag_address: source tag.
        value: decoded 32-bit sensor value.
        poll_index: the gateway poll cycle that produced it.
        attempts: downlink transmissions the transaction needed.
        probe: this reading came from a circuit-breaker reopen probe
            (the tag just recovered from quarantine).
    """

    tag_address: int
    value: int
    poll_index: int
    attempts: int
    probe: bool = False


@dataclass
class TagStatus:
    """Per-tag health bookkeeping, including its circuit breaker.

    The breaker bounds how hard the gateway hammers a dead tag: after
    ``offline_threshold`` consecutive failures the tag is quarantined
    (breaker opens) for a number of poll cycles that doubles on every
    re-failure, capped; after the quarantine expires the next cycle
    sends a single reopen probe (half-open) that either restores the
    tag or re-quarantines it.
    """

    address: int
    polls: int = 0
    successes: int = 0
    consecutive_failures: int = 0
    last_value: Optional[int] = None
    last_seen_poll: Optional[int] = None
    breaker_state: str = BREAKER_CLOSED
    quarantined_until_poll: int = 0
    quarantine_cycles: int = 0
    skipped_polls: int = 0
    give_ups: int = 0
    probes: int = 0
    total_attempts: int = 0

    @property
    def availability(self) -> float:
        """Fraction of attempted polls that produced a reading."""
        return self.successes / self.polls if self.polls else 0.0

    @property
    def quarantined(self) -> bool:
        return self.breaker_state == BREAKER_OPEN


class BackscatterGateway:
    """Polls registered tags and publishes their readings.

    Attributes:
        reader: the protocol engine used for every transaction.
        helper_rate_fn: returns the current helper packet rate; the
            reader's rate plan adapts to it each poll (§5).
        publish: upstream sink; ``None`` collects readings locally only.
        offline_threshold: consecutive failures after which a tag is
            reported offline by :meth:`offline_tags` and its circuit
            breaker opens.
        quarantine_base_cycles: initial quarantine length (poll cycles)
            when a tag's breaker opens; doubles on each consecutive
            re-failure.  0 disables the breaker (legacy behaviour: a
            dead tag is re-polled at full rate forever).
        quarantine_max_cycles: quarantine length ceiling.
        slo: optional :class:`SloEngine` evaluated after every poll
            cycle (requires metrics to be enabled).  A fired alert whose
            rule carries ``action == "quarantine"`` pre-empts the
            breaker: tags already failing (but still below the normal
            ``offline_threshold``) are quarantined immediately, cutting
            the polling budget spent on a link the SLO says is sick.
    """

    def __init__(
        self,
        reader: WiFiBackscatterReader,
        helper_rate_fn: Callable[[], float],
        publish: Optional[PublishFn] = None,
        offline_threshold: int = 3,
        quarantine_base_cycles: int = 4,
        quarantine_max_cycles: int = 64,
        slo: Optional[SloEngine] = None,
    ) -> None:
        if offline_threshold < 1:
            raise ConfigurationError("offline_threshold must be >= 1")
        if quarantine_base_cycles < 0:
            raise ConfigurationError("quarantine_base_cycles must be >= 0")
        if quarantine_max_cycles < quarantine_base_cycles:
            raise ConfigurationError(
                "quarantine_max_cycles must be >= quarantine_base_cycles"
            )
        self.reader = reader
        self.helper_rate_fn = helper_rate_fn
        self.publish = publish
        self.offline_threshold = offline_threshold
        self.quarantine_base_cycles = quarantine_base_cycles
        self.quarantine_max_cycles = quarantine_max_cycles
        self.slo = slo
        self.registry: Dict[int, TagStatus] = {}
        self.poll_index = 0
        self.published: List[SensorReading] = []
        self.alerts: List[AlertEvent] = []

    # -- registry ---------------------------------------------------------------

    def register(self, address: int) -> TagStatus:
        """Add a tag to the polling set (idempotent)."""
        if not 0 <= address < (1 << 16):
            raise ConfigurationError("address must fit in 16 bits")
        return self.registry.setdefault(address, TagStatus(address=address))

    def discover(
        self,
        population: Sequence[InventoryTag],
        inventory: Optional[SlottedAlohaInventory] = None,
    ) -> List[int]:
        """Inventory nearby tags and register everything identified."""
        engine = inventory or SlottedAlohaInventory()
        result = engine.run(population)
        for address in result.identified:
            self.register(address)
        return sorted(result.identified)

    # -- polling -----------------------------------------------------------------

    def _open_breaker(self, status: TagStatus) -> None:
        """Quarantine a tag, doubling its previous quarantine length."""
        if status.quarantine_cycles:
            status.quarantine_cycles = min(
                status.quarantine_cycles * 2, self.quarantine_max_cycles
            )
        else:
            status.quarantine_cycles = self.quarantine_base_cycles
        status.breaker_state = BREAKER_OPEN
        status.quarantined_until_poll = (
            self.poll_index + status.quarantine_cycles
        )
        status.give_ups += 1
        obs.counter("gateway.breaker.opened").inc()

    def _poll_tag(
        self, status: TagStatus, helper_rate: float, probe: bool
    ) -> Optional[SensorReading]:
        """One transaction with breaker bookkeeping; None on failure."""
        status.polls += 1
        if probe:
            status.probes += 1
            obs.counter("gateway.breaker.probes").inc()
        try:
            result = self.reader.query(
                status.address,
                helper_rate_pps=helper_rate,
                payload_len=32,
                command=CMD_READ_SENSOR,
            )
        except ReproError:
            # A transport blowing up (timeout escalation, brownout) is
            # a failed transaction, not a gateway crash: the breaker
            # absorbs it like any other miss.
            status.total_attempts += self.reader.max_attempts
            self._note_failure(status)
            return None
        status.total_attempts += result.attempts
        if not result.success:
            self._note_failure(status)
            return None
        value = bits_to_int(list(result.frame.payload_bits))
        status.successes += 1
        status.consecutive_failures = 0
        status.breaker_state = BREAKER_CLOSED
        status.quarantine_cycles = 0
        status.last_value = value
        status.last_seen_poll = self.poll_index
        if probe:
            obs.counter("gateway.breaker.recovered").inc()
        return SensorReading(
            tag_address=status.address,
            value=value,
            poll_index=self.poll_index,
            attempts=result.attempts,
            probe=probe,
        )

    def _note_failure(self, status: TagStatus) -> None:
        status.consecutive_failures += 1
        obs.counter("gateway.poll.failures").inc()
        breaker_on = self.quarantine_base_cycles > 0
        if not breaker_on:
            return
        if status.breaker_state == BREAKER_HALF_OPEN:
            self._open_breaker(status)  # probe failed: double + requarantine
        elif status.consecutive_failures >= self.offline_threshold:
            self._open_breaker(status)

    def poll_once(self) -> List[SensorReading]:
        """Query every registered tag once; returns this cycle's readings.

        Quarantined tags are skipped (their polling budget is the whole
        point of the breaker); tags whose quarantine just expired get a
        single reopen probe.
        """
        if not self.registry:
            raise ConfigurationError("no tags registered")
        self.poll_index += 1
        readings: List[SensorReading] = []
        helper_rate = self.helper_rate_fn()
        if helper_rate <= 0:
            raise ConfigurationError("helper_rate_fn must return > 0")
        attempted = 0
        for status in self.registry.values():
            probe = False
            if status.breaker_state == BREAKER_OPEN:
                if self.poll_index < status.quarantined_until_poll:
                    status.skipped_polls += 1
                    obs.counter("gateway.poll.skipped").inc()
                    continue
                status.breaker_state = BREAKER_HALF_OPEN
                probe = True
            attempted += 1
            reading = self._poll_tag(status, helper_rate, probe)
            if reading is not None:
                readings.append(reading)
                self.published.append(reading)
                if self.publish is not None:
                    self.publish(reading)
        obs.counter("gateway.polls").inc()
        if obs.metrics_enabled():
            if attempted:
                obs.timeseries("gateway.delivery").sample(
                    len(readings) / attempted
                )
            obs.gauge("gateway.breaker.open").set(
                len(self.quarantined_tags())
            )
        if self.slo is not None and obs.metrics_enabled():
            fired = self.slo.evaluate(
                context={"poll_index": self.poll_index}
            )
            if fired:
                self.handle_alerts(fired)
        return readings

    def handle_alerts(self, alerts: Sequence[AlertEvent]) -> None:
        """React to fired SLO alerts (alert-driven breaker pre-emption).

        An alert whose rule carries ``action == "quarantine"``
        quarantines every tag that is already failing
        (``consecutive_failures >= 1``) but whose breaker has not yet
        tripped — the fleet-level SLO violation is evidence the link is
        sick, so waiting out the full ``offline_threshold`` per tag
        just burns polling budget.
        """
        self.alerts.extend(alerts)
        if not any(a.rule.action == "quarantine" for a in alerts):
            return
        if self.quarantine_base_cycles <= 0:
            return
        for status in self.registry.values():
            if (
                status.breaker_state == BREAKER_CLOSED
                and status.consecutive_failures >= 1
            ):
                self._open_breaker(status)
                obs.counter("gateway.breaker.preempted").inc()

    def poll(self, cycles: int) -> List[SensorReading]:
        """Run several poll cycles; returns all readings gathered."""
        if cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        out: List[SensorReading] = []
        for _ in range(cycles):
            out.extend(self.poll_once())
        return out

    # -- health -------------------------------------------------------------------

    def offline_tags(self) -> List[int]:
        """Tags past the consecutive-failure threshold."""
        return sorted(
            s.address
            for s in self.registry.values()
            if s.consecutive_failures >= self.offline_threshold
        )

    def quarantined_tags(self) -> List[int]:
        """Tags currently inside an open circuit breaker."""
        return sorted(
            s.address for s in self.registry.values() if s.quarantined
        )

    def health_report(self) -> List[TagStatus]:
        """All statuses, least available first."""
        return sorted(self.registry.values(), key=lambda s: s.availability)

    def health_metrics(self) -> Dict[str, float]:
        """Fleet-level health summary (also pushed to obs gauges)."""
        statuses = list(self.registry.values())
        total_polls = sum(s.polls for s in statuses)
        metrics = {
            "tags": float(len(statuses)),
            "poll_cycles": float(self.poll_index),
            "polls": float(total_polls),
            "successes": float(sum(s.successes for s in statuses)),
            "total_attempts": float(sum(s.total_attempts for s in statuses)),
            "skipped_polls": float(sum(s.skipped_polls for s in statuses)),
            "give_ups": float(sum(s.give_ups for s in statuses)),
            "probes": float(sum(s.probes for s in statuses)),
            "quarantined": float(len(self.quarantined_tags())),
            "offline": float(len(self.offline_tags())),
        }
        for name, value in metrics.items():
            obs.gauge(f"gateway.health.{name}").set(value)
        return metrics
