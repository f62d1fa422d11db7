"""Fault-injection framework: composable, seeded chaos for the link.

The paper's link rides on *uncontrolled* ambient Wi-Fi: helper traffic
comes and goes, interferers key up, the tag's harvested energy budget
can brown it out mid-frame, and commodity readers contribute their own
artefacts (AGC re-locks, CSI dropouts, clock drift).  The clean-channel
simulation never exercises any of that, so this package provides the
machinery to: every injector is a :class:`FaultInjector` exposing a
small set of hooks, and a :class:`FaultPlan` composes several injectors
and applies them at well-defined points of the measurement pipeline.

Hook points (each a no-op unless an injector overrides it):

``drop_packet(t)``
    The helper packet at time ``t`` never reaches the reader (outage
    bursts, interferer captures the medium).
``corrupt(csi, rssi, t)``
    Mutate one measurement record's CSI matrix / RSSI vector
    (sub-channel dropouts, NaN/saturation corruption, AGC gain jumps,
    interference noise).
``tag_powered(t)``
    Whether the tag's harvester can keep the modulator running at
    ``t`` (energy brownouts force the switch to the absorbing state).
``warp_timestamp(t)``
    The reader's clock view of ``t`` (oscillator drift + jitter).

Determinism contract: every injector draws randomness from its own
generator resolved through :func:`repro.sim.seeding.resolve_rng`, so a
plan built from the same spec/seed produces the *same* fault sequence,
independent of the driver's RNG.  A disabled plan (``faults=None`` or an
empty plan) is zero-overhead: drivers skip the hooks entirely and the
driver's random stream is untouched, keeping no-fault runs byte-identical
to builds without this package.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import FaultInjectionError
from repro.measurement import ChannelMeasurement, MeasurementStream


class FaultInjector:
    """Base class: one fault mechanism with seeded, replayable state.

    Subclasses override the hooks they model and leave the rest as
    inherited no-ops.  ``reset()`` must return the injector to its
    just-constructed state so a plan can be replayed deterministically.
    """

    #: Short machine name used by the spec parser and obs counters.
    name = "fault"

    #: True for injectors that sabotage the *execution substrate*
    #: (worker processes) rather than the measured link.
    is_worker_fault = False

    def reset(self) -> None:
        """Return to the just-constructed (replayable) state."""

    # -- hooks ----------------------------------------------------------------

    def drop_packet(self, time_s: float) -> bool:
        """True when the helper packet at ``time_s`` is lost."""
        return False

    def corrupt(
        self,
        csi: Optional[np.ndarray],
        rssi_dbm: np.ndarray,
        time_s: float,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Mutate one record's measurements; return the new pair."""
        return csi, rssi_dbm

    def tag_powered(self, time_s: float) -> bool:
        """False while the tag's energy store is browned out."""
        return True

    def warp_timestamp(self, time_s: float) -> float:
        """The reader-clock timestamp recorded for true time ``time_s``."""
        return time_s

    def sabotage(
        self, task_key: int, attempt: int
    ) -> Optional[Tuple[str, float]]:
        """Worker-process sabotage for attempt ``attempt`` of a task.

        Returns ``("crash", 0.0)``, ``("stall", stall_s)``, or None.
        Must be a pure function of ``(task_key, attempt)`` and the
        injector's seed — never of call order — so the supervised
        engine reaches the same dead-letter/retry outcome for any
        worker count or scheduling.
        """
        return None

    # -- description ----------------------------------------------------------

    def describe(self) -> dict:
        """Spec-like parameter dict for run manifests."""
        return {"name": self.name}


class BurstState:
    """Lazily sampled alternating good/bad (Gilbert–Elliott) intervals.

    Dwell times are exponential with means chosen so the long-run
    fraction of time spent in the bad state equals ``duty_cycle`` and
    bad intervals average ``mean_burst_s``.  Intervals are extended on
    demand as later times are queried, so the schedule is deterministic
    for a given generator regardless of how many queries are made.
    """

    def __init__(
        self,
        duty_cycle: float,
        mean_burst_s: float,
        rng: np.random.Generator,
    ) -> None:
        if not 0.0 <= duty_cycle < 1.0:
            raise FaultInjectionError("duty_cycle must be in [0, 1)")
        if mean_burst_s <= 0:
            raise FaultInjectionError("mean_burst_s must be positive")
        self.duty_cycle = duty_cycle
        self.mean_burst_s = mean_burst_s
        self._rng = rng
        self._bad: List[Tuple[float, float]] = []
        #: Start of every bad interval, for bisection.
        self._starts: List[float] = []
        self._horizon_s = 0.0

    @property
    def mean_good_s(self) -> float:
        if self.duty_cycle == 0.0:
            return float("inf")
        return self.mean_burst_s * (1.0 - self.duty_cycle) / self.duty_cycle

    def _extend_to(self, time_s: float) -> None:
        while self._horizon_s <= time_s:
            good = self._rng.exponential(self.mean_good_s)
            bad = self._rng.exponential(self.mean_burst_s)
            start = self._horizon_s + good
            self._bad.append((start, start + bad))
            self._starts.append(start)
            self._horizon_s = start + bad

    def in_burst(self, time_s: float) -> bool:
        """Whether ``time_s`` falls inside a bad interval."""
        return self.burst_index(time_s) is not None

    def burst_index(self, time_s: float) -> Optional[int]:
        """Index of the burst covering ``time_s``, or None."""
        if self.duty_cycle == 0.0 or time_s < 0:
            return None
        self._extend_to(time_s)
        idx = bisect.bisect_right(self._starts, time_s) - 1
        if idx < 0:
            return None
        start, end = self._bad[idx]
        return idx if start <= time_s < end else None


@dataclass
class FaultPlan:
    """A composition of fault injectors applied to the pipeline.

    Drivers accept ``faults: Optional[FaultPlan]`` and must treat
    ``None`` and :meth:`empty` plans identically (skip every hook), so
    fault-free runs cost nothing and stay byte-identical.
    """

    injectors: Tuple[FaultInjector, ...] = ()

    def __post_init__(self) -> None:
        self.injectors = tuple(self.injectors)
        for inj in self.injectors:
            if not isinstance(inj, FaultInjector):
                raise FaultInjectionError(
                    f"FaultPlan takes FaultInjector instances, got {inj!r}"
                )

    @property
    def empty(self) -> bool:
        return not self.injectors

    def reset(self) -> None:
        """Rewind every injector for a deterministic replay."""
        for inj in self.injectors:
            inj.reset()

    # -- pipeline application -------------------------------------------------

    def _overriding(self, hook: str) -> List[FaultInjector]:
        """Injectors that override ``hook``, in plan order.

        The base hooks are pure no-ops, so skipping them leaves every
        draw and result as calling each injector would.
        """
        base = getattr(FaultInjector, hook)
        return [inj for inj in self.injectors
                if getattr(type(inj), hook) is not base]

    def _first_hit(self, hook: str, times_s: Sequence[float],
                   hit_when: bool) -> np.ndarray:
        """Per-time mask: True where some injector's ``hook`` returns
        ``hit_when``; the injectors run in plan order and stop at the
        first hit, time by time."""
        times = np.asarray(times_s, dtype=float)
        hits = np.zeros(len(times), dtype=bool)
        hooks = [getattr(inj, hook) for inj in self._overriding(hook)]
        if hooks:
            for i, t in enumerate(times.tolist()):
                for fn in hooks:
                    if bool(fn(t)) == hit_when:
                        hits[i] = True
                        break
        return hits

    def packet_mask(self, times_s: Sequence[float]) -> np.ndarray:
        """Boolean keep-mask over helper packet times (False = dropped)."""
        times = np.asarray(times_s, dtype=float)
        if self.empty:
            return np.ones(len(times), dtype=bool)
        keep = ~self._first_hit("drop_packet", times, True)
        dropped = int(len(times) - keep.sum())
        if dropped:
            obs.counter("faults.packets.dropped").inc(dropped)
        if obs.metrics_enabled() and len(times):
            obs.timeseries("faults.packets.drop_fraction").sample(
                dropped / len(times)
            )
        return keep

    def tag_powered_mask(self, times_s: Sequence[float]) -> np.ndarray:
        """Boolean powered-mask over sample times (False = browned out)."""
        times = np.asarray(times_s, dtype=float)
        if self.empty:
            return np.ones(len(times), dtype=bool)
        powered = ~self._first_hit("tag_powered", times, False)
        dark = int(len(times) - powered.sum())
        if dark:
            obs.counter("faults.tag.brownout_samples").inc(dark)
        return powered

    def tag_powered(self, time_s: float) -> bool:
        return all(inj.tag_powered(time_s) for inj in self.injectors)

    @property
    def has_worker_faults(self) -> bool:
        """Whether any injector sabotages worker processes."""
        return any(inj.is_worker_fault for inj in self.injectors)

    def worker_sabotage(
        self, task_key: int, attempt: int
    ) -> Optional[Tuple[str, float]]:
        """First injector-ordained sabotage for this task attempt.

        The supervised engine consults this before dispatching each
        attempt; crash wins over stall when both would fire (a dead
        process cannot also hang).
        """
        chosen: Optional[Tuple[str, float]] = None
        for inj in self.injectors:
            action = inj.sabotage(task_key, attempt)
            if action is None:
                continue
            if action[0] == "crash":
                return action
            if chosen is None:
                chosen = action
        return chosen

    def drop_packet(self, time_s: float) -> bool:
        dropped = any(inj.drop_packet(time_s) for inj in self.injectors)
        if dropped:
            obs.counter("faults.packets.dropped").inc()
        return dropped

    def _corrupt_row(self, csi, rssi, time_s, corrupters, warpers):
        """One row through every corruption hook, then every clock warp.

        Returns ``(csi, rssi, warped_s, changed)``; an injector hands
        back the very arrays it was given when it leaves a row alone.
        """
        new_csi, new_rssi = csi, rssi
        for inj in corrupters:
            new_csi, new_rssi = inj.corrupt(new_csi, new_rssi, time_s)
        warped = time_s
        for inj in warpers:
            warped = inj.warp_timestamp(warped)
        changed = (new_csi is not csi or new_rssi is not rssi
                   or warped != time_s)
        return new_csi, new_rssi, warped, changed

    def corrupt_measurement(
        self, measurement: ChannelMeasurement
    ) -> ChannelMeasurement:
        """One record through every injector's corruption + clock warp."""
        csi, rssi, warped, changed = self._corrupt_row(
            measurement.csi, measurement.rssi_dbm, measurement.timestamp_s,
            self._overriding("corrupt"), self._overriding("warp_timestamp"),
        )
        if not changed:
            return measurement
        obs.counter("faults.measurements.corrupted").inc()
        return ChannelMeasurement(
            timestamp_s=warped,
            csi=csi,
            rssi_dbm=rssi,
            source=measurement.source,
        )

    def corrupt_records(
        self, stream: MeasurementStream
    ) -> Tuple[MeasurementStream, np.ndarray]:
        """Apply corruption + clock warp to every row of a stream.

        Rows go through the hooks one by one, in row order, so each
        injector sees the calls (and makes the draws) it would on a
        per-record capture.  Warped timestamps are re-monotonized
        (cumulative max) so the result stays ordered.

        Returns:
            ``(stream, touched)``: the rewritten stream and a row mask,
            True where the CSI, RSSI or timestamp changed.
        """
        times = stream.timestamps
        touched = np.zeros(len(times), dtype=bool)
        corrupters = self._overriding("corrupt")
        warpers = self._overriding("warp_timestamp")
        if not (corrupters or warpers):
            return stream, touched
        csi_in, rssi_in = stream.csi, stream.rssi_matrix()
        csi_out = rssi_out = None
        warped = times.copy()
        for i, (t, has_csi) in enumerate(
            zip(times.tolist(), stream.has_csi.tolist())
        ):
            csi = csi_in[i] if has_csi else None
            rssi = rssi_in[i]
            new_csi, new_rssi, warped[i], touched[i] = self._corrupt_row(
                csi, rssi, t, corrupters, warpers
            )
            if new_csi is not csi:
                if csi_out is None:
                    csi_out = csi_in.copy()
                csi_out[i] = new_csi
            if new_rssi is not rssi:
                if rssi_out is None:
                    rssi_out = rssi_in.copy()
                rssi_out[i] = new_rssi
        corrupted = int(touched.sum())
        if corrupted:
            obs.counter("faults.measurements.corrupted").inc(corrupted)
        fixed = np.maximum.accumulate(warped)
        touched |= fixed != times
        if not touched.any():
            return stream, touched
        return stream.replaced(fixed, csi_out, rssi_out), touched

    # -- description ----------------------------------------------------------

    def describe(self) -> List[dict]:
        """Manifest-ready description of the whole plan."""
        return [inj.describe() for inj in self.injectors]

    def __len__(self) -> int:
        return len(self.injectors)
