"""Fault-injection framework: composable, seeded chaos for the link.

The paper's link rides on *uncontrolled* ambient Wi-Fi: helper traffic
comes and goes, interferers key up, the tag's harvested energy budget
can brown it out mid-frame, and commodity readers contribute their own
artefacts (AGC re-locks, CSI dropouts, clock drift).  The clean-channel
simulation never exercises any of that, so this package provides the
machinery to: every injector is a :class:`FaultInjector` exposing a
small set of hooks, and a :class:`FaultPlan` composes several injectors
and applies them at well-defined points of the measurement pipeline.

Hook points (each a no-op unless an injector overrides it).  Every hook
takes a whole stream's rows at once, in row order; the per-frame entry
points of :class:`FaultPlan` call them with one row:

``drop_mask(times_s)``
    True where the helper packet at that time never reaches the reader
    (outage bursts, interferer captures the medium).
``dark_mask(times_s)``
    True where the tag's harvester cannot keep the modulator running
    (energy brownouts force the switch to the absorbing state).
``corrupt_rows(csi, rssi_dbm, has_csi, times_s)``
    Mutate the rows' CSI blocks / RSSI vectors in place and return the
    mask of rows it changed (sub-channel dropouts, NaN/saturation
    corruption, AGC gain jumps, interference noise).
``warp_times(times_s)``
    The reader's clock view of the times (oscillator drift + jitter).

Determinism contract: every injector draws randomness from its own
generator resolved through :func:`repro.sim.seeding.resolve_rng`, so a
plan built from the same spec/seed produces the *same* fault sequence,
independent of the driver's RNG.  It also makes the array hooks exact:
a row's value after injector *k* depends only on its value after
injector *k - 1* and on *k*'s own draws, so running injector by
injector over all rows gives what row by row over the injectors gives,
as long as each injector makes its draws in row order.  A disabled plan
(``faults=None`` or an empty plan) is zero-overhead: drivers skip the
hooks entirely and the driver's random stream is untouched, keeping
no-fault runs byte-identical to builds without this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

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

    def drop_mask(self, times_s: np.ndarray) -> np.ndarray:
        """True where the helper packet at that time is lost."""
        return np.zeros(len(times_s), dtype=bool)

    def dark_mask(self, times_s: np.ndarray) -> np.ndarray:
        """True where the tag's energy store is browned out."""
        return np.zeros(len(times_s), dtype=bool)

    def corrupt_rows(
        self,
        csi: np.ndarray,
        rssi_dbm: np.ndarray,
        has_csi: np.ndarray,
        times_s: np.ndarray,
    ) -> np.ndarray:
        """Mutate rows of the measurement arrays in place.

        Args:
            csi: writable C-contiguous float block, shape ``(n, antennas,
                subchannels)``; rows without CSI must stay untouched.
            rssi_dbm: writable float block, shape ``(n, antennas)``.
            has_csi: which rows carry CSI, shape ``(n,)``.
            times_s: row timestamps, shape ``(n,)``.

        Returns:
            Row mask, True where this injector changed the row.
        """
        return np.zeros(len(times_s), dtype=bool)

    def warp_times(self, times_s: np.ndarray) -> np.ndarray:
        """The reader-clock timestamps recorded for the true times."""
        return times_s

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
    for a given generator regardless of how many queries are made.  The
    interval bounds live in arrays that grow by doubling, because a plan
    (and its schedule) lives across trials.
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
        #: Start and end of every bad interval; the first ``_count``
        #: entries are live.
        self._starts = np.empty(16)
        self._ends = np.empty(16)
        self._count = 0
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
            if self._count == len(self._starts):
                self._starts = np.concatenate([self._starts, self._starts])
                self._ends = np.concatenate([self._ends, self._ends])
            self._starts[self._count] = start
            self._ends[self._count] = start + bad
            self._count += 1
            self._horizon_s = start + bad

    def _lookup(self, times: np.ndarray) -> np.ndarray:
        """Burst index per time, -1 where none, over the sampled part.

        ``idx`` is the last burst starting at or before each time, so
        the time is in it when it is also before that burst's end.
        """
        if not self._count:
            return np.full(len(times), -1, dtype=np.intp)
        idx = np.searchsorted(self._starts[:self._count], times,
                              side="right") - 1
        inside = (idx >= 0) & (times < self._ends[:self._count][idx])
        return np.where(inside, idx, -1)

    def in_burst(self, times_s: Sequence[float]) -> np.ndarray:
        """Whether each time falls inside a bad interval.

        Extends the schedule once, to the latest time.  Negative and
        NaN times are in no burst and extend nothing.
        """
        times = np.asarray(times_s, dtype=float)
        if self.duty_cycle > 0.0 and len(times):
            self._extend_to(float(np.fmax.reduce(times)))
        return self._lookup(times) >= 0

    def segments(
        self, times_s: np.ndarray
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Rows in runs that need no schedule draws, with their bursts.

        For injectors that draw from the schedule's generator between
        queries: each ``(a, b, bursts)`` is preceded by exactly the
        extension a row-by-row query of ``times_s[a]`` makes, and rows
        ``a + 1 .. b - 1`` lie below the new horizon.  So running each
        run's own draws in row order before taking the next run keeps
        the generator's draws in per-row order.  ``bursts`` holds the
        burst index per row of the run, -1 where none.
        """
        times = np.asarray(times_s, dtype=float)
        n = len(times)
        if self.duty_cycle == 0.0:
            if n:
                yield 0, n, np.full(n, -1, dtype=np.intp)
            return
        a = 0
        while a < n:
            if times[a] >= self._horizon_s:
                self._extend_to(float(times[a]))
            beyond = times[a + 1:] >= self._horizon_s
            b = a + 1 + int(beyond.argmax()) if beyond.any() else n
            yield a, b, self._lookup(times[a:b])
            a = b


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

    def _any(self, hook: str, times: np.ndarray) -> np.ndarray:
        """OR of every overriding injector's ``hook`` mask.

        Only schedule-driven injectors override the mask hooks, and a
        schedule's draws do not depend on which times are queried, so
        asking every injector about every time matches stopping at the
        first hit.
        """
        hits = np.zeros(len(times), dtype=bool)
        for inj in self._overriding(hook):
            hits |= getattr(inj, hook)(times)
        return hits

    def packet_mask(self, times_s: Sequence[float]) -> np.ndarray:
        """Boolean keep-mask over helper packet times (False = dropped)."""
        times = np.asarray(times_s, dtype=float)
        if self.empty:
            return np.ones(len(times), dtype=bool)
        keep = ~self._any("drop_mask", times)
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
        powered = ~self._any("dark_mask", times)
        dark = int(len(times) - powered.sum())
        if dark:
            obs.counter("faults.tag.brownout_samples").inc(dark)
        return powered

    def tag_powered(self, time_s: float) -> bool:
        """Whether the tag is powered at ``time_s`` (one-row mask)."""
        return not self._any("dark_mask", np.array([time_s], dtype=float))[0]

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
        """Whether the helper packet at ``time_s`` is lost (one-row mask)."""
        dropped = bool(
            self._any("drop_mask", np.array([time_s], dtype=float))[0]
        )
        if dropped:
            obs.counter("faults.packets.dropped").inc()
        return dropped

    def _corrupt(
        self,
        csi: np.ndarray,
        rssi: np.ndarray,
        has_csi: np.ndarray,
        times: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows through every corruption hook, then every clock warp.

        The corrupters share one writable copy of the CSI and RSSI
        blocks.  Returns ``(csi, rssi, warped, touched)``; ``touched``
        marks the rows some hook changed or whose time moved.
        """
        touched = np.zeros(len(times), dtype=bool)
        corrupters = self._overriding("corrupt_rows")
        if corrupters:
            csi = np.array(csi, dtype=float)
            rssi = np.array(rssi, dtype=float)
            for inj in corrupters:
                touched |= inj.corrupt_rows(csi, rssi, has_csi, times)
        warped = times
        for inj in self._overriding("warp_times"):
            warped = inj.warp_times(warped)
        touched |= warped != times
        return csi, rssi, warped, touched

    def corrupt_measurement(
        self, measurement: ChannelMeasurement
    ) -> ChannelMeasurement:
        """One record through every injector's corruption + clock warp."""
        has_csi = measurement.csi is not None
        csi, rssi, warped, touched = self._corrupt(
            measurement.csi[None] if has_csi else np.empty((1, 0, 0)),
            np.asarray(measurement.rssi_dbm)[None],
            np.array([has_csi]),
            np.array([measurement.timestamp_s], dtype=float),
        )
        if not touched[0]:
            return measurement
        obs.counter("faults.measurements.corrupted").inc()
        return ChannelMeasurement(
            timestamp_s=float(warped[0]),
            csi=csi[0] if has_csi else None,
            rssi_dbm=rssi[0],
            source=measurement.source,
        )

    def corrupt_records(
        self, stream: MeasurementStream
    ) -> Tuple[MeasurementStream, np.ndarray]:
        """Apply corruption + clock warp to every row of a stream.

        Each injector runs once over all rows, in plan order; warped
        timestamps are re-monotonized (cumulative max) so the result
        stays ordered.  The input stream itself comes back when nothing
        changed.

        Returns:
            ``(stream, touched)``: the rewritten stream and a row mask,
            True where the CSI, RSSI or timestamp changed.
        """
        times = stream.timestamps
        if not (self._overriding("corrupt_rows")
                or self._overriding("warp_times")):
            return stream, np.zeros(len(times), dtype=bool)
        csi, rssi, warped, touched = self._corrupt(
            stream.csi, stream.rssi_matrix(), stream.has_csi, times
        )
        corrupted = int(touched.sum())
        if corrupted:
            obs.counter("faults.measurements.corrupted").inc(corrupted)
        fixed = np.maximum.accumulate(warped)
        touched |= fixed != times
        if not touched.any():
            return stream, touched
        return stream.replaced(fixed, csi, rssi), touched

    # -- description ----------------------------------------------------------

    def describe(self) -> List[dict]:
        """Manifest-ready description of the whole plan."""
        return [inj.describe() for inj in self.injectors]

    def __len__(self) -> int:
        return len(self.injectors)
