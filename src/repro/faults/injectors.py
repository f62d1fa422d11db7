"""The concrete fault injectors (chaos menagerie).

Each class models one "in the wild" impairment the paper's deployment
would face.  All of them draw randomness from their own generator
resolved through :func:`repro.sim.seeding.resolve_rng` and snapshot its
state at construction, so ``reset()`` rewinds the injector to an exact
replay — same seed, same faults.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.base import BurstState, FaultInjector


def _cells(csi: np.ndarray) -> np.ndarray:
    """A CSI block as one row of cells per packet (a view of it)."""
    return csi.reshape(len(csi), int(np.prod(csi.shape[1:])))


def _bernoulli_draws(
    rng: np.random.Generator,
    probability: float,
    count: int,
    draw: Callable[[], Any],
) -> Tuple[List[int], List[Any]]:
    """Per-row Bernoulli trials with a follow-up draw on each hit.

    One uniform per row, and ``draw()`` right after each hit, in row
    order.  Returns the hit indices and their ``draw()`` values.

    The uniforms come in blocks of about four mean gaps, since
    ``random(k)`` yields what ``k`` scalar calls yield.  A block that
    runs past a hit restores the generator state saved before it,
    redraws up to the hit and makes the hit's draw.  The saved state
    keeps the 32-bit half a ``choice`` may leave buffered, which
    ``advance()`` would drop.  At dense ``p`` the rewinds cost more
    than a scalar loop (docs/performance.md, "Fault triage path").
    """
    hits: List[int] = []
    values: List[Any] = []
    # p * count < 4 also covers p = 0 and subnormal p, where 4 / p
    # divides by zero or overflows.
    block = count if probability * count < 4.0 else int(4.0 / probability)
    bit_generator = rng.bit_generator
    start = 0
    while start < count:
        size = min(block, count - start)
        saved = bit_generator.state
        below = rng.random(size) < probability
        first = int(below.argmax())
        if not below[first]:
            start += size
            continue
        if first < size - 1:
            bit_generator.state = saved
            rng.random(first + 1)
        hits.append(start + first)
        values.append(draw())
        start += first + 1
    return hits, values


class _SeededInjector(FaultInjector):
    """Shared seeded-RNG plumbing: resolve, snapshot, rewind."""

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        # Lazy import: repro.sim pulls in the whole simulation stack
        # (which itself uses faults), so a top-level import here would
        # be circular.
        from repro.sim.seeding import resolve_rng

        self.rng, self.seed = resolve_rng(rng, seed)
        self._initial_state = copy.deepcopy(self.rng.bit_generator.state)

    def reset(self) -> None:
        self.rng.bit_generator.state = copy.deepcopy(self._initial_state)

    def describe(self) -> dict:
        return {"name": self.name, "seed": self.seed}


class _BurstInjector(_SeededInjector):
    """Base for injectors active during Gilbert–Elliott bad intervals."""

    def __init__(
        self,
        duty_cycle: float,
        mean_burst_s: float,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(rng, seed)
        self.duty_cycle = duty_cycle
        self.mean_burst_s = mean_burst_s
        self._bursts = BurstState(duty_cycle, mean_burst_s, self.rng)

    def reset(self) -> None:
        super().reset()
        self._bursts = BurstState(self.duty_cycle, self.mean_burst_s, self.rng)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "duty_cycle": self.duty_cycle,
            "mean_burst_s": self.mean_burst_s,
            "seed": self.seed,
        }


class HelperOutage(_BurstInjector):
    """Bursty helper silence: packets inside bad intervals never arrive.

    Models the ambient traffic source pausing (TCP stalls, user walks
    off, AP serves another station): the reader simply hears nothing,
    so whole runs of tag bits get no measurements.
    """

    name = "outage"

    def drop_mask(self, times_s: np.ndarray) -> np.ndarray:
        return self._bursts.in_burst(times_s)


class InterferenceBurst(_BurstInjector):
    """Co-channel interference bursts swamping the measurements.

    Packets still arrive (carrier sense defers, then retransmits), but
    their channel estimates are buried in interference: CSI picks up
    large additive noise and RSSI jumps by the interferer's power.
    """

    name = "interference"

    def __init__(
        self,
        duty_cycle: float,
        mean_burst_s: float,
        csi_noise_rel: float = 1.0,
        rssi_shift_db: float = 8.0,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if csi_noise_rel < 0:
            raise FaultInjectionError("csi_noise_rel must be >= 0")
        super().__init__(duty_cycle, mean_burst_s, rng, seed)
        self.csi_noise_rel = csi_noise_rel
        self.rssi_shift_db = rssi_shift_db

    def corrupt_rows(
        self,
        csi: np.ndarray,
        rssi_dbm: np.ndarray,
        has_csi: np.ndarray,
        times_s: np.ndarray,
    ) -> np.ndarray:
        touched = np.zeros(len(times_s), dtype=bool)
        for a, _, bursts in self._bursts.segments(times_s):
            for row in (a + np.flatnonzero(bursts >= 0)).tolist():
                if has_csi[row]:
                    # The noise scales with the mean magnitude of the
                    # finite cells, so a row an earlier clause poisoned
                    # keeps its good cells.
                    magnitude = np.abs(csi[row])
                    finite = np.isfinite(magnitude)
                    count = int(finite.sum())
                    mean = (float(np.where(finite, magnitude, 0.0).sum())
                            / count if count else 0.0)
                    scale = self.csi_noise_rel * max(mean, 1e-12)
                    csi[row] += self.rng.normal(scale=scale,
                                                size=csi.shape[1:])
                rssi_dbm[row] = rssi_dbm[row] + self.rssi_shift_db + \
                    self.rng.normal(scale=1.0, size=rssi_dbm.shape[1:])
                touched[row] = True
        return touched

    def describe(self) -> dict:
        d = super().describe()
        d.update(csi_noise_rel=self.csi_noise_rel,
                 rssi_shift_db=self.rssi_shift_db)
        return d


class CsiDropout(_BurstInjector):
    """Sub-channel dropouts: the CSI tool reports garbage for a subset.

    During each burst a freshly sampled fraction of the (antenna,
    sub-channel) cells is replaced with NaN — the firmware simply did
    not estimate them.  Decoders must repair or reject these, never
    average them into MRC weights.
    """

    name = "csi_dropout"

    def __init__(
        self,
        duty_cycle: float,
        mean_burst_s: float,
        subchannel_fraction: float = 0.3,
        fill_value: float = float("nan"),
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < subchannel_fraction <= 1.0:
            raise FaultInjectionError("subchannel_fraction must be in (0, 1]")
        super().__init__(duty_cycle, mean_burst_s, rng, seed)
        self.subchannel_fraction = subchannel_fraction
        self.fill_value = fill_value
        self._burst_cells: dict = {}

    def reset(self) -> None:
        super().reset()
        self._burst_cells = {}

    def _cells_for_burst(self, burst: int, shape: Tuple[int, ...]) -> np.ndarray:
        key = (burst, shape)
        if key not in self._burst_cells:
            total = int(np.prod(shape))
            count = max(1, int(round(self.subchannel_fraction * total)))
            self._burst_cells[key] = self.rng.choice(
                total, size=count, replace=False
            )
        return self._burst_cells[key]

    def corrupt_rows(
        self,
        csi: np.ndarray,
        rssi_dbm: np.ndarray,
        has_csi: np.ndarray,
        times_s: np.ndarray,
    ) -> np.ndarray:
        touched = np.zeros(len(times_s), dtype=bool)
        rows = np.flatnonzero(has_csi)
        flat = _cells(csi)
        for a, b, bursts in self._bursts.segments(times_s[rows]):
            hit = bursts >= 0
            run, ids = rows[a:b][hit], bursts[hit]
            # A burst's cells are drawn when its first row comes up.
            unique, first = np.unique(ids, return_index=True)
            for burst in unique[np.argsort(first)].tolist():
                cells = self._cells_for_burst(burst, csi.shape[1:])
                flat[run[ids == burst][:, None], cells] = self.fill_value
            touched[run] = True
        return touched

    def describe(self) -> dict:
        d = super().describe()
        d.update(subchannel_fraction=self.subchannel_fraction)
        return d


class NanCorruption(_SeededInjector):
    """Sporadic NaN/inf/saturated samples in the CSI report.

    Firmware races and log truncation produce isolated poisoned values;
    with probability ``probability`` a record has ``cells`` of its CSI
    cells replaced by NaN, +inf, or a huge saturated constant.
    """

    name = "nan"

    MODES = ("nan", "inf", "saturate")

    def __init__(
        self,
        probability: float = 0.01,
        cells: int = 3,
        mode: str = "nan",
        saturate_value: float = 1e6,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise FaultInjectionError("probability must be in [0, 1]")
        if mode not in self.MODES:
            raise FaultInjectionError(f"mode must be one of {self.MODES}")
        if cells < 1:
            raise FaultInjectionError("cells must be >= 1")
        super().__init__(rng, seed)
        self.probability = probability
        self.cells = cells
        self.mode = mode
        self.saturate_value = saturate_value

    def _fill(self) -> float:
        if self.mode == "nan":
            return float("nan")
        if self.mode == "inf":
            return float("inf")
        return self.saturate_value

    def corrupt_rows(
        self,
        csi: np.ndarray,
        rssi_dbm: np.ndarray,
        has_csi: np.ndarray,
        times_s: np.ndarray,
    ) -> np.ndarray:
        rows = np.flatnonzero(has_csi)
        flat = _cells(csi)
        size = flat.shape[1]
        count = min(self.cells, size)
        hits, cells = _bernoulli_draws(
            self.rng, self.probability, len(rows),
            lambda: self.rng.choice(size, size=count, replace=False),
        )
        touched = np.zeros(len(times_s), dtype=bool)
        if hits:
            flat[rows[hits][:, None], np.array(cells)] = self._fill()
            touched[rows[hits]] = True
        return touched

    def describe(self) -> dict:
        return {
            "name": self.name,
            "probability": self.probability,
            "cells": self.cells,
            "mode": self.mode,
            "seed": self.seed,
        }


class AgcJump(_SeededInjector):
    """Occasional large AGC re-locks scaling a whole packet's CSI.

    The slow wander in :class:`repro.hardware.agc.AgcModel` is benign;
    this injects the pathological case — a sudden several-dB gain step
    on isolated packets when the front end re-locks mid-capture.
    """

    name = "agc_jump"

    def __init__(
        self,
        probability: float = 0.02,
        max_jump_db: float = 9.0,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise FaultInjectionError("probability must be in [0, 1]")
        if max_jump_db <= 0:
            raise FaultInjectionError("max_jump_db must be positive")
        super().__init__(rng, seed)
        self.probability = probability
        self.max_jump_db = max_jump_db

    def corrupt_rows(
        self,
        csi: np.ndarray,
        rssi_dbm: np.ndarray,
        has_csi: np.ndarray,
        times_s: np.ndarray,
    ) -> np.ndarray:
        rows = np.flatnonzero(has_csi)
        # The gain is a Python float power, so the C library pow; NumPy's
        # power may differ from it in the last bit.
        hits, gains = _bernoulli_draws(
            self.rng, self.probability, len(rows),
            lambda: 10.0 ** (
                self.rng.uniform(-self.max_jump_db, self.max_jump_db) / 20.0
            ),
        )
        touched = np.zeros(len(times_s), dtype=bool)
        if hits:
            csi[rows[hits]] *= np.array(gains)[:, None, None]
            touched[rows[hits]] = True
        return touched

    def describe(self) -> dict:
        return {
            "name": self.name,
            "probability": self.probability,
            "max_jump_db": self.max_jump_db,
            "seed": self.seed,
        }


class TagBrownout(_BurstInjector):
    """Harvested-energy brownouts: the tag goes dark in bursts.

    While browned out the modulator cannot hold the reflecting state,
    so the switch reads as absorbing (state 0) regardless of the bit
    being sent — exactly what an RF-powered tag does when its storage
    capacitor sags below the logic threshold (§6).
    """

    name = "brownout"

    def dark_mask(self, times_s: np.ndarray) -> np.ndarray:
        return self._bursts.in_burst(times_s)


class ReaderClockDrift(_SeededInjector):
    """Reader timestamp drift + jitter.

    Packet timestamps come from the capture host's clock; a drifting
    oscillator stretches the apparent bit grid and timestamp jitter
    smears measurements across bin boundaries.
    """

    name = "drift"

    def __init__(
        self,
        drift_ppm: float = 0.0,
        jitter_std_s: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if jitter_std_s < 0:
            raise FaultInjectionError("jitter_std_s must be >= 0")
        super().__init__(rng, seed)
        self.drift_ppm = drift_ppm
        self.jitter_std_s = jitter_std_s

    def warp_times(self, times_s: np.ndarray) -> np.ndarray:
        warped = times_s * (1.0 + self.drift_ppm * 1e-6)
        if self.jitter_std_s > 0:
            warped = warped + self.rng.normal(
                scale=self.jitter_std_s, size=len(warped)
            )
        return warped

    def describe(self) -> dict:
        return {
            "name": self.name,
            "drift_ppm": self.drift_ppm,
            "jitter_std_s": self.jitter_std_s,
            "seed": self.seed,
        }


class _WorkerFaultInjector(_SeededInjector):
    """Base for execution-substrate faults (crashed/hung pool workers).

    Unlike the link injectors, decisions here must be independent of
    *call order*: the supervised engine evaluates tasks in whatever
    order scheduling dictates, and the same task must see the same
    sabotage for any worker count.  Every decision therefore derives a
    throwaway generator from ``(root entropy, task_key)`` instead of
    drawing from a shared stream.
    """

    is_worker_fault = True

    def __init__(
        self,
        probability: float,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise FaultInjectionError("probability must be in [0, 1]")
        super().__init__(rng, seed)
        self.probability = probability
        # One draw fixes the per-task entropy root even when the caller
        # handed us a live generator (seed unknowable).
        self._entropy = (
            self.seed if self.seed is not None
            else int(self.rng.integers(0, 2**63))
        )

    def _task_draw(self, task_key: int) -> float:
        seq = np.random.SeedSequence(
            entropy=(self._entropy, int(task_key) & 0x7FFFFFFFFFFFFFFF)
        )
        return float(np.random.default_rng(seq).random())

    def _strikes_for(self, task_key: int, max_strikes: int) -> int:
        return max_strikes if self._task_draw(task_key) < self.probability \
            else 0


class WorkerCrash(_WorkerFaultInjector):
    """A pool worker dies mid-task (OOM kill, segfault, power loss).

    With probability ``probability`` a task's first ``max_crashes``
    attempts terminate the executing worker process outright; the
    supervised engine must detect the broken pool, restart it, and
    re-run the task under its original derived seed.
    """

    name = "worker_crash"

    def __init__(
        self,
        probability: float = 0.1,
        max_crashes: int = 1,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if max_crashes < 1:
            raise FaultInjectionError("max_crashes must be >= 1")
        super().__init__(probability, rng, seed)
        self.max_crashes = max_crashes

    def sabotage(
        self, task_key: int, attempt: int
    ) -> Optional[Tuple[str, float]]:
        if attempt < self._strikes_for(task_key, self.max_crashes):
            return ("crash", 0.0)
        return None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "probability": self.probability,
            "max_crashes": self.max_crashes,
            "seed": self.seed,
        }


class WorkerStall(_WorkerFaultInjector):
    """A pool worker hangs mid-task (deadlock, NFS stall, GC pause).

    With probability ``probability`` a task's first ``max_stalls``
    attempts sleep for ``stall_s`` seconds instead of returning
    promptly; the supervised engine's per-task wait budget must expire
    first and the task be retried, or the run would hang with it.
    """

    name = "worker_stall"

    def __init__(
        self,
        probability: float = 0.1,
        stall_s: float = 1.0,
        max_stalls: int = 1,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if stall_s <= 0:
            raise FaultInjectionError("stall_s must be positive")
        if max_stalls < 1:
            raise FaultInjectionError("max_stalls must be >= 1")
        super().__init__(probability, rng, seed)
        self.stall_s = stall_s
        self.max_stalls = max_stalls

    def sabotage(
        self, task_key: int, attempt: int
    ) -> Optional[Tuple[str, float]]:
        if attempt < self._strikes_for(task_key, self.max_stalls):
            return ("stall", self.stall_s)
        return None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "probability": self.probability,
            "stall_s": self.stall_s,
            "max_stalls": self.max_stalls,
            "seed": self.seed,
        }
