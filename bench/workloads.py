"""The four workloads, driven only through the system's public entry points.

``run_uplink_ber``, ``synthesize_uplink_trial``,
``UplinkDecoder.decode_bits``, ``ServeConfig``/``run_serve``,
``parse_fault_spec`` and ``obs.state.session``.  Module functions are
called through their module (``link.run_uplink_ber``) so the traced round
sees the wrappers :mod:`tracer` installs.

Ops are short (one transmission, one decode, one serve session) so the
median over a run's hundreds of ops rejects the seconds-long host stalls
a shared machine has.  Each workload takes its sizes as constructor
arguments, so the tests run the same code at small sizes.  Every op's
inputs derive from ``(seed, round, op index)``.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.uplink_decoder import UplinkDecoder
from repro.errors import ReproError
from repro.faults.spec import parse_fault_spec
from repro.obs import state as obs_state
from repro.serve.gateway import ServeConfig, run_serve
from repro.sim import link

import hostref
from metrics import SPECS
from tracer import Tracer

#: Op index the untimed warm-up op draws its seed from.
WARM_UP_INDEX = 2**31


class CheckFailed(Exception):
    """The program returned a wrong output; the run must not report."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def op_seed(seed: int, rnd: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, rnd, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    cls: str
    seed: int


@dataclass
class OpResult:
    """One op's timed seconds, work units and bit-level outcome.

    ``lost`` marks a call that raised the program's own
    :class:`ReproError` -- a frame the decoder documents as undecodable,
    such as a preamble found too late -- and ``failed`` one that raised
    anything else.  Either scores all its bits wrong; a lost op still
    did its work, a failed one counts in the run's ``failed``.  ``core``
    marks the ops every round runs whatever the host speed.
    """

    cls: str
    seconds: float
    work: int
    bits: int
    errors: int
    lost: bool = False
    failed: bool = False
    error: str = ""
    core: bool = False
    host_ref_ms: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


def timed(cls: str, work: int, bits: int, call: Callable[[], Any]):
    """``(value, seconds, None)`` from ``call()``, or ``(None, seconds,
    result)`` with the lost or failed :class:`OpResult` when it raised."""
    t0 = time.perf_counter()
    try:
        value = call()
    except ReproError as exc:
        return None, 0.0, OpResult(cls, time.perf_counter() - t0, work, bits,
                                   bits, lost=True, error=repr(exc))
    except Exception as exc:
        return None, 0.0, OpResult(cls, time.perf_counter() - t0, work, bits,
                                   bits, failed=True, error=repr(exc))
    return value, time.perf_counter() - t0, None


class Fig10Sweep:
    """One op is one transmission: ``run_uplink_ber(..., repeats=1)``.

    A round holds its distance, so six rounds sweep the six Fig 10a
    (CSI) and Fig 10b (RSSI) distances.
    """

    NAME = "fig10_sweep"
    DISTANCES = {
        "csi": (0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
        "rssi": (0.1, 0.15, 0.2, 0.25, 0.3, 0.4),
    }
    PACKETS_PER_BIT = 30.0
    PAYLOAD_BITS = 90

    def __init__(self, cycles: int = 10) -> None:
        self.spec = SPECS[self.NAME]
        self.cycles = cycles

    def transmission(self, mode: str, distance: float, seed: int):
        return link.run_uplink_ber(
            distance, self.PACKETS_PER_BIT, mode=mode, repeats=1,
            num_payload_bits=self.PAYLOAD_BITS, seed=seed,
        )

    def warm_up(self, seed: int) -> None:
        self.transmission("csi", self.DISTANCES["csi"][0], seed)

    def run(self, op: Op, rnd: int, tracer: Optional[Tracer]) -> OpResult:
        bits = self.PAYLOAD_BITS
        distances = self.DISTANCES[op.cls]
        result, seconds, raised = timed(op.cls, 1, bits, lambda: (
            self.transmission(op.cls, distances[rnd % len(distances)],
                              op.seed)
        ))
        if raised:
            return raised
        check(result.total_bits == bits,
              f"{self.spec.name}: {result.total_bits} bits scored, "
              f"expected {bits}")
        return OpResult(op.cls, seconds, 1, bits, int(result.errors))


class FaultSweep(Fig10Sweep):
    """Fig 10 transmissions under a fault plan, flight recorder on."""

    NAME = "fault_sweep"
    PACKETS_PER_BIT = 10.0
    FAULTS = ("outage:duty=0.1,burst=0.3;"
              "csi_dropout:duty=0.2,burst=0.2,frac=0.5;"
              "nan:prob=0.01;agc_jump:prob=0.02")

    def transmission(self, mode: str, distance: float, seed: int):
        # The user-facing ``--record`` triage path.
        with obs_state.session(metrics=False, tracing=False, recording=True):
            return link.run_uplink_ber(
                distance, self.PACKETS_PER_BIT, mode=mode, repeats=1,
                num_payload_bits=self.PAYLOAD_BITS, seed=seed,
                faults=parse_fault_spec(self.FAULTS, base_seed=seed),
            )


@dataclass(frozen=True)
class ReplayClass:
    distance_m: float
    packets_per_bit: float
    num_bits: int
    mode: str
    known_timing: bool


class DecodeReplay:
    """One op synthesizes a fresh stream untimed (tracing paused), then
    times one ``decode_bits`` on it with a shared decoder.

    Every stream is decoded exactly once, so the stream's stacked-view
    memo never makes a decode look cheaper than a first decode.
    """

    #: The preamble-search classes (B, D) stay at 32 bits and <= 0.3 m.
    #: Longer payloads or ranges put 1-3% of frame starts too late, and
    #: the decode raises; at these settings that happens about once in
    #: several thousand frames, and the op records a lost frame.
    CLASSES = {
        "A": ReplayClass(0.3, 30, 90, "csi", True),
        "B": ReplayClass(0.2, 10, 32, "csi", False),
        "C": ReplayClass(0.2, 30, 90, "rssi", True),
        "D": ReplayClass(0.3, 30, 32, "csi", False),
    }
    BIT_RATE_BPS = 100.0

    def __init__(self, cycles: int = 6) -> None:
        self.spec = SPECS["decode_replay"]
        self.cycles = cycles
        self.decoder = UplinkDecoder()

    def warm_up(self, seed: int) -> None:
        self.run(Op("A", seed), 0, None)

    def run(self, op: Op, rnd: int, tracer: Optional[Tracer]) -> OpResult:
        c = self.CLASSES[op.cls]
        with (tracer.paused() if tracer is not None
              else contextlib.nullcontext()):
            payload, stream, tx_start = link.synthesize_uplink_trial(
                c.distance_m, c.packets_per_bit, num_payload_bits=c.num_bits,
                bit_rate_bps=self.BIT_RATE_BPS,
                rng=np.random.default_rng(op.seed),
            )
        result, seconds, raised = timed(op.cls, 1, c.num_bits, lambda: (
            self.decoder.decode_bits(
                stream, c.num_bits, 1.0 / self.BIT_RATE_BPS, mode=c.mode,
                start_time_s=tx_start if c.known_timing else None,
            )
        ))
        if raised:
            return raised
        check(len(result.bits) == c.num_bits,
              f"decode_replay: class {op.cls} returned {len(result.bits)} "
              f"bits, expected {c.num_bits}")
        errors = int(np.count_nonzero(np.asarray(payload) != result.bits))
        return OpResult(op.cls, seconds, 1, c.num_bits, errors)


class ServeBurst:
    """One op is one ``run_serve`` session on the virtual clock.

    A work unit is a decoded request: a shed or abandoned one costs the
    host next to nothing, so counting arrivals would make the rate
    follow each session's shed count.
    """

    #: 2x the 6.25 rps decode capacity from 3 s to 7 s of a 10 s session.
    #: Short sessions give a run ~60 of them, whose median shrugs off
    #: the host's sub-second stalls.
    CONFIG = ServeConfig(
        duration_s=10.0, offered_load_rps=4.0, burst_load_rps=12.5,
        burst_start_s=3.0, burst_end_s=7.0, deadline_ms=2500.0,
        queue_capacity=12, batch=4, batch_max=16, batch_window_s=0.25,
        workers=0, n_tags=64, payload_bits=8, packets_per_bit=6.0,
        bit_rate_bps=50.0,
    )

    def __init__(self, cycles: int = 4) -> None:
        self.spec = SPECS["serve_burst"]
        self.cycles = cycles

    def warm_up(self, seed: int) -> None:
        run_serve(replace(self.CONFIG, duration_s=3.0), seed=seed)

    def run(self, op: Op, rnd: int, tracer: Optional[Tracer]) -> OpResult:
        result, seconds, raised = timed(
            op.cls, 0, 0, lambda: run_serve(self.CONFIG, seed=op.seed)
        )
        if raised:
            return raised
        report = result.report
        check(report.accounted == report.arrivals,
              f"serve_burst: {report.accounted} requests accounted of "
              f"{report.arrivals} arrivals")
        for outcome in result.delivered:
            check(len(outcome.payload) == self.CONFIG.payload_bits,
                  f"serve_burst: {outcome.corr_id} delivered "
                  f"{len(outcome.payload)} bits")
        return OpResult(
            op.cls, seconds, report.delivered + report.decode_failed,
            report.delivered_bits, report.error_bits,
            extra={
                "arrivals": report.arrivals,
                "delivered": report.delivered,
                "virtual_p99_s": report.latency_p99_s,
                "batch_size_mean": report.batch_size_mean,
                "queue_depth_max": report.queue_depth_max,
                "shed": report.shed,
                "deadline_abandoned": report.deadline_abandoned,
            },
        )


def make(name: str):
    """The workload ``name`` at its benchmark sizes."""
    return {
        "fig10_sweep": Fig10Sweep,
        "decode_replay": DecodeReplay,
        "serve_burst": ServeBurst,
        "fault_sweep": FaultSweep,
    }[name]()


def run_round(
    workload,
    seed: int,
    rnd: int,
    budget_s: float = 0.0,
    tracer: Optional[Tracer] = None,
) -> List[dict]:
    """One round: ``workload.cycles`` whole cycles, then more while the
    last cycle's duration still fits in ``budget_s``.

    Before every op, outside its timing, the garbage of earlier ops is
    collected (so neither its pause nor its memory lands on this op) and
    the host reference kernel runs.
    """
    classes = workload.spec.classes
    inputs = hostref.make_inputs()
    results: List[dict] = []
    start = time.perf_counter()
    last_cycle_s = 0.0
    cycle = 0
    while cycle < workload.cycles or (
        time.perf_counter() - start + last_cycle_s <= budget_s
    ):
        cycle_start = time.perf_counter()
        for k, cls in enumerate(classes):
            index = cycle * len(classes) + k
            gc.collect()
            host_ms = hostref.host_ref_ms(inputs)
            result = workload.run(Op(cls, op_seed(seed, rnd, index)), rnd,
                                  tracer)
            result.core = cycle < workload.cycles
            result.host_ref_ms = host_ms
            results.append(asdict(result))
        last_cycle_s = time.perf_counter() - cycle_start
        cycle += 1
    return results
