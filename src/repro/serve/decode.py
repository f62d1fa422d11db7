"""The picklable decode tasks the gateway fans out to workers.

One task = one queued request through the full uplink pipeline
(:func:`repro.sim.link.run_uplink_trial`); a micro-batch task carries
several of them and decodes them in turn.  The task is plain data and
its random stream derives purely from ``(root_seed, seq)``, so any
worker — or a supervised retry after a crash — decodes the identical
payload.  Fault plans are rewound before use so an inline (workers=0)
run sees the same injector state a freshly unpickled pool copy would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.faults.base import FaultPlan
from repro.obs import forensics


@dataclass(frozen=True)
class ServeDecodeTask:
    """Everything a worker needs to decode one request."""

    seq: int
    corr_id: str
    run_id: str
    root_seed: int
    payload_bits: int
    tag_to_reader_m: float
    packets_per_bit: float
    mode: str
    bit_rate_bps: float
    start_s: float
    faults: Optional[FaultPlan]
    helper_to_tag_m: float = 3.0
    #: Treat decode exceptions as failed-decode *data* even without an
    #: active fault plan.  The gateway sets this for fleet outlier tags
    #: (``ServeConfig.outlier_tags``), whose requests decode at a
    #: deliberately hostile distance — their failures are the point of
    #: the experiment, not pipeline bugs.
    lenient: bool = False

    @property
    def trial(self) -> int:
        # Dead-letter correlation: the request seq doubles as the
        # forensics trial index.
        return self.seq


def decode_request_task(task: ServeDecodeTask) -> Dict[str, Any]:
    """Engine task: decode one request -> plain result dict.

    Decode failures under an active fault plan are *data* (the request
    failed, the gateway accounts for it), not exceptions — matching the
    batch drivers' convention.  Without faults an error propagates.
    """
    t0 = time.perf_counter()
    active = task.faults is not None and not task.faults.empty
    if active:
        # Inline runs reuse one plan object across requests; rewinding
        # makes its state identical to the pristine copy each pool
        # worker unpickles, keeping workers=0 == workers=N.
        task.faults.reset()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(task.root_seed, 1, task.seq))
    )
    recording = obs.recording_enabled()
    if recording:
        forensics.begin(
            "serve", run_id=task.run_id, trial=task.seq, packet=0
        )
    # Local import: repro.sim.link imports the whole decode stack.
    from repro.sim.link import run_uplink_trial

    try:
        trial = run_uplink_trial(
            task.tag_to_reader_m,
            task.packets_per_bit,
            mode=task.mode,
            num_payload_bits=task.payload_bits,
            bit_rate_bps=task.bit_rate_bps,
            traffic="cbr",
            rng=rng,
            faults=task.faults,
            start_s=task.start_s,
            helper_to_tag_m=task.helper_to_tag_m,
        )
        if recording:
            forensics.commit(
                errors=trial.errors,
                error_bits=np.flatnonzero(
                    trial.sent_bits != trial.decoded_bits
                ),
            )
        # Fleet sketch: per-request decode error counts, observed in
        # whichever process ran the decode.  Integer-valued and folded
        # per task, so the parent's merged sketch is byte-identical to
        # an inline run's (see the fleet determinism contract tests).
        obs.histogram("fleet.decode.errors").observe(
            float(trial.errors)
        )
        return {
            "seq": task.seq,
            "ok": True,
            "errors": int(trial.errors),
            "payload": tuple(int(b) for b in trial.decoded_bits),
            "failure": "",
            "wall_s": time.perf_counter() - t0,
        }
    except ReproError as exc:
        if recording:
            forensics.commit(
                errors=task.payload_bits, failure=type(exc).__name__
            )
        if not active and not task.lenient:
            raise
        obs.histogram("fleet.decode.errors").observe(
            float(task.payload_bits)
        )
        return {
            "seq": task.seq,
            "ok": False,
            "errors": int(task.payload_bits),
            "payload": (),
            "failure": type(exc).__name__,
            "wall_s": time.perf_counter() - t0,
        }


# -- micro-batches -------------------------------------------------------------


@dataclass(frozen=True)
class ServeBatchTask:
    """One coalesced micro-batch: the members' own decode tasks.

    Micro-batching is a dispatch policy.  The batch travels to a worker
    as one supervised task, and each member decodes exactly as it would
    alone, so the delivered payloads match the unbatched gateway.  The
    ``seq``/``corr_id`` of the batch's first member double as the
    task's forensics correlation (a dead-lettered batch loses every
    member, which the gateway accounts per request).
    """

    batch_id: int
    tasks: Tuple[ServeDecodeTask, ...]

    @property
    def seq(self) -> int:
        return self.tasks[0].seq if self.tasks else -1

    @property
    def corr_id(self) -> str:
        return self.tasks[0].corr_id if self.tasks else ""

    @property
    def trial(self) -> int:
        return self.seq


def decode_batch_task(task: ServeBatchTask) -> List[Dict[str, Any]]:
    """Engine task: decode one micro-batch -> result dicts in seq order."""
    return [decode_request_task(member) for member in task.tasks]
