"""Outside-in layer tracing: wrap public functions, sum self time.

Nothing here touches ``src/``.  :func:`install` replaces each wrap point's
function object in the namespace its callers look it up in (the defining
module, the class for methods, and the importing module for names bound
with ``from ... import``) with a wrapper that records one span per call.
Spans stay in memory; :func:`aggregate` turns them into per-name call
counts, self time (span duration minus the time its child spans cover)
and total time once, when the round ends.

Three per-packet functions run ~240k times per round, so they get a
counter-only wrapper with no clock reads.

A wrap point whose target no longer exists is reported as missing and
skipped, so a refactor of ``src/`` cannot break the end-to-end run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

FIG10 = "fig10_sweep"
DECODE = "decode_replay"
SERVE = "serve_burst"
FAULT = "fault_sweep"
WORKLOADS = (FIG10, DECODE, SERVE, FAULT)

SYNTH = (FIG10, SERVE, FAULT)
SCALAR_DECODE = (FIG10, DECODE, FAULT)


@dataclass(frozen=True)
class WrapPoint:
    """One function the tracer wraps.

    Attributes:
        target: ``"module:attr"`` or ``"module:Class.method"``.
        fires_on: the workloads whose traced round calls it; every other
            workload must record zero calls (the bypass predictions).
        sites: modules that bound the function with ``from ... import``.
        counter_only: count calls without reading the clock.
        alias: metric stem overriding the derived one.
    """

    target: str
    fires_on: Tuple[str, ...]
    sites: Tuple[str, ...] = ()
    counter_only: bool = False
    alias: str = ""

    @property
    def name(self) -> str:
        """Module path under ``repro.`` plus the function, class dropped."""
        if self.alias:
            return self.alias
        module, attr = self.target.split(":")
        return f"{module[len('repro.'):]}.{attr.split('.')[-1]}"

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


WRAP_POINTS: Tuple[WrapPoint, ...] = (
    # sim
    WrapPoint("repro.sim.link:run_uplink_ber", (FIG10, FAULT)),
    WrapPoint("repro.sim.link:run_uplink_trial", (FIG10, FAULT)),
    WrapPoint("repro.sim.link:synthesize_uplink_trial", SYNTH),
    WrapPoint("repro.sim.link:simulate_uplink_stream", SYNTH),
    WrapPoint("repro.sim.link:helper_packet_times", SYNTH),
    WrapPoint("repro.sim.engine:run_trials", (FIG10, FAULT)),
    WrapPoint("repro.sim.engine:run_trials_supervised", (SERVE,)),
    WrapPoint("repro.sim.calibration:make_channel", SYNTH),
    WrapPoint("repro.sim.calibration:make_card", SYNTH),
    # phy
    WrapPoint(
        "repro.phy.backscatter_channel:BackscatterChannel.response_batch",
        SYNTH,
    ),
    WrapPoint("repro.phy.fading:TemporalDrift.sample_batch", SYNTH),
    WrapPoint("repro.phy.fading:TemporalDrift.sample", SYNTH,
              counter_only=True),
    # hardware
    WrapPoint("repro.hardware.intel5300:Intel5300.measure_batch", SYNTH),
    WrapPoint("repro.hardware.agc:AgcModel.next_gains", SYNTH),
    WrapPoint("repro.hardware.rssi:RssiModel.measure_batch", SYNTH),
    # tag
    WrapPoint("repro.tag.modulator:TagModulator.load_bits", SYNTH),
    WrapPoint("repro.tag.modulator:TagModulator.state", SYNTH,
              counter_only=True),
    # measurement
    WrapPoint("repro.measurement:MeasurementStream.extend", SYNTH),
    WrapPoint("repro.measurement:MeasurementStream.csi_matrix", WORKLOADS),
    WrapPoint("repro.measurement:MeasurementStream.rssi_matrix",
              SCALAR_DECODE),
    WrapPoint("repro.measurement:MeasurementStream.flattened_csi", WORKLOADS),
    WrapPoint("repro.measurement:ChannelMeasurement.__post_init__", SYNTH,
              counter_only=True, alias="measurement.records"),
    # faults
    WrapPoint("repro.faults.base:FaultPlan.packet_mask", (FAULT,)),
    WrapPoint("repro.faults.base:FaultPlan.tag_powered_mask", (FAULT,)),
    WrapPoint("repro.faults.base:FaultPlan.corrupt_records", (FAULT,)),
    # core
    WrapPoint("repro.core.uplink_decoder:UplinkDecoder.decode_bits",
              SCALAR_DECODE),
    WrapPoint("repro.core.conditioning:condition", SCALAR_DECODE),
    WrapPoint("repro.core.conditioning:sanitize", SCALAR_DECODE),
    WrapPoint("repro.core.subchannel:detect_preamble", (DECODE,)),
    WrapPoint("repro.core.subchannel:correlation_matrix", (DECODE,)),
    # Only the batched decoder's preamble scan calls it, and the serve
    # path decodes with known timing.
    WrapPoint("repro.core.subchannel:correlation_matrix_batch", ()),
    WrapPoint("repro.core.subchannel:select_good_subchannels",
              SCALAR_DECODE),
    WrapPoint("repro.core.combining:make_weights", SCALAR_DECODE),
    WrapPoint("repro.core.combining:combine", SCALAR_DECODE),
    WrapPoint("repro.core.slicer:hysteresis_slice", SCALAR_DECODE),
    WrapPoint("repro.core.slicer:majority_vote_bits", SCALAR_DECODE),
    WrapPoint("repro.core.batch:BatchedUplinkDecoder.decode_batch", (SERVE,)),
    # serve
    WrapPoint("repro.serve.gateway:StreamingDecodeGateway.run", (SERVE,)),
    WrapPoint("repro.serve.arrivals:generate_arrivals", (SERVE,),
              sites=("repro.serve.gateway",)),
    WrapPoint("repro.serve.decode:decode_batch_task", (SERVE,),
              sites=("repro.serve.gateway",)),
    WrapPoint("repro.serve.queues:BoundedPriorityQueue.offer", (SERVE,)),
    WrapPoint("repro.serve.queues:BoundedPriorityQueue.pop_batch", (SERVE,)),
    WrapPoint("repro.serve.lifecycle:LifecycleTracker.finish", (SERVE,)),
    # obs
    WrapPoint("repro.obs.fleet.aggregate:FleetAggregator.fold", (SERVE,)),
    WrapPoint("repro.obs.fleet.aggregate:FleetAggregator.detect", (SERVE,)),
    WrapPoint("repro.obs.forensics:begin", (FAULT,)),
    WrapPoint("repro.obs.forensics:stage", (FAULT,)),
    WrapPoint("repro.obs.forensics:commit", (FAULT,)),
)

#: Layers in report order.
LAYERS = tuple(dict.fromkeys(point.layer for point in WRAP_POINTS))


class Tracer:
    """In-memory span recorder shared by every installed wrapper.

    A span is ``[name, start, end, parent_index]``; the parent is the
    span open on the stack when the call began (``-1`` for a root).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.is_paused = False
        self._stack: List[int] = []

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls inside the block record neither spans nor counts."""
        saved = self.is_paused
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = saved

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.is_paused:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.is_paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``/``self_s``/``total_s`` plus counter calls."""
        out = aggregate(self.spans)
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        return out


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Self time per name from ``[name, start, end, parent]`` spans.

    A span's self time is its duration minus the durations of its
    direct children (which are nested inside it).  ``total_s`` double
    counts a name that recurses into itself; no wrap point does.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_s[i]
        entry["total_s"] += end - start
    return out


def _resolve(target: str):
    """``(owner, attr, original)`` for a wrap target; raises if gone."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = owner.__dict__[attr] if classes else getattr(owner, attr)
    if not callable(original):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, original


def install(
    tracer: Tracer, points: Sequence[WrapPoint] = WRAP_POINTS
) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every point; returns ``(restore, missing_names)``."""
    patched: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    for point in points:
        try:
            owner, attr, original = _resolve(point.target)
            owners = [owner]
            for site in point.sites:
                site_module = importlib.import_module(site)
                if getattr(site_module, attr, None) is not original:
                    raise AttributeError(f"{site}.{attr} is rebound")
                owners.append(site_module)
        except (ImportError, AttributeError, KeyError, TypeError):
            missing.append(point.name)
            continue
        make = tracer.count_wrapper if point.counter_only \
            else tracer.span_wrapper
        wrapper = make(point.name, original)
        for target_owner in owners:
            patched.append((target_owner, attr, original))
            setattr(target_owner, attr, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        patched.clear()

    return restore, missing


def layer_metrics(
    table: Dict[str, Dict[str, float]], entry: str
) -> Dict[str, float]:
    """Flat ``<name>.calls``/``<name>.self_s`` values plus the entry
    span's self share (``unattributed_fraction``); missing points
    read 0."""
    out: Dict[str, float] = {}
    for point in WRAP_POINTS:
        row = table.get(point.name, {})
        out[f"{point.name}.calls"] = int(row.get("calls", 0))
        if not point.counter_only:
            out[f"{point.name}.self_s"] = float(row.get("self_s", 0.0))
    span = table.get(entry, {})
    total = span.get("total_s", 0.0)
    out["unattributed_fraction"] = (
        span.get("self_s", 0.0) / total if total > 0 else 1.0
    )
    return out


def layer_rollup(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds summed per layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for point in WRAP_POINTS:
        if not point.counter_only:
            out[point.layer] += table.get(point.name, {}).get("self_s", 0.0)
    return out
