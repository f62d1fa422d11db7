"""Decode flight recorder + failure-attribution forensics.

Metrics and spans (PR 1) say *how much* went wrong and the profiler
(PR 3) says *how slow* — this package answers *why a bit flipped*. A
bounded ring-buffer :class:`FlightRecorder` captures per-packet stage
intermediates from every core decoder (conditioning stats, per
sub-channel preamble correlations, MRC weights, slicer margins and
hysteresis state, chip-correlation peaks, active fault injectors), and
the attribution engine walks those stages for each erroneous bit/frame
to assign a root-cause label: which stage lost the decision margin.

The contract matches the rest of :mod:`repro.obs`: recording is off by
default and every capture site is a single boolean check
(:func:`repro.obs.state.recording_enabled`), so the hot decode paths
pay effectively nothing — the same zero-overhead discipline as the
:class:`~repro.obs.perf.profiler.Profiler`.

Usage::

    from repro import obs
    from repro.obs.forensics import attribution

    obs.configure(recording=True)
    run_uplink_ber(0.6, 12, seed=7, faults=plan)
    summary = attribution.summarize(obs.get_recorder().records)
    print(summary["by_label"])

Correlation IDs (run/trial/packet) are minted by the drivers in
:mod:`repro.sim.link` and survive process-pool fan-out: worker-side
records ship back through the :mod:`repro.sim.engine` payload channel
and merge into the parent recorder in task order, so ``workers=N``
yields records identical to serial.
"""

from __future__ import annotations

from repro.obs.forensics.attribution import (
    LABELS,
    attribute_record,
    summarize,
)
from repro.obs.forensics.crash_flush import (
    disarm as disarm_crash_flush,
    install_crash_flush,
    register_aux_flush,
    unregister_aux_flush,
)
from repro.obs.forensics.format import read_jsonl, write_jsonl, write_recorder
from repro.obs.forensics.recorder import (
    DEFAULT_CAPACITY,
    POLICIES,
    FlightRecorder,
    begin,
    commit,
    ensure_record,
    stage,
)
from repro.obs.forensics.report import render_forensics

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "LABELS",
    "POLICIES",
    "attribute_record",
    "begin",
    "commit",
    "disarm_crash_flush",
    "ensure_record",
    "install_crash_flush",
    "read_jsonl",
    "register_aux_flush",
    "render_forensics",
    "stage",
    "summarize",
    "unregister_aux_flush",
    "write_jsonl",
    "write_recorder",
]
