"""Decode flight recorder + failure-attribution forensics.

Metrics say *how much* went wrong and spans (with their stage table)
say *how slow* — this package answers *why a bit flipped*. A
bounded ring-buffer :class:`FlightRecorder` captures per-packet stage
intermediates from every core decoder (conditioning stats, per
sub-channel preamble correlations, MRC weights, slicer margins and
hysteresis state, chip-correlation peaks, active fault injectors), and
the attribution engine walks those stages for each erroneous bit/frame
to assign a root-cause label: which stage lost the decision margin.

The contract matches the rest of :mod:`repro.obs`: recording is off by
default and every capture site is a single boolean check
(:func:`repro.obs.state.recording_enabled`), so the hot decode paths
pay effectively nothing — the same zero-overhead discipline as
:func:`repro.obs.span`.

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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.obs.forensics.attribution": [
        "LABELS", "attribute_record", "summarize",
    ],
    "repro.obs.forensics.crash_flush": [
        "disarm as disarm_crash_flush", "install_crash_flush",
        "register_aux_flush", "unregister_aux_flush",
    ],
    "repro.obs.forensics.format": [
        "read_jsonl", "write_jsonl", "write_recorder",
    ],
    "repro.obs.forensics.recorder": [
        "DEFAULT_CAPACITY", "POLICIES", "FlightRecorder", "begin", "commit",
        "ensure_record", "stage",
    ],
    "repro.obs.forensics.report": ["render_forensics"],
})
