"""Root-cause attribution for recorded decode failures.

Given a flight-recorder record (see
:mod:`repro.obs.forensics.recorder`), the attribution engine walks the
recorded pipeline stages for each erroneous bit — and for frame-level
failures — and assigns the root-cause label of the stage that lost the
decision margin:

``fault_window_overlap``
    The erroneous bit's transmission window intersects injected-fault
    evidence (dropped packets, unpowered tag, corrupted measurements);
    the ``detail`` names the responsible injector family.
``arq_exhaustion``
    An ARQ frame burned through ``max_attempts`` without a CRC pass.
``shed``
    The serve gateway dropped the request under backpressure before it
    reached a decoder; the ``detail`` carries the shed reason
    (``queue_full``, ``tag_quarantined``, ``egress_full``, ``drain``).
``deadline_abandoned``
    The request's latency budget could not be met at dispatch time and
    the gateway abandoned it early.
``worker_lost``
    The decode worker crashed or hung past the supervised retry budget
    and the request was dead-lettered.
``erasure``
    No measurement survived into the bit's slot (zero vote support).
``mrc_weight_collapse``
    One sub-channel dominates the MRC combiner (its weight share
    exceeds :data:`WEIGHT_COLLAPSE_SHARE`), so a single bad channel
    controls the decision.
``bad_subchannel_selection``
    The preamble-correlation selection barely separates chosen from
    rejected sub-channels (ratio below :data:`SELECTION_RATIO_FLOOR`).
``low_margin_slice``
    The pipeline was healthy but the slicer decided inside/near the
    hysteresis dead band — ordinary noise-limited errors land here.
``detector_noise``
    Downlink analytic-model errors (missed peaks / spurious ones) that
    are not explained by a brownout window — the envelope detector's
    intrinsic operating point.
``unknown``
    No recorded stage explains the error (e.g. recording started
    mid-pipeline).

The walk is evidence-ordered: injected-fault overlap wins over
structural labels, which win over the low-margin fallback, so the chaos
suite's "each injector family maps to its label" contract holds.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: All labels :func:`attribute_record` can emit, most specific first.
LABELS = (
    "fault_window_overlap",
    "arq_exhaustion",
    "shed",
    "deadline_abandoned",
    "worker_lost",
    "erasure",
    "mrc_weight_collapse",
    "bad_subchannel_selection",
    "low_margin_slice",
    "detector_noise",
    "unknown",
)

#: A single sub-channel carrying more than this share of total |weight|
#: means the combiner has collapsed onto it.
WEIGHT_COLLAPSE_SHARE = 0.9

#: Selected-vs-rejected preamble-correlation ratio below which the
#: sub-channel selection is considered indiscriminate.
SELECTION_RATIO_FLOOR = 1.5

#: Exception names that are direct fault-injection outcomes.
_FAULT_FAILURES = {
    "BrownoutError": "brownout",
    "FaultInjectionError": "fault",
}

#: Serve-layer dispositions: the gateway never decoded these requests,
#: and the record's ``serve`` stage says why.
_SERVE_FAILURES = {
    "Shed": "shed",
    "DeadlineAbandoned": "deadline_abandoned",
    "WorkerLost": "worker_lost",
}

#: Injector families that corrupt measurement values (vs drop/unpower).
_CORRUPTING_INJECTORS = ("csi_dropout", "nan", "interference", "agc_jump")


def _bit_units(faults: Dict[str, Any], bit: int) -> range:
    """Transmission-unit indices carrying payload bit ``bit``."""
    offset = int(faults.get("unit_offset", 0))
    per_bit = max(1, int(faults.get("units_per_bit", 1)))
    return range(offset + bit * per_bit, offset + (bit + 1) * per_bit)


def _fault_detail(
    faults: Dict[str, Any], units: Iterable[int], smear: int = 0
) -> Optional[str]:
    """Injector family whose evidence overlaps ``units``, if any.

    ``smear`` widens the bit's unit window for evidence that acts
    through the conditioning normalizer (dark tag, corrupted values):
    a dark or saturated stretch shifts the moving-average baseline for
    every bit within the conditioning window, so its errors land up to
    ``window_s / unit_s`` units away from the fault itself.  Dropped
    packets only remove samples, so they stay direct-overlap.
    """
    units = set(units)
    injectors = list(faults.get("injectors", ()))
    dark = set(faults.get("dark_units", ()))
    dropped = set(faults.get("dropped_units", ()))
    corrupted = set(faults.get("corrupted_units", ()))
    if smear and units:
        lo, hi = min(units) - smear, max(units) + smear
        smeared = set(range(lo, hi + 1))
    else:
        smeared = units
    if units & dark or smeared & dark:
        return "brownout" if "brownout" in injectors else "unpowered"
    if units & dropped:
        return "outage" if "outage" in injectors else "dropped"
    if units & corrupted or smeared & corrupted:
        for name in _CORRUPTING_INJECTORS:
            if name in injectors:
                return name
        return "corrupted"
    return None


def _smear_radius(stages: Dict[str, Any]) -> int:
    """Conditioning-window influence radius in transmission units."""
    faults = stages.get("faults") or {}
    cond = stages.get("condition") or {}
    unit_s = faults.get("unit_s")
    window_s = cond.get("window_s")
    if not unit_s or not window_s:
        return 0
    return int(-(-float(window_s) // float(unit_s)))


def _margin_at(stages: Dict[str, Any], bit: int) -> Optional[float]:
    """Per-bit slicer/correlation decision margin, if recorded."""
    for stage_name in ("slice", "correlate"):
        stage = stages.get(stage_name)
        if not stage:
            continue
        margins = stage.get("bit_margins")
        if margins is not None and 0 <= bit < len(margins):
            value = margins[bit]
            if isinstance(value, (int, float)):
                return float(value)
    return None


def _attribute_bit(
    stages: Dict[str, Any], bit: int
) -> Tuple[str, str, Optional[float]]:
    """(label, detail, margin) for one erroneous payload bit."""
    margin = _margin_at(stages, bit)

    faults = stages.get("faults")
    if faults:
        detail = _fault_detail(
            faults, _bit_units(faults, bit), smear=_smear_radius(stages)
        )
        if detail is not None:
            return "fault_window_overlap", detail, margin

    slice_stage = stages.get("slice")
    if slice_stage:
        support = slice_stage.get("support")
        if support is not None and 0 <= bit < len(support):
            if not support[bit]:
                return "erasure", "zero vote support", margin

    combine = stages.get("combine")
    if combine:
        share = combine.get("weight_max_share")
        if share is not None and float(share) > WEIGHT_COLLAPSE_SHARE:
            return (
                "mrc_weight_collapse",
                f"max weight share {float(share):.3f}",
                margin,
            )

    select = stages.get("select")
    if select:
        ratio = select.get("selection_ratio")
        if ratio is not None and float(ratio) < SELECTION_RATIO_FLOOR:
            return (
                "bad_subchannel_selection",
                f"selection ratio {float(ratio):.3f}",
                margin,
            )

    if margin is not None:
        return "low_margin_slice", f"margin {margin:.4g}", margin
    return "unknown", "no stage evidence", margin


def _frame_failure_label(record: Dict[str, Any]) -> Optional[Tuple[str, str]]:
    """Label for records that died outright (no per-bit evidence)."""
    failure = record.get("failure")
    stages = record.get("stages", {})
    if failure == "arq_exhaustion":
        arq = stages.get("arq") or {}
        attempts = arq.get("attempts", "all")
        return "arq_exhaustion", f"{attempts} attempts without CRC pass"
    if failure in _SERVE_FAILURES:
        serve = stages.get("serve") or {}
        reason = serve.get("reason", "")
        label = _SERVE_FAILURES[failure]
        return label, reason or label
    if failure in _FAULT_FAILURES:
        return "fault_window_overlap", _FAULT_FAILURES[failure]
    if failure is not None:
        # Any abort (DecodeError, e.g. from a preamble starved of
        # packets, ...) with injected-fault evidence on record is the
        # faults' doing: packets were dropped or the tag went dark
        # before the decoder ever had a chance.
        faults = stages.get("faults")
        if faults is not None:
            dark = len(list(faults.get("dark_units", ())))
            dropped = len(list(faults.get("dropped_units", ())))
            corrupted = len(list(faults.get("corrupted_units", ())))
            injectors = list(faults.get("injectors", ()))
            if dark or dropped or corrupted:
                if dark >= max(dropped, corrupted):
                    detail = (
                        "brownout" if "brownout" in injectors
                        else "unpowered"
                    )
                elif dropped >= corrupted:
                    detail = (
                        "outage" if "outage" in injectors else "dropped"
                    )
                else:
                    detail = next(
                        (n for n in _CORRUPTING_INJECTORS
                         if n in injectors),
                        "corrupted",
                    )
                return "fault_window_overlap", detail
        if failure == "DecodeError":
            return "unknown", "decode failed before slicing"
        return "unknown", f"failure {failure}"
    return None


def attribute_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Attribute every error in one record to a root-cause label.

    Returns ``{"label", "detail", "bits"}`` where ``label`` is the
    frame-level verdict (the failure's label, else the modal per-bit
    label, else ``None`` for clean records) and ``bits`` holds one
    ``{"bit", "label", "detail", "margin"}`` entry per erroneous bit.
    """
    stages = record.get("stages", {})
    bits: List[Dict[str, Any]] = []
    for bit in record.get("error_bits", ()):
        label, detail, margin = _attribute_bit(stages, int(bit))
        bits.append(
            {"bit": int(bit), "label": label, "detail": detail,
             "margin": margin}
        )

    failure_label = _frame_failure_label(record)
    downlink = stages.get("downlink_model")
    if failure_label is not None:
        label, detail = failure_label
    elif downlink is not None and record.get("errors", 0):
        # Analytic-model chunks carry summary counts, not per-bit
        # evidence: split the verdict between the brownout window and
        # the detector's intrinsic miss/false-positive floor.
        brownout = int(downlink.get("brownout_misses", 0) or 0)
        noise = int(record.get("errors", 0)) - brownout
        if brownout > noise:
            label = "fault_window_overlap"
            detail = f"brownout ({brownout} dark-bit misses)"
        else:
            label = "detector_noise"
            detail = (
                f"{noise} detector errors "
                f"(miss p={downlink.get('miss_probability')})"
            )
    elif bits:
        counts: Dict[str, int] = {}
        for entry in bits:
            counts[entry["label"]] = counts.get(entry["label"], 0) + 1
        label = max(counts, key=lambda name: (counts[name], name))
        detail = next(
            e["detail"] for e in bits if e["label"] == label
        )
    elif record.get("errors", 0):
        label, detail = "unknown", "errors without recorded bit indices"
    else:
        label, detail = None, ""
    return {"label": label, "detail": detail, "bits": bits}


def summarize(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate attribution over a record set.

    Returns a JSON-safe summary: counts by label at both bit and frame
    granularity, the per-stage error budget (each label's share of
    attributed error bits), decision margins of erroneous bits (for
    histograms), and the worst offending records.
    """
    by_label: Dict[str, int] = {}
    frames_by_label: Dict[str, int] = {}
    margins: List[float] = []
    worst: List[Dict[str, Any]] = []
    total_error_bits = 0
    records_with_errors = 0

    for record in records:
        verdict = attribute_record(record)
        if verdict["label"] is None:
            continue
        records_with_errors += 1
        frames_by_label[verdict["label"]] = (
            frames_by_label.get(verdict["label"], 0) + 1
        )
        for entry in verdict["bits"]:
            total_error_bits += 1
            by_label[entry["label"]] = by_label.get(entry["label"], 0) + 1
            if entry["margin"] is not None:
                margins.append(entry["margin"])
        errors = int(record.get("errors", 0) or 0)
        if not verdict["bits"] and errors:
            # An aborted decode or an analytic downlink chunk counts its
            # errors without per-bit entries: charge them to the frame.
            total_error_bits += errors
            by_label[verdict["label"]] = (
                by_label.get(verdict["label"], 0) + errors
            )
        worst.append(
            {
                "run_id": record.get("run_id", ""),
                "trial": record.get("trial", 0),
                "packet": record.get("packet", 0),
                "kind": record.get("kind", ""),
                "errors": record.get("errors", 0),
                "failure": record.get("failure"),
                "label": verdict["label"],
                "detail": verdict["detail"],
            }
        )

    worst.sort(
        key=lambda r: (-r["errors"], r["run_id"], r["trial"], r["packet"])
    )
    budget = {
        label: count / total_error_bits
        for label, count in sorted(by_label.items())
    } if total_error_bits else {}
    return {
        "total_records": len(records),
        "records_with_errors": records_with_errors,
        "total_error_bits": total_error_bits,
        "by_label": dict(sorted(by_label.items())),
        "frames_by_label": dict(sorted(frames_by_label.items())),
        "error_budget": budget,
        "margins": margins,
        "worst": worst[:10],
    }
