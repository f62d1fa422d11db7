"""End-to-end link simulation drivers.

The functions here wire the substrates together the way the paper's
experiments do, and are what the benchmark harness calls:

* :func:`simulate_uplink_stream` — tag bits + helper traffic ->
  measurement stream at the reader;
* :func:`run_uplink_ber` — the Fig 10 experiment (BER vs distance at a
  given packets/bit, CSI or RSSI);
* :func:`run_correlation_trial` — the §3.4/Fig 20 long-range mode;
* :func:`run_downlink_ber` — the Fig 17 experiment (analytic model or
  the full circuit simulation);
* transports binding the :mod:`repro.core.protocol` state machine to
  the simulated links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs import forensics
from repro.analysis.ber import DownlinkDetectionModel
from repro.core.barker import barker_bits
from repro.core.coding import make_code_pair
from repro.core.frames import DownlinkMessage, UplinkFrame, crc8, int_to_bits
from repro.core.protocol import BackoffPolicy, DownlinkTransport, UplinkTransport
from repro.core.uplink_decoder import UplinkDecoder
from repro.errors import BrownoutError, ConfigurationError, DecodeError, ReproError
from repro.faults.base import FaultPlan
from repro.sim import calibration, engine
from repro.sim.calibration import CalibratedParameters, DEFAULTS
from repro.measurement import MeasurementStream, merge_streams
from repro.sim.metrics import BerResult, bit_errors
from repro.sim.seeding import DEFAULT_SEED, resolve_rng
from repro.tag.modulator import TagModulator, random_payload

if TYPE_CHECKING:
    from repro.tag.receiver_circuit import ReceiverCircuit

#: Lead-in/lead-out idle time around a transmission so the conditioning
#: moving average has context at the frame edges.
EDGE_PADDING_S = 0.45

#: Bits per downlink Monte-Carlo work unit. Fixed (never a function of
#: the worker count) so the per-chunk seed fan-out — and therefore the
#: sampled bit stream — is identical for any ``workers`` value.
DOWNLINK_CHUNK_BITS = 50_000

#: Bursty-traffic shape: mean packets per burst and intra-burst packet
#: spacing (back-to-back at DCF service rate ~3000 pkts/s).
BURSTY_MEAN_BURST = 20.0
BURSTY_INTRA_S = 1.0 / 3000.0


def helper_packet_times(
    rate_pps: float,
    duration_s: float,
    traffic: str = "cbr",
    start_s: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Helper packet timestamps over ``duration_s``.

    Args:
        rate_pps: mean packet rate.
        duration_s: span to cover.
        traffic: "cbr" (fixed interval with 10% jitter — the paper's
            injected traffic), "poisson" (ambient-like arrivals), or
            "bursty" (Pareto bursts of back-to-back packets separated
            by idle gaps — the §3.2 shared-medium shape; ``rate_pps``
            is the long-run mean).
        start_s: first-packet offset.
        rng: random source (a fixed default seed when omitted — see
            :mod:`repro.sim.seeding`).
    """
    if rate_pps <= 0:
        raise ConfigurationError("rate_pps must be positive")
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be positive")
    rng, _ = resolve_rng(rng)
    if traffic == "cbr":
        interval = 1.0 / rate_pps
        n = int(duration_s / interval)
        times = start_s + np.arange(n) * interval
        times = times + rng.uniform(-0.05 * interval, 0.05 * interval, size=n)
        return np.sort(times)
    if traffic == "poisson":
        n_expected = int(rate_pps * duration_s * 1.5) + 10
        gaps = rng.exponential(1.0 / rate_pps, size=n_expected)
        times = start_s + np.cumsum(gaps)
        return times[times < start_s + duration_s]
    if traffic == "bursty":
        # Pareto burst lengths (mean ~BURSTY_MEAN_BURST packets) spaced
        # BURSTY_INTRA_S apart, idle gaps sized so the long-run mean
        # rate matches ``rate_pps``.
        shape = 1.5
        xm = BURSTY_MEAN_BURST * (shape - 1.0) / shape
        burst_span = BURSTY_MEAN_BURST * BURSTY_INTRA_S
        mean_gap = max(BURSTY_MEAN_BURST / rate_pps - burst_span, 1e-4)
        chunks: List[np.ndarray] = []
        t = start_s
        end = start_s + duration_s
        while t < end:
            t += rng.exponential(mean_gap)
            n_burst = max(1, int(xm * (1.0 + rng.pareto(shape))))
            burst = t + np.arange(n_burst) * BURSTY_INTRA_S
            t = float(burst[-1]) + BURSTY_INTRA_S
            chunks.append(burst)
        times = np.concatenate(chunks) if chunks else np.empty(0)
        return times[times < end]
    raise ConfigurationError(
        f"traffic must be 'cbr', 'poisson', or 'bursty', got {traffic!r}"
    )


def _fault_units(
    times_s: np.ndarray, tx_start: float, unit_s: float, num_units: int
) -> np.ndarray:
    """Transmission-unit (bit/chip) indices touched by fault evidence.

    Maps affected packet times onto the tag's unit grid so the
    attribution engine can intersect them with erroneous bit positions.
    """
    if len(times_s) == 0:
        return np.empty(0, dtype=int)
    units = np.floor((np.asarray(times_s) - tx_start) / unit_s).astype(int)
    return np.unique(units[(units >= 0) & (units < num_units)])


def simulate_uplink_stream(
    bits: Sequence[int],
    bit_duration_s: float,
    packet_times_s: np.ndarray,
    tag_to_reader_m: float,
    params: CalibratedParameters = DEFAULTS,
    helper_to_tag_m: float = 3.0,
    rng: Optional[np.random.Generator] = None,
    modulator: Optional[TagModulator] = None,
    faults: Optional[FaultPlan] = None,
    with_csi: bool = True,
) -> Tuple[MeasurementStream, float]:
    """Render the reader's measurement stream for one tag transmission.

    The transmission starts ``EDGE_PADDING_S`` after the first packet.

    Args:
        faults: optional fault plan conditioning the rendered link.
            Helper-outage drops remove packets (the tag's timing is
            unaffected: it keys off the helper's schedule, the loss
            happens at the reader), brownouts force the tag's switch
            open, and measurement corruptions rewrite the records the
            card produced. ``None`` or an empty plan is a strict no-op:
            the RNG draw sequence and output are byte-identical to the
            fault-free path.
        with_csi: ``False`` has the card report RSSI only (§3.3's
            RSSI-only reader).  The card draws its RSSI noise before
            anything of the CSI report, so the timestamps and RSSI are
            bit-for-bit those of the default call; ``rng`` just stops
            short of the CSI draws.  Fault injectors draw per CSI row,
            so a caller with an active plan should keep the default.

    Returns:
        ``(stream, tx_start_time_s)``.

    Raises:
        BrownoutError: the tag was unpowered for the entire capture.
        DecodeError: a fault dropped every helper packet.
    """
    rng, _ = resolve_rng(rng)
    times = np.asarray(packet_times_s, dtype=float)
    if len(times) == 0:
        raise ConfigurationError("packet_times_s must be non-empty")
    active = faults is not None and not faults.empty
    modulator = modulator or TagModulator(bit_duration_s=bit_duration_s)
    modulator.bit_duration_s = bit_duration_s
    # The tag starts relative to the helper's first packet on air, not
    # the first packet the reader happens to hear.
    tx_start = float(times[0]) + EDGE_PADDING_S
    modulator.load_bits(list(bits), tx_start)

    channel = calibration.make_channel(
        tag_to_reader_m=tag_to_reader_m,
        helper_to_tag_m=helper_to_tag_m,
        params=params,
        rng=rng,
    )
    card = calibration.make_card(params=params, rng=rng)
    recording = active and obs.recording_enabled()
    if recording:
        # Fault evidence, staged *before* any abort so a driver-side
        # failure commit still carries the responsible units.
        forensics.stage(
            "faults",
            injectors=[d.get("name") for d in faults.describe()],
            tx_start_s=tx_start,
            unit_s=bit_duration_s,
            num_units=len(bits),
        )
    if active:
        keep = faults.packet_mask(times)
        if recording:
            forensics.stage(
                "faults",
                dropped_units=_fault_units(
                    times[~keep], tx_start, bit_duration_s, len(bits)
                ),
            )
        times = times[keep]
        if len(times) == 0:
            raise DecodeError(
                "fault injection dropped every helper packet; nothing "
                "reached the reader"
            )
    states = modulator.states(times)
    if active:
        powered = faults.tag_powered_mask(times)
        if recording:
            forensics.stage(
                "faults",
                dark_units=_fault_units(
                    times[~powered], tx_start, bit_duration_s, len(bits)
                ),
            )
        if not powered.any():
            raise BrownoutError(
                "tag browned out for the entire transmission"
            )
        states = np.where(powered, states, 0)
    stream = card.measure_batch(
        channel.response_batch(times, states), times, with_csi=with_csi
    )
    if active:
        stream, touched = faults.corrupt_records(stream)
        if recording:
            forensics.stage(
                "faults",
                corrupted_units=_fault_units(
                    times[touched], tx_start, bit_duration_s, len(bits)
                ),
            )
    return stream, tx_start


@dataclass(frozen=True)
class UplinkTrial:
    """One uplink BER trial's outcome."""

    sent_bits: np.ndarray
    decoded_bits: np.ndarray
    errors: int


def synthesize_uplink_trial(
    tag_to_reader_m: float,
    packets_per_bit: float,
    num_payload_bits: int = 90,
    bit_rate_bps: float = 100.0,
    traffic: str = "cbr",
    params: CalibratedParameters = DEFAULTS,
    rng: Optional[np.random.Generator] = None,
    faults: Optional[FaultPlan] = None,
    start_s: float = 0.0,
    helper_to_tag_m: float = 3.0,
    with_csi: bool = True,
) -> Tuple[np.ndarray, MeasurementStream, float]:
    """Draw one uplink trial's payload and render its stream.

    Exactly the synthesis half of :func:`run_uplink_trial`, which
    passes ``with_csi=False`` for a fault-free RSSI trial.  The draw
    order against ``rng`` is identical through the RSSI draws, and the
    card draws the CSI report last, so decoding the returned stream
    with ``start_time_s=tx_start`` reproduces the trial's decode input
    bit-for-bit whichever ``with_csi`` is passed here.  Tests and
    benchmarks that time or check the decoder on its own build their
    streams here.

    Args:
        with_csi: render the card's CSI report; ``False`` gives an
            RSSI-only stream (see :func:`simulate_uplink_stream`).

    Returns:
        ``(payload_bits, stream, tx_start_s)``.
    """
    rng, _ = resolve_rng(rng)
    bit_duration = 1.0 / bit_rate_bps
    payload = random_payload(num_payload_bits, rng)
    bits = barker_bits() + payload
    span_s = len(bits) * bit_duration + 2 * EDGE_PADDING_S + 0.1
    pkt_rate = packets_per_bit * bit_rate_bps
    with obs.span("uplink.synthesize"):
        times = helper_packet_times(
            pkt_rate, span_s, traffic=traffic, start_s=start_s, rng=rng
        )
        stream, tx_start = simulate_uplink_stream(
            bits, bit_duration, times, tag_to_reader_m, params=params,
            helper_to_tag_m=helper_to_tag_m, rng=rng, faults=faults,
            with_csi=with_csi,
        )
    return np.asarray(payload), stream, tx_start


def run_uplink_trial(
    tag_to_reader_m: float,
    packets_per_bit: float,
    mode: str = "csi",
    num_payload_bits: int = 90,
    bit_rate_bps: float = 100.0,
    traffic: str = "cbr",
    known_timing: bool = True,
    params: CalibratedParameters = DEFAULTS,
    decoder: Optional[UplinkDecoder] = None,
    rng: Optional[np.random.Generator] = None,
    faults: Optional[FaultPlan] = None,
    start_s: float = 0.0,
    helper_to_tag_m: float = 3.0,
) -> UplinkTrial:
    """One tag transmission decoded at the reader (Fig 10 inner loop).

    The tag sends the Barker preamble followed by ``num_payload_bits``
    random bits; the helper sends ``packets_per_bit * bit_rate_bps``
    packets/s. BER is computed over the payload bits.

    The card renders its CSI report when the trial decodes CSI, or
    under an active fault plan, whose injectors draw per CSI row and
    whose forensics record CSI evidence.  A fault-free RSSI trial skips
    the report, which its decoder never reads.

    Args:
        known_timing: use the true transmission start (the experiment
            controls the tag) instead of searching for the preamble;
            the paper computes BER on synchronized comparisons.
        rng: random source.  Without the CSI report a fault-free RSSI
            trial draws less from it, so a caller that goes on drawing
            from a shared generator sees other values after the trial.
            Every caller in this package owns its generator;
            ``benchmarks/test_sensitivity.py``, which shares one across
            trials, decodes CSI.
        faults: optional fault plan applied to the rendered link.
        start_s: absolute start time of the trial. Fault plans live in
            absolute time, so sweeps advance this per trial to sample
            fresh burst realizations instead of replaying the same
            schedule around t=0.
    """
    rng, _ = resolve_rng(rng)
    active = faults is not None and not faults.empty
    with obs.span(
        "uplink.trial",
        distance_m=tag_to_reader_m,
        packets_per_bit=packets_per_bit,
        mode=mode,
    ) as sp:
        bit_duration = 1.0 / bit_rate_bps
        payload, stream, tx_start = synthesize_uplink_trial(
            tag_to_reader_m,
            packets_per_bit,
            num_payload_bits=num_payload_bits,
            bit_rate_bps=bit_rate_bps,
            traffic=traffic,
            params=params,
            rng=rng,
            faults=faults,
            start_s=start_s,
            helper_to_tag_m=helper_to_tag_m,
            with_csi=mode != "rssi" or active,
        )
        num_bits_total = len(barker_bits()) + num_payload_bits
        if active and obs.recording_enabled():
            # Error bits are payload-indexed; fault units cover the full
            # preamble+payload grid.  One bit = one transmission unit.
            forensics.stage(
                "faults",
                unit_offset=num_bits_total - num_payload_bits,
                units_per_bit=1,
            )
        decoder = decoder or UplinkDecoder()
        result = decoder.decode_bits(
            stream,
            num_bits=num_payload_bits,
            bit_duration_s=bit_duration,
            mode=mode,
            start_time_s=tx_start if known_timing else None,
        )
        errors = bit_errors(payload, result.bits)
        if sp is not None:
            sp.set(errors=errors, packets=len(stream))
        obs.counter("uplink.bits.total").inc(num_payload_bits)
        obs.counter("uplink.bits.errors").inc(errors)
    return UplinkTrial(
        sent_bits=np.asarray(payload), decoded_bits=result.bits, errors=errors
    )


@dataclass(frozen=True)
class _UplinkBerTrialTask:
    """Self-contained description of one uplink BER trial.

    Everything a worker process needs: plain-data configuration plus
    the trial's own spawned :class:`~numpy.random.SeedSequence`.  The
    seed is a pure function of the sweep's root seed and the trial
    index, so the task list — and therefore every random draw — is
    identical for any worker count.
    """

    tag_to_reader_m: float
    packets_per_bit: float
    mode: str
    num_payload_bits: int
    bit_rate_bps: float
    traffic: str
    params: CalibratedParameters
    faults: Optional[FaultPlan]
    start_s: float
    seed: np.random.SeedSequence
    run_id: str = ""
    trial: int = 0
    helper_to_tag_m: float = 3.0


def _run_uplink_ber_trial(task: _UplinkBerTrialTask) -> Tuple[int, bool]:
    """Engine task: one BER trial -> ``(errors, faulted)``.

    A trial the faults render undecodable reports
    ``(num_payload_bits, True)``; without an active fault plan the
    error propagates, exactly as the sequential loop behaved.
    """
    rng = np.random.default_rng(task.seed)
    active = task.faults is not None and not task.faults.empty
    recording = obs.recording_enabled()
    if recording:
        forensics.begin(
            "uplink", run_id=task.run_id, trial=task.trial, packet=0
        )
    try:
        trial = run_uplink_trial(
            task.tag_to_reader_m,
            task.packets_per_bit,
            mode=task.mode,
            num_payload_bits=task.num_payload_bits,
            bit_rate_bps=task.bit_rate_bps,
            traffic=task.traffic,
            params=task.params,
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
        return trial.errors, False
    except ReproError as exc:
        if recording:
            forensics.commit(
                errors=task.num_payload_bits,
                failure=type(exc).__name__,
            )
        if not active:
            raise
        return task.num_payload_bits, True


def run_uplink_ber(
    tag_to_reader_m: float,
    packets_per_bit: float,
    mode: str = "csi",
    repeats: int = 20,
    num_payload_bits: int = 90,
    bit_rate_bps: float = 100.0,
    traffic: str = "cbr",
    params: CalibratedParameters = DEFAULTS,
    seed: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    workers: int = 1,
    helper_to_tag_m: float = 3.0,
) -> BerResult:
    """The Fig 10 measurement: BER over ``repeats`` transmissions.

    The paper transmits a 90-bit payload 20 times per distance (1800
    bits) and floors zero-error runs.

    Trials draw from per-trial streams spawned off the root seed
    (:func:`repro.sim.engine.spawn_seeds`), so without a fault plan
    ``workers=N`` returns results bit-identical to serial for the same
    seed.  A fault plan keeps that promise only when its injectors draw
    nothing but their burst schedule: ``outage``, ``brownout`` and
    ``drift`` without jitter.  The serial loop passes one plan whose
    generators advance from trial to trial, while each pooled task
    unpickles its own copy at the initial state, so ``nan``,
    ``agc_jump``, ``csi_dropout``, ``interference`` and jittered
    ``drift`` give every trial after the first other draws.

    With a fault plan attached, successive trials are laid out
    back-to-back in absolute time so each one samples a fresh stretch
    of the burst schedule; a trial the faults render undecodable
    (brownout, total outage, lost preamble) scores all its payload bits
    as errors, which is what the reader would deliver upstream.

    Args:
        workers: worker processes to fan trials over (<=1 = serial).
    """
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    _, effective_seed = resolve_rng(None, seed)
    active = faults is not None and not faults.empty
    bit_duration = 1.0 / bit_rate_bps
    preamble_len = len(barker_bits())
    trial_span = (
        (preamble_len + num_payload_bits) * bit_duration
        + 2 * EDGE_PADDING_S + 0.1
    )
    seeds = engine.spawn_seeds(effective_seed, repeats)
    run_id = f"uplink_ber-{effective_seed}"
    tasks = [
        _UplinkBerTrialTask(
            tag_to_reader_m=tag_to_reader_m,
            packets_per_bit=packets_per_bit,
            mode=mode,
            num_payload_bits=num_payload_bits,
            bit_rate_bps=bit_rate_bps,
            traffic=traffic,
            params=params,
            faults=faults,
            start_s=i * trial_span if active else 0.0,
            seed=seeds[i],
            run_id=run_id,
            trial=i,
            helper_to_tag_m=helper_to_tag_m,
        )
        for i in range(repeats)
    ]
    errors = 0
    total = 0
    failed_trials = 0
    with obs.span(
        "uplink.run_ber",
        distance_m=tag_to_reader_m,
        packets_per_bit=packets_per_bit,
        mode=mode,
        repeats=repeats,
        seed=effective_seed,
        workers=workers,
    ):
        outcomes = engine.run_trials(
            _run_uplink_ber_trial, tasks, workers=workers
        )
        for trial_errors, faulted in outcomes:
            if faulted:
                failed_trials += 1
                errors += num_payload_bits
                if obs.metrics_enabled():
                    obs.counter("uplink.trials.faulted").inc()
                    obs.timeseries("uplink.ber.window").sample(1.0)
            else:
                errors += trial_errors
                if obs.metrics_enabled():
                    obs.timeseries("uplink.ber.window").sample(
                        trial_errors / num_payload_bits
                    )
            total += num_payload_bits
    result = BerResult(errors=errors, total_bits=total, runs=repeats)
    obs.record_run(
        "uplink_ber",
        seed=effective_seed,
        params=params,
        config={
            "tag_to_reader_m": tag_to_reader_m,
            "packets_per_bit": packets_per_bit,
            "mode": mode,
            "repeats": repeats,
            "num_payload_bits": num_payload_bits,
            "bit_rate_bps": bit_rate_bps,
            "traffic": traffic,
            "faults": faults.describe() if active else None,
        },
        results={**result.to_dict(), "failed_trials": failed_trials},
    )
    return result


def run_mobility_uplink_ber(
    distances_m: Sequence[float],
    packets_per_bit: float,
    mode: str = "csi",
    num_payload_bits: int = 90,
    bit_rate_bps: float = 100.0,
    traffic: str = "cbr",
    params: CalibratedParameters = DEFAULTS,
    seed: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    workers: int = 1,
    helper_to_tag_m: float = 3.0,
) -> BerResult:
    """Uplink BER over a mobility trace: trial ``i`` at ``distances_m[i]``.

    Motion is discretized per transmission (the tag holds still for one
    frame; it drifts *between* frames), so the existing per-trial task
    machinery applies unchanged: each position gets its own spawned
    seed, and results are bit-identical for any worker count.
    """
    distances = [float(d) for d in distances_m]
    if not distances:
        raise ConfigurationError("distances_m must be non-empty")
    _, effective_seed = resolve_rng(None, seed)
    active = faults is not None and not faults.empty
    bit_duration = 1.0 / bit_rate_bps
    preamble_len = len(barker_bits())
    trial_span = (
        (preamble_len + num_payload_bits) * bit_duration
        + 2 * EDGE_PADDING_S + 0.1
    )
    seeds = engine.spawn_seeds(effective_seed, len(distances))
    run_id = f"mobility_uplink_ber-{effective_seed}"
    tasks = [
        _UplinkBerTrialTask(
            tag_to_reader_m=distances[i],
            packets_per_bit=packets_per_bit,
            mode=mode,
            num_payload_bits=num_payload_bits,
            bit_rate_bps=bit_rate_bps,
            traffic=traffic,
            params=params,
            faults=faults,
            start_s=i * trial_span if active else 0.0,
            seed=seeds[i],
            run_id=run_id,
            trial=i,
            helper_to_tag_m=helper_to_tag_m,
        )
        for i in range(len(distances))
    ]
    errors = 0
    total = 0
    failed_trials = 0
    with obs.span(
        "uplink.run_mobility_ber",
        start_m=distances[0],
        end_m=distances[-1],
        positions=len(distances),
        mode=mode,
        seed=effective_seed,
        workers=workers,
    ):
        outcomes = engine.run_trials(
            _run_uplink_ber_trial, tasks, workers=workers
        )
        for trial_errors, faulted in outcomes:
            if faulted:
                failed_trials += 1
            errors += trial_errors if not faulted else num_payload_bits
            total += num_payload_bits
    result = BerResult(
        errors=errors, total_bits=total, runs=len(distances)
    )
    obs.record_run(
        "mobility_uplink_ber",
        seed=effective_seed,
        params=params,
        config={
            "distances_m": distances,
            "packets_per_bit": packets_per_bit,
            "mode": mode,
            "num_payload_bits": num_payload_bits,
            "bit_rate_bps": bit_rate_bps,
            "traffic": traffic,
            "faults": faults.describe() if active else None,
        },
        results={**result.to_dict(), "failed_trials": failed_trials},
    )
    return result


@dataclass(frozen=True)
class _CorrelationTrialTask:
    """Engine task for one coded-uplink trial (plain data + seed)."""

    tag_to_reader_m: float
    code_length: int
    num_bits: int
    packets_per_chip: float
    chip_rate_cps: float
    params: CalibratedParameters
    faults: Optional[FaultPlan]
    start_s: float
    seed: np.random.SeedSequence
    effective_seed: Optional[int]
    run_id: str = ""
    trial: int = 0


def _run_correlation_trial_body(task: _CorrelationTrialTask) -> UplinkTrial:
    """Engine task: synthesize + correlation-decode one transmission."""
    rng = np.random.default_rng(task.seed)
    recording = obs.recording_enabled()
    if recording:
        forensics.begin(
            "correlation", run_id=task.run_id, trial=task.trial, packet=0
        )
    try:
        trial = _correlation_trial_inner(task, rng)
    except ReproError as exc:
        if recording:
            forensics.commit(
                errors=task.num_bits, failure=type(exc).__name__
            )
        raise
    if recording:
        forensics.commit(
            errors=trial.errors,
            error_bits=np.flatnonzero(
                trial.sent_bits != trial.decoded_bits
            ),
        )
    return trial


def _correlation_trial_inner(
    task: _CorrelationTrialTask, rng: np.random.Generator
) -> UplinkTrial:
    from repro.core.correlation_decoder import CorrelationDecoder

    with obs.span(
        "correlation.trial",
        distance_m=task.tag_to_reader_m,
        code_length=task.code_length,
        num_bits=task.num_bits,
        seed=task.effective_seed,
    ) as sp:
        pair = make_code_pair(task.code_length)
        payload = random_payload(task.num_bits, rng)
        chips = pair.encode(payload)
        states = [1 if c > 0 else 0 for c in chips]
        chip_duration = 1.0 / task.chip_rate_cps
        span_s = len(states) * chip_duration + 2 * EDGE_PADDING_S + 0.1
        pkt_rate = task.packets_per_chip * task.chip_rate_cps
        with obs.span("uplink.synthesize"):
            times = helper_packet_times(
                pkt_rate, span_s, traffic="cbr", start_s=task.start_s, rng=rng
            )
            stream, tx_start = simulate_uplink_stream(
                states, chip_duration, times, task.tag_to_reader_m,
                params=task.params, rng=rng, faults=task.faults,
            )
        if (
            task.faults is not None and not task.faults.empty
            and obs.recording_enabled()
        ):
            # Coded uplink: one message bit spans L chip units, no
            # preamble ahead of the payload.
            forensics.stage(
                "faults",
                unit_offset=0,
                units_per_bit=task.code_length,
            )
        decoder = CorrelationDecoder(pair)
        result = decoder.decode_bits(
            stream,
            num_bits=task.num_bits,
            chip_duration_s=chip_duration,
            start_time_s=tx_start,
        )
        errors = bit_errors(payload, result.bits)
        if sp is not None:
            sp.set(errors=errors)
        obs.counter("correlation.bits.total").inc(task.num_bits)
        obs.counter("correlation.bits.errors").inc(errors)
    return UplinkTrial(
        sent_bits=np.asarray(payload), decoded_bits=result.bits, errors=errors
    )


def run_correlation_trial(
    tag_to_reader_m: float,
    code_length: int,
    num_bits: int = 16,
    packets_per_chip: float = 30.0,
    chip_rate_cps: float = 100.0,
    params: CalibratedParameters = DEFAULTS,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    start_s: float = 0.0,
    workers: int = 1,
) -> UplinkTrial:
    """Long-range coded uplink (§3.4): send + correlation-decode.

    The trial's random stream is spawned off the root seed through the
    same :class:`~numpy.random.SeedSequence` fan-out as the sweep
    drivers (a caller-supplied ``rng`` contributes one draw of root
    entropy), so serial and pooled execution are bit-identical.

    Args:
        code_length: L, chips per bit.
        num_bits: message bits (each expanded to L chips).
        packets_per_chip: helper packets per chip interval.
        chip_rate_cps: chip rate (the tag's raw switching rate).
        seed: RNG seed used when ``rng`` is not supplied.
        faults: optional fault plan applied to the rendered link.
        start_s: absolute start time (fault plans live in absolute time).
        workers: worker processes (<=1 = in-process; a single trial
            occupies at most one worker either way).
    """
    if rng is not None:
        entropy = engine.derive_entropy(rng)
        effective_seed = None
    else:
        effective_seed = DEFAULT_SEED if seed is None else int(seed)
        entropy = effective_seed
    task = _CorrelationTrialTask(
        tag_to_reader_m=tag_to_reader_m,
        code_length=code_length,
        num_bits=num_bits,
        packets_per_chip=packets_per_chip,
        chip_rate_cps=chip_rate_cps,
        params=params,
        faults=faults,
        start_s=start_s,
        seed=engine.spawn_seeds(entropy, 1)[0],
        effective_seed=effective_seed,
        run_id=(
            f"correlation_trial-{effective_seed}"
            if effective_seed is not None else "correlation_trial-rng"
        ),
        trial=0,
    )
    trial = engine.run_trials(
        _run_correlation_trial_body, [task], workers=workers
    )[0]
    errors = trial.errors
    obs.record_run(
        "correlation_trial",
        seed=effective_seed,
        params=params,
        config={
            "tag_to_reader_m": tag_to_reader_m,
            "code_length": code_length,
            "num_bits": num_bits,
            "packets_per_chip": packets_per_chip,
            "chip_rate_cps": chip_rate_cps,
        },
        results={"errors": errors, "total_bits": num_bits},
    )
    return trial


def simulate_multi_helper_stream(
    bits: Sequence[int],
    bit_duration_s: float,
    helpers: "dict[str, tuple[float, float]]",
    tag_to_reader_m: float,
    params: CalibratedParameters = DEFAULTS,
    rng: Optional[np.random.Generator] = None,
    faults: Optional[FaultPlan] = None,
) -> Tuple[MeasurementStream, float]:
    """Measurement stream with traffic from several Wi-Fi transmitters.

    §5: "the Wi-Fi reader can leverage transmissions from all Wi-Fi
    devices in the network and combine the channel information across
    all of them to achieve a high data rate in a busy network." Each
    helper reaches the reader over its own channel, so each packet's
    record is tagged with its source for per-source conditioning.

    Args:
        bits: the tag's switch states.
        bit_duration_s: tag bit duration.
        helpers: ``{name: (helper_to_tag_m, packets_per_second)}``.
        tag_to_reader_m: tag-reader distance.
        params: calibration constants.
        rng: random source.
        faults: optional fault plan; outage drops apply per helper
            (each helper's bursts hit its own packets), brownouts and
            corruptions apply to the tag and merged records as usual.

    Returns:
        ``(merged stream, tx_start_time_s)``.
    """
    if not helpers:
        raise ConfigurationError("helpers must be non-empty")
    rng, _ = resolve_rng(rng)
    active = faults is not None and not faults.empty
    modulator = TagModulator(bit_duration_s=bit_duration_s)
    span = len(bits) * bit_duration_s + 2 * EDGE_PADDING_S + 0.1
    tx_start = EDGE_PADDING_S
    modulator.load_bits(list(bits), tx_start)
    streams = []
    for name, (distance_m, rate_pps) in helpers.items():
        times = helper_packet_times(
            rate_pps, span, traffic="poisson", rng=rng
        )
        channel = calibration.make_channel(
            tag_to_reader_m=tag_to_reader_m,
            helper_to_tag_m=distance_m,
            params=params,
            rng=rng,
        )
        card = calibration.make_card(params=params, rng=rng)
        if active:
            keep = faults.packet_mask(times)
            times = times[keep]
            if len(times) == 0:
                continue  # this helper was wiped out; others may survive
        states = modulator.states(times)
        if active:
            powered = faults.tag_powered_mask(times)
            states = np.where(powered, states, 0)
        part = card.measure_batch(
            channel.response_batch(times, states), times, source=name
        )
        if active:
            part, _ = faults.corrupt_records(part)
        streams.append(part)
    if not streams:
        raise DecodeError(
            "fault injection dropped every packet from every helper"
        )
    return merge_streams(streams), tx_start


# -- downlink ------------------------------------------------------------------


@dataclass(frozen=True)
class _DownlinkChunkTask:
    """One fixed-size slice of the downlink Monte-Carlo (pure compute)."""

    start_bit: int
    num_bits: int
    bit_duration_s: float
    miss: float
    false_one: float
    faults: Optional[FaultPlan]
    seed: np.random.SeedSequence
    run_id: str = ""
    trial: int = 0


def _run_downlink_chunk(task: _DownlinkChunkTask) -> Tuple[int, int, int]:
    """Engine task: sample one chunk of downlink bits.

    Returns ``(missed_ones, false_positives, brownout_misses)``.  The
    worker emits no metrics — the parent driver owns the gauges,
    counters, and span, so that record is identical for any worker
    count.  Forensics records (one per chunk, summary counts only — a
    chunk is up to 50k bits) are merged through the engine's
    deterministic task-order absorb, so they too match serial.
    """
    rng = np.random.default_rng(task.seed)
    recording = obs.recording_enabled()
    if recording:
        forensics.begin(
            "downlink_model",
            run_id=task.run_id,
            trial=task.trial,
            packet=task.start_bit,
        )
    ones = rng.random(task.num_bits) < 0.5
    n_ones = int(ones.sum())
    n_zeros = task.num_bits - n_ones
    missed = rng.random(n_ones) < task.miss
    brownout_misses = 0
    active = task.faults is not None and not task.faults.empty
    if active:
        bit_times = (
            (task.start_bit + np.arange(task.num_bits)) * task.bit_duration_s
        )
        dark = ~task.faults.tag_powered_mask(bit_times)
        dark_ones = dark[ones]
        brownout_misses = int((dark_ones & ~missed).sum())
        missed = missed | dark_ones
    missed_ones = int(missed.sum())
    false_positives = int((rng.random(n_zeros) < task.false_one).sum())
    if recording:
        forensics.stage(
            "downlink_model",
            num_bits=task.num_bits,
            miss_probability=task.miss,
            false_one_probability=task.false_one,
            missed_ones=missed_ones,
            false_positives=false_positives,
            brownout_misses=brownout_misses,
            injectors=(
                [d.get("name") for d in task.faults.describe()]
                if active else []
            ),
        )
        forensics.commit(errors=missed_ones + false_positives)
    return missed_ones, false_positives, brownout_misses


def run_downlink_ber(
    distance_m: float,
    bit_duration_s: float,
    num_bits: int = 200_000,
    model: Optional[DownlinkDetectionModel] = None,
    params: CalibratedParameters = DEFAULTS,
    seed: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    workers: int = 1,
) -> BerResult:
    """Fig 17: downlink BER at a distance via the analytic peak model.

    Monte-Carlo over ``num_bits`` equiprobable bits using the
    calibrated :class:`DownlinkDetectionModel` (the paper transmits
    200 kilobits per point). For the bit-exact circuit path use
    :func:`run_downlink_circuit_trial`.

    The bit stream is sampled in fixed :data:`DOWNLINK_CHUNK_BITS`
    chunks, each from its own spawned seed, so serial and any worker
    count produce identical results for the same seed.

    Fault semantics on the downlink are brownout-only: the reader
    transmits directly, so helper outages and CSI corruption do not
    apply, but a browned-out tag cannot run its peak detector and
    misses every '1' bit while dark ('0' bits, being the absence of a
    peak, still "decode").

    Args:
        workers: worker processes to fan chunks over (<=1 = serial).
    """
    if num_bits < 1:
        raise ConfigurationError("num_bits must be >= 1")
    _, effective_seed = resolve_rng(None, seed)
    active = faults is not None and not faults.empty
    model = model or DownlinkDetectionModel(
        scale_m=params.downlink_range_scale_m, shape=params.downlink_range_shape
    )
    with obs.span(
        "downlink.run_ber",
        distance_m=distance_m,
        bit_duration_s=bit_duration_s,
        num_bits=num_bits,
        seed=effective_seed,
        workers=workers,
    ) as sp:
        miss = model.miss_probability(distance_m, bit_duration_s)
        false_one = model.false_one_probability
        starts = list(range(0, num_bits, DOWNLINK_CHUNK_BITS))
        seeds = engine.spawn_seeds(effective_seed, len(starts))
        run_id = f"downlink_ber-{effective_seed}"
        tasks = [
            _DownlinkChunkTask(
                start_bit=start,
                num_bits=min(DOWNLINK_CHUNK_BITS, num_bits - start),
                bit_duration_s=bit_duration_s,
                miss=miss,
                false_one=false_one,
                faults=faults if active else None,
                seed=chunk_seed,
                run_id=run_id,
                trial=chunk_index,
            )
            for chunk_index, (start, chunk_seed) in enumerate(
                zip(starts, seeds)
            )
        ]
        chunk_counts = engine.run_trials(
            _run_downlink_chunk, tasks, workers=workers
        )
        missed_ones = sum(c[0] for c in chunk_counts)
        false_positives = sum(c[1] for c in chunk_counts)
        brownout_misses = sum(c[2] for c in chunk_counts)
        if active:
            obs.counter("downlink.errors.brownout").inc(brownout_misses)
        errors = missed_ones + false_positives
        # Envelope-detector operating point + error split: the two
        # failure modes (missed packet peaks vs spurious ones) degrade
        # very differently with distance, so report them separately.
        obs.gauge("downlink.detector.miss_probability").set(miss)
        obs.gauge("downlink.detector.false_one_probability").set(false_one)
        obs.counter("downlink.errors.missed_ones").inc(missed_ones)
        obs.counter("downlink.errors.false_positives").inc(false_positives)
        obs.counter("downlink.bits.total").inc(num_bits)
        if sp is not None:
            sp.set(
                miss_probability=miss,
                false_one_probability=false_one,
                missed_ones=missed_ones,
                false_positives=false_positives,
            )
    result = BerResult(errors=errors, total_bits=num_bits, runs=1)
    obs.record_run(
        "downlink_ber",
        seed=effective_seed,
        params=params,
        config={
            "distance_m": distance_m,
            "bit_duration_s": bit_duration_s,
            "num_bits": num_bits,
            "faults": faults.describe() if active else None,
        },
        results=result.to_dict(),
    )
    return result


def run_downlink_circuit_trial(
    distance_m: float,
    bit_duration_s: float,
    num_payload_bits: int = 64,
    circuit: Optional[ReceiverCircuit] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[List[int], np.ndarray]:
    """Bit-exact downlink through the envelope + circuit simulation.

    Renders the on-off keyed waveform for one message, runs the Fig 8
    circuit, and samples mid-bit values with known timing.

    Returns:
        ``(sent_bits, received_bits)`` over the full message (preamble
        + payload + CRC).
    """
    from repro.core.downlink_decoder import sample_mid_bits
    from repro.core.downlink_encoder import DownlinkEncoder
    from repro.phy.envelope import EnvelopeSynthesizer
    from repro.tag.receiver_circuit import ReceiverCircuit

    rng, _ = resolve_rng(rng)
    payload = random_payload(num_payload_bits, rng)
    message = DownlinkMessage(payload_bits=tuple(payload))
    encoder = DownlinkEncoder(bit_duration_s=bit_duration_s)
    lead_in = 20 * bit_duration_s
    intervals = encoder.air_intervals(message, start_s=lead_in)
    total = lead_in + encoder.message_airtime_s(message) + 10 * bit_duration_s
    synth = EnvelopeSynthesizer(distance_m=distance_m, rng=rng)
    times, power = synth.render(intervals, total)
    circuit = circuit or ReceiverCircuit(rng=rng)
    _, _, comparator = circuit.process(power, synth.sample_interval_s)
    sent = message.to_bits()
    received = sample_mid_bits(
        comparator, times, lead_in, bit_duration_s, len(sent)
    )
    return sent, received


# -- protocol transports ---------------------------------------------------------


@dataclass
class SimulatedDownlinkTransport(DownlinkTransport):
    """Downlink delivery via the calibrated detection model.

    A message is delivered when every one of its bits decodes and the
    preamble is matched; per-bit error sampling uses the analytic
    model. CRC catches multi-bit corruption, so any bit error = lost
    message (the reader retransmits).

    With a fault plan attached the transport keeps a virtual clock
    (``clock_s`` advances by the message airtime per send) and a
    browned-out tag misses the whole query; helper outages do not
    apply — the reader transmits the downlink itself.
    """

    distance_m: float
    bit_duration_s: float = 50e-6
    model: DownlinkDetectionModel = field(default_factory=DownlinkDetectionModel)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(DEFAULT_SEED)
    )
    sends: int = 0
    faults: Optional[FaultPlan] = None
    clock_s: float = 0.0

    def send(self, message: DownlinkMessage) -> bool:
        self.sends += 1
        bits = message.to_bits()
        airtime = len(bits) * self.bit_duration_s
        start = self.clock_s
        self.clock_s += airtime
        if self.faults is not None and not self.faults.empty:
            if not self.faults.tag_powered(start + airtime / 2.0):
                obs.counter("faults.downlink.brownout_drops").inc()
                return False
        miss = self.model.miss_probability(self.distance_m, self.bit_duration_s)
        for bit in bits:
            p_err = miss if bit else self.model.false_one_probability
            if self.rng.random() < p_err:
                return False
        return True


@dataclass
class SimulatedUplinkTransport(UplinkTransport):
    """Uplink reception via the full measurement-stream pipeline.

    With a fault plan attached the transport keeps a virtual clock so
    each receive() samples a fresh stretch of the plan's absolute-time
    burst schedule — retransmissions genuinely ride out bursts instead
    of replaying them.
    """

    tag_to_reader_m: float
    packets_per_bit: float = 10.0
    params: CalibratedParameters = DEFAULTS
    mode: str = "csi"
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(DEFAULT_SEED)
    )
    #: Filled by the protocol harness before receive(): the frame the
    #: tag will transmit (the simulation needs to render its bits).
    pending_frame: Optional[UplinkFrame] = None
    faults: Optional[FaultPlan] = None
    clock_s: float = 0.0

    def receive(self, payload_len: int, bit_rate_bps: float) -> Optional[UplinkFrame]:
        if self.pending_frame is None:
            return None
        active = self.faults is not None and not self.faults.empty
        frame = self.pending_frame
        bits = frame.to_bits()
        bit_duration = 1.0 / bit_rate_bps
        span = len(bits) * bit_duration + 2 * EDGE_PADDING_S + 0.1
        pkt_rate = self.packets_per_bit * bit_rate_bps
        start = self.clock_s if active else 0.0
        times = helper_packet_times(
            pkt_rate, span, traffic="cbr", start_s=start, rng=self.rng
        )
        self.clock_s += span
        try:
            stream, tx_start = simulate_uplink_stream(
                bits, bit_duration, times, self.tag_to_reader_m,
                params=self.params, rng=self.rng, faults=self.faults,
            )
        except ReproError:
            return None
        decoder = UplinkDecoder()
        try:
            return decoder.decode_frame(
                stream,
                payload_len=len(frame.payload_bits),
                bit_duration_s=bit_duration,
                mode=self.mode,
                start_time_s=tx_start,
            )
        except ReproError:
            return None


# -- resilient ARQ session --------------------------------------------------------


@dataclass(frozen=True)
class ArqFrameOutcome:
    """One frame's fate through the ARQ loop.

    Attributes:
        delivered: a CRC-valid decode was produced within the budget.
        correct: the delivered payload matched what the tag sent
            (CRC-8 can alias; delivered-but-wrong counts both).
        attempts: transmissions spent on this frame.
        mode: decode path that finally succeeded ("csi", "rssi",
            "correlation") or the last one tried on failure.
        backoff_s: total backoff delay inserted for this frame.
        degraded: the session dropped to the correlation rung for this
            frame.
    """

    delivered: bool
    correct: bool
    attempts: int
    mode: str
    backoff_s: float
    degraded: bool


@dataclass(frozen=True)
class ArqSessionResult:
    """Delivery statistics for a resilient ARQ uplink session."""

    outcomes: Tuple[ArqFrameOutcome, ...]
    elapsed_s: float

    @property
    def frames(self) -> int:
        return len(self.outcomes)

    @property
    def delivered(self) -> int:
        return sum(1 for o in self.outcomes if o.delivered)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.frames if self.outcomes else 0.0

    @property
    def correct(self) -> int:
        return sum(1 for o in self.outcomes if o.correct)

    @property
    def mean_attempts(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.attempts for o in self.outcomes) / len(self.outcomes)

    @property
    def degraded_frames(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    def to_dict(self) -> dict:
        return {
            "frames": self.frames,
            "delivered": self.delivered,
            "delivery_ratio": self.delivery_ratio,
            "correct": self.correct,
            "mean_attempts": self.mean_attempts,
            "degraded_frames": self.degraded_frames,
            "elapsed_s": self.elapsed_s,
        }


def _arq_run_one_frame(
    rng: np.random.Generator,
    clock: float,
    *,
    tag_to_reader_m: float,
    payload_len: int,
    bit_duration: float,
    pkt_rate: float,
    max_attempts: int,
    backoff: BackoffPolicy,
    faults: Optional[FaultPlan],
    degrade_after: Optional[int],
    pair,
    traffic: str,
    params: CalibratedParameters,
    decoder: UplinkDecoder,
    run_id: str = "",
    frame_index: int = 0,
) -> Tuple[ArqFrameOutcome, float]:
    """One frame through the ARQ loop: draw, transmit, retry, record.

    A pure extraction of the sequential session's frame body — the
    draw order against ``rng``, the virtual-clock advancement, and the
    obs emissions are untouched, so the serial path stays byte-for-byte
    the legacy behaviour.

    Returns:
        ``(outcome, clock_after_frame)``.
    """
    recording = obs.recording_enabled()
    if recording:
        # One record per frame: nested decoder stages from the final
        # attempt overwrite earlier ones, so the record holds the
        # evidence for the attempt that decided the frame's fate.
        forensics.begin(
            "arq_frame", run_id=run_id, trial=frame_index, packet=0
        )
    payload = random_payload(payload_len, rng)
    frame = UplinkFrame(payload_bits=tuple(payload))
    frame_bits = frame.to_bits()
    check_bits = list(payload) + int_to_bits(crc8(list(payload)), 8)
    delivered = False
    correct = False
    degraded = False
    mode_used = "csi"
    attempts = 0
    frame_backoff = 0.0
    got_payload_bits = None
    for attempt in range(max_attempts):
        if attempt > 0:
            delay = backoff.delay_s(attempt - 1, rng)
            frame_backoff += delay
            clock += delay
        attempts += 1
        use_correlation = (
            degrade_after is not None and attempt >= degrade_after
        )
        if use_correlation:
            from repro.core.correlation_decoder import CorrelationDecoder

            degraded = True
            mode_used = "correlation"
            chips = pair.encode(check_bits)
            states = [1 if c > 0 else 0 for c in chips]
            span = (
                len(states) * bit_duration
                + 2 * EDGE_PADDING_S + 0.1
            )
        else:
            states = frame_bits
            span = (
                len(frame_bits) * bit_duration
                + 2 * EDGE_PADDING_S + 0.1
            )
        times = helper_packet_times(
            pkt_rate, span, traffic=traffic, start_s=clock, rng=rng
        )
        clock += span
        try:
            stream, tx_start = simulate_uplink_stream(
                states, bit_duration, times, tag_to_reader_m,
                params=params, rng=rng, faults=faults,
            )
            if use_correlation:
                corr = CorrelationDecoder(pair)
                got = corr.decode_bits(
                    stream,
                    num_bits=len(check_bits),
                    chip_duration_s=bit_duration,
                    start_time_s=tx_start,
                )
                got_bits = [int(b) for b in got.bits]
                got_payload = got_bits[:payload_len]
                got_crc = got_bits[payload_len:]
                if int_to_bits(crc8(got_payload), 8) != got_crc:
                    raise DecodeError("correlation-mode CRC mismatch")
                delivered = True
                correct = got_payload == list(payload)
                got_payload_bits = got_payload
            else:
                decoded = decoder.decode_frame(
                    stream,
                    payload_len=payload_len,
                    bit_duration_s=bit_duration,
                    mode="csi",
                    start_time_s=tx_start,
                )
                delivered = True
                correct = (
                    list(decoded.payload_bits) == list(payload)
                )
                got_payload_bits = list(decoded.payload_bits)
                mode_used = "csi"
        except ReproError:
            obs.counter("arq.frame.attempt_failures").inc()
            continue
        break
    obs.counter("arq.attempts").inc(attempts)
    if obs.metrics_enabled():
        obs.timeseries("uplink.delivery").sample(
            1.0 if delivered else 0.0
        )
        obs.timeseries("arq.attempts.window").sample(attempts)
    if attempts > 1:
        obs.counter("arq.retries").inc(attempts - 1)
    if delivered:
        obs.counter("arq.frames.delivered").inc()
    else:
        obs.counter("arq.frames.failed").inc()
        obs.counter("arq.giveups").inc()
    if degraded:
        obs.counter("arq.frames.degraded").inc()
    if frame_backoff:
        obs.histogram("arq.backoff_s").observe(frame_backoff)
    if recording:
        forensics.stage(
            "arq",
            attempts=attempts,
            max_attempts=max_attempts,
            delivered=delivered,
            correct=correct,
            degraded=degraded,
            mode=mode_used,
            backoff_s=frame_backoff,
        )
        if delivered and got_payload_bits is not None:
            err_bits = [
                i for i, (a, b) in enumerate(zip(payload, got_payload_bits))
                if int(a) != int(b)
            ]
            forensics.commit(errors=len(err_bits), error_bits=err_bits)
        else:
            forensics.commit(errors=payload_len, failure="arq_exhaustion")
    outcome = ArqFrameOutcome(
        delivered=delivered,
        correct=correct,
        attempts=attempts,
        mode=mode_used,
        backoff_s=frame_backoff,
        degraded=degraded,
    )
    return outcome, clock


@dataclass(frozen=True)
class _ArqFrameTask:
    """One ARQ frame shard: config + spawned seed + clock offset."""

    start_clock_s: float
    seed: np.random.SeedSequence
    tag_to_reader_m: float
    payload_len: int
    bit_duration: float
    pkt_rate: float
    max_attempts: int
    backoff: BackoffPolicy
    faults: Optional[FaultPlan]
    degrade_after: Optional[int]
    code_length: int
    traffic: str
    params: CalibratedParameters
    decoder: Optional[UplinkDecoder]
    run_id: str = ""
    trial: int = 0


def _run_arq_frame_task(task: _ArqFrameTask) -> Tuple[ArqFrameOutcome, float]:
    """Engine task: one sharded ARQ frame -> ``(outcome, elapsed_s)``."""
    rng = np.random.default_rng(task.seed)
    outcome, end_clock = _arq_run_one_frame(
        rng,
        task.start_clock_s,
        tag_to_reader_m=task.tag_to_reader_m,
        payload_len=task.payload_len,
        bit_duration=task.bit_duration,
        pkt_rate=task.pkt_rate,
        max_attempts=task.max_attempts,
        backoff=task.backoff,
        faults=task.faults,
        degrade_after=task.degrade_after,
        pair=make_code_pair(task.code_length),
        traffic=task.traffic,
        params=task.params,
        decoder=task.decoder or UplinkDecoder(),
        run_id=task.run_id,
        frame_index=task.trial,
    )
    return outcome, end_clock - task.start_clock_s


def _arq_frame_budget_s(
    payload_len: int,
    bit_duration: float,
    max_attempts: int,
    backoff: BackoffPolicy,
    degrade_after: Optional[int],
    code_length: int,
) -> float:
    """Worst-case virtual-clock span one ARQ frame can consume.

    Sharded frames get clock offsets of ``i * budget`` so their
    absolute-time windows (which fault plans key off) never overlap,
    and the offsets depend only on the session parameters — never the
    worker count.
    """
    probe_bits = UplinkFrame(payload_bits=tuple([0] * payload_len)).to_bits()
    frame_span = len(probe_bits) * bit_duration + 2 * EDGE_PADDING_S + 0.1
    max_span = frame_span
    if degrade_after is not None:
        corr_span = (
            (payload_len + 8) * code_length * bit_duration
            + 2 * EDGE_PADDING_S + 0.1
        )
        max_span = max(frame_span, corr_span)
    max_backoff = sum(
        min(backoff.initial_s * backoff.multiplier ** r, backoff.max_s)
        * (1.0 + backoff.jitter_fraction)
        for r in range(max_attempts - 1)
    )
    return max_attempts * max_span + max_backoff


def run_arq_uplink(
    tag_to_reader_m: float,
    num_frames: int = 20,
    payload_len: int = 32,
    bit_rate_bps: float = 1000.0,
    packets_per_bit: float = 8.0,
    max_attempts: int = 5,
    backoff: Optional[BackoffPolicy] = None,
    faults: Optional[FaultPlan] = None,
    degrade_after: Optional[int] = None,
    code_length: int = 8,
    traffic: str = "cbr",
    params: CalibratedParameters = DEFAULTS,
    decoder: Optional[UplinkDecoder] = None,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    workers: int = 1,
) -> ArqSessionResult:
    """A resilient uplink session: frames + ARQ + graceful degradation.

    Each frame (preamble | payload | CRC-8 | postamble) is transmitted
    and decoded through the full pipeline; a failed decode triggers a
    retransmission after an exponential-with-jitter backoff delay. The
    session keeps a virtual clock, and fault plans live in absolute
    time, so backoff genuinely walks retries out of outage bursts.
    When ``degrade_after`` failed attempts are spent on a frame the
    session drops to the §3.4 long-range rung: the payload+CRC bits
    are code-expanded and correlation-decoded, trading rate for
    robustness (the quality signal :func:`assess_quality` surfaces
    drives the same decision in a live reader).

    A frame counts as *delivered* only on a CRC-valid decode; *correct*
    additionally requires the payload to match what the tag sent.

    Args:
        tag_to_reader_m: tag-reader distance.
        num_frames: frames the application submits.
        payload_len: payload bits per frame.
        bit_rate_bps: uplink bit rate (paper's nominal 1 kbps default).
        packets_per_bit: helper packets per tag bit.
        max_attempts: transmission budget per frame.
        backoff: ARQ delay policy; default :class:`BackoffPolicy`.
        faults: optional fault plan conditioning every transmission.
        degrade_after: failed slicing attempts before dropping to the
            correlation rung; None disables degradation.
        code_length: L for the correlation rung.
        decoder: uplink decoder override (its config controls the
            CSI->RSSI fallback rung).
        seed: RNG seed used when ``rng`` is not supplied.
        workers: worker processes.  ``<=1`` runs the legacy sequential
            session byte-for-byte.  ``>1`` shards the session per
            frame: each frame gets its own spawned seed and a disjoint
            absolute-time window (``i * worst-case frame budget``), so
            retry/backoff behaviour within a frame is unchanged and
            fault plans still apply, but the exact burst realizations
            each frame sees differ from the serial interleaving — the
            parallel session is statistically equivalent, not
            bit-identical (frames are causally coupled through the
            shared virtual clock, unlike independent BER trials).
    """
    if num_frames < 1:
        raise ConfigurationError("num_frames must be >= 1")
    if max_attempts < 1:
        raise ConfigurationError("max_attempts must be >= 1")
    if degrade_after is not None and degrade_after < 1:
        raise ConfigurationError("degrade_after must be >= 1 or None")
    caller_rng = rng
    rng, effective_seed = resolve_rng(rng, seed)
    backoff = backoff or BackoffPolicy()
    decoder = decoder or UplinkDecoder()
    bit_duration = 1.0 / bit_rate_bps
    pkt_rate = packets_per_bit * bit_rate_bps
    pair = make_code_pair(code_length)
    outcomes: List[ArqFrameOutcome] = []
    with obs.span(
        "arq.session",
        distance_m=tag_to_reader_m,
        num_frames=num_frames,
        max_attempts=max_attempts,
        seed=effective_seed,
        workers=workers,
    ):
        run_id = f"arq_uplink-{effective_seed}"
        if workers <= 1:
            clock = 0.0
            for frame_index in range(num_frames):
                outcome, clock = _arq_run_one_frame(
                    rng,
                    clock,
                    tag_to_reader_m=tag_to_reader_m,
                    payload_len=payload_len,
                    bit_duration=bit_duration,
                    pkt_rate=pkt_rate,
                    max_attempts=max_attempts,
                    backoff=backoff,
                    faults=faults,
                    degrade_after=degrade_after,
                    pair=pair,
                    traffic=traffic,
                    params=params,
                    decoder=decoder,
                    run_id=run_id,
                    frame_index=frame_index,
                )
                outcomes.append(outcome)
            elapsed = clock
        else:
            entropy = (
                engine.derive_entropy(caller_rng)
                if caller_rng is not None else effective_seed
            )
            budget = _arq_frame_budget_s(
                payload_len, bit_duration, max_attempts, backoff,
                degrade_after, code_length,
            )
            seeds = engine.spawn_seeds(entropy, num_frames)
            tasks = [
                _ArqFrameTask(
                    start_clock_s=i * budget,
                    seed=seeds[i],
                    tag_to_reader_m=tag_to_reader_m,
                    payload_len=payload_len,
                    bit_duration=bit_duration,
                    pkt_rate=pkt_rate,
                    max_attempts=max_attempts,
                    backoff=backoff,
                    faults=faults,
                    degrade_after=degrade_after,
                    code_length=code_length,
                    traffic=traffic,
                    params=params,
                    decoder=decoder,
                    run_id=run_id,
                    trial=i,
                )
                for i in range(num_frames)
            ]
            shard_results = engine.run_trials(
                _run_arq_frame_task, tasks, workers=workers
            )
            outcomes = [outcome for outcome, _ in shard_results]
            elapsed = sum(delta for _, delta in shard_results)
    result = ArqSessionResult(outcomes=tuple(outcomes), elapsed_s=elapsed)
    obs.record_run(
        "arq_uplink",
        seed=effective_seed,
        params=params,
        config={
            "tag_to_reader_m": tag_to_reader_m,
            "num_frames": num_frames,
            "payload_len": payload_len,
            "bit_rate_bps": bit_rate_bps,
            "packets_per_bit": packets_per_bit,
            "max_attempts": max_attempts,
            "degrade_after": degrade_after,
            "code_length": code_length,
            "faults": (
                faults.describe()
                if faults is not None and not faults.empty else None
            ),
        },
        results=result.to_dict(),
    )
    return result
