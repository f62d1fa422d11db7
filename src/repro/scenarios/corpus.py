"""The built-in scenario corpus: the paper's envelope, enumerated.

Each scenario pins one operating point of the Wi-Fi Backscatter
envelope — geometry sweeps along the uplink range curve (Fig 10),
the RSSI fallback rung, the coded long-range mode (Fig 20), downlink
reach (Fig 17), every helper-traffic regime the paper evaluates
(injected, CTS-reserved, ambient diurnal, beacon-only, bursty), tag
mobility traces, and fault-plan combinations from the chaos suite.

Expected envelopes are derived from the paper's figures, with slack
for Monte-Carlo noise at soak trial counts: the corpus gates *gross*
regressions (a decode path broken at an operating point), while the
cross-run history (:mod:`repro.obs.soak.history`) catches slow drift.

Trial counts are sized so the full corpus soaks in seconds — breadth
over depth; ``bench/`` owns the deep timing measurements.
"""

from __future__ import annotations

from typing import List

from repro.scenarios.schema import (
    Channel,
    Envelope,
    Geometry,
    Mobility,
    Scenario,
    Serve,
    Traffic,
    TrialConfig,
)

#: Generous per-trial wall-clock bound (seconds) — scenarios are tiny;
#: blowing through this means a hot path has regressed badly.
LATENCY_BOUND_S = 5.0


def _uplink(
    name: str,
    description: str,
    distance_m: float,
    mode: str = "csi",
    rate_pps: float = 2000.0,
    regime: str = "injected_cbr",
    ppb: float = 10.0,
    repeats: int = 6,
    payload_bits: int = 36,
    ber_max: float = 0.05,
    throughput_min_bps: float = 0.0,
    tags: tuple = (),
    faults: str = None,
    seed: int = 0,
    **kwargs,
) -> Scenario:
    return Scenario(
        name=name,
        description=description,
        tags=tags,
        geometry=Geometry(tag_to_reader_m=distance_m, **kwargs),
        traffic=Traffic(regime=regime, rate_pps=rate_pps),
        channel=Channel(mode=mode),
        trial=TrialConfig(
            repeats=repeats, payload_bits=payload_bits,
            packets_per_bit=ppb,
        ),
        envelope=Envelope(
            ber_max=ber_max,
            throughput_min_bps=throughput_min_bps or None,
            latency_max_s=LATENCY_BOUND_S,
        ),
        faults=faults,
        seed=seed,
    )


def builtin_scenarios() -> List[Scenario]:
    """The ≥20-scenario built-in corpus (fresh instances each call)."""
    scenarios: List[Scenario] = []

    # -- geometry sweep: the Fig 10a CSI range curve -------------------------
    # The paper holds BER < 1e-2 out to 0.65 m at 1 kbps-class rates.
    for dist, ber in ((0.10, 0.02), (0.20, 0.02), (0.30, 0.03),
                      (0.45, 0.05), (0.60, 0.15)):
        scenarios.append(_uplink(
            f"geom_csi_{int(dist * 100):03d}cm",
            f"Fig 10a operating point: CSI uplink at {dist} m",
            dist, ber_max=ber, throughput_min_bps=150.0,
            tags=("geometry", "csi"),
            seed=int(dist * 100),
        ))
    # Past the knee: the CSI rung is *expected* to be unusable — the
    # envelope asserts it stays broken (a sudden pass here would mean
    # the channel model drifted optimistic).
    scenarios.append(Scenario(
        name="geom_csi_080cm_past_knee",
        description="beyond Fig 6's two-level knee: CSI must degrade",
        tags=("geometry", "csi", "edge"),
        geometry=Geometry(tag_to_reader_m=0.80),
        traffic=Traffic(regime="injected_cbr", rate_pps=2000.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=4, payload_bits=36, packets_per_bit=10.0),
        envelope=Envelope(ber_max=0.6, latency_max_s=LATENCY_BOUND_S),
        seed=80,
    ))

    # -- RSSI fallback rung (Fig 10b: usable only very close) ----------------
    scenarios.append(_uplink(
        "rssi_near_015cm", "Fig 10b: RSSI-only reader at 0.15 m",
        0.15, mode="rssi", ber_max=0.12, tags=("rssi",), seed=215,
    ))
    scenarios.append(_uplink(
        "rssi_mid_030cm", "Fig 10b: RSSI-only reader at 0.30 m",
        0.30, mode="rssi", ber_max=0.25, tags=("rssi",), seed=230,
    ))

    # -- coded long-range rungs (Fig 20) -------------------------------------
    for name, dist, length, ber in (
        ("coded_l8_100cm", 1.0, 8, 0.10),
        ("coded_l20_160cm", 1.6, 20, 0.15),
        ("coded_l64_200cm", 2.0, 64, 0.25),
    ):
        scenarios.append(Scenario(
            name=name,
            description=f"Fig 20: L={length} orthogonal code at {dist} m",
            tags=("coded", "geometry"),
            geometry=Geometry(tag_to_reader_m=dist),
            traffic=Traffic(regime="injected_cbr", rate_pps=500.0),
            channel=Channel(mode="coded", code_length=length),
            trial=TrialConfig(
                repeats=2, payload_bits=10, packets_per_bit=5.0,
            ),
            envelope=Envelope(ber_max=ber, latency_max_s=LATENCY_BOUND_S),
            seed=int(dist * 100) + length,
        ))

    # -- downlink reach (Fig 17: 2.2 m at 20 kbps) ---------------------------
    for name, dist, ber in (
        ("downlink_near_100cm", 1.0, 0.005),
        ("downlink_far_220cm", 2.2, 0.05),
    ):
        scenarios.append(Scenario(
            name=name,
            description=f"Fig 17: 20 kbps downlink at {dist} m",
            tags=("downlink",),
            geometry=Geometry(tag_to_reader_m=dist),
            traffic=Traffic(regime="injected_cbr", rate_pps=1000.0),
            channel=Channel(mode="downlink", downlink_rate_bps=20e3),
            trial=TrialConfig(
                repeats=1, payload_bits=36, packets_per_bit=10.0,
                downlink_bits=20_000,
            ),
            envelope=Envelope(
                ber_max=ber, throughput_min_bps=18_000.0,
                latency_max_s=LATENCY_BOUND_S,
            ),
            seed=int(dist * 100),
        ))

    # -- helper-traffic regimes ----------------------------------------------
    scenarios.append(Scenario(
        name="ambient_office_peak",
        description="Fig 15: ambient-only uplink at the 14:30 load peak",
        tags=("ambient", "traffic"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="ambient", start_hour=14.5),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=5, payload_bits=30, packets_per_bit=8.0),
        envelope=Envelope(ber_max=0.08, latency_max_s=LATENCY_BOUND_S),
        seed=1450,
    ))
    scenarios.append(Scenario(
        name="ambient_office_morning",
        description="Fig 15: ambient-only uplink on the 09:00 ramp",
        tags=("ambient", "traffic"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="ambient", start_hour=9.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=5, payload_bits=30, packets_per_bit=8.0),
        envelope=Envelope(ber_max=0.08, latency_max_s=LATENCY_BOUND_S),
        seed=900,
    ))
    scenarios.append(Scenario(
        name="ambient_office_night",
        description="ambient-only uplink on the overnight floor "
                    "(rate adaptation must ride ~100 pkts/s)",
        tags=("ambient", "traffic"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="ambient", start_hour=23.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=4, payload_bits=24, packets_per_bit=8.0),
        envelope=Envelope(ber_max=0.10, latency_max_s=LATENCY_BOUND_S),
        seed=2300,
    ))
    scenarios.append(Scenario(
        name="beacon_only_030cm",
        description="Fig 16: AP beacons (TBTT 102.4 ms) are the only "
                    "helper packets",
        tags=("beacon", "traffic"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="beacon_only"),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=3, payload_bits=16, packets_per_bit=2.0),
        envelope=Envelope(ber_max=0.15, latency_max_s=LATENCY_BOUND_S),
        seed=16,
    ))
    scenarios.append(Scenario(
        name="cts_reserved_045cm",
        description="§4.1: helper slots inside CTS_to_SELF reservations",
        tags=("cts", "traffic"),
        geometry=Geometry(tag_to_reader_m=0.45),
        traffic=Traffic(regime="cts", rate_pps=1500.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=5, payload_bits=30, packets_per_bit=10.0),
        envelope=Envelope(ber_max=0.06, latency_max_s=LATENCY_BOUND_S),
        seed=41,
    ))
    scenarios.append(Scenario(
        name="bursty_office_030cm",
        description="§3.2: Pareto-bursty shared-medium traffic",
        tags=("bursty", "traffic"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="bursty", rate_pps=1500.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=5, payload_bits=30, packets_per_bit=10.0),
        envelope=Envelope(ber_max=0.20, latency_max_s=LATENCY_BOUND_S),
        seed=32,
    ))
    scenarios.append(Scenario(
        name="poisson_mid_045cm",
        description="memoryless ambient-like arrivals at mid range",
        tags=("traffic",),
        geometry=Geometry(tag_to_reader_m=0.45),
        traffic=Traffic(regime="poisson", rate_pps=1200.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=5, payload_bits=30, packets_per_bit=10.0),
        envelope=Envelope(ber_max=0.10, latency_max_s=LATENCY_BOUND_S),
        seed=45,
    ))

    # -- mobility -------------------------------------------------------------
    scenarios.append(Scenario(
        name="mobility_walk_away",
        description="tag walks 0.15 m -> 0.60 m across the range curve",
        tags=("mobility",),
        geometry=Geometry(
            tag_to_reader_m=0.15,
            mobility=Mobility(kind="linear", end_m=0.60),
        ),
        traffic=Traffic(regime="injected_cbr", rate_pps=2000.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=6, payload_bits=30, packets_per_bit=10.0),
        envelope=Envelope(ber_max=0.12, latency_max_s=LATENCY_BOUND_S),
        seed=1560,
    ))
    scenarios.append(Scenario(
        name="mobility_jitter_030cm",
        description="hand-held jitter: random walk around 0.30 m",
        tags=("mobility",),
        geometry=Geometry(
            tag_to_reader_m=0.30,
            mobility=Mobility(kind="random_walk", step_std_m=0.04),
        ),
        traffic=Traffic(regime="injected_cbr", rate_pps=2000.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=6, payload_bits=30, packets_per_bit=10.0),
        envelope=Envelope(ber_max=0.08, latency_max_s=LATENCY_BOUND_S),
        seed=3030,
    ))

    # -- fault plans (chaos rides the corpus too) ----------------------------
    scenarios.append(_uplink(
        "fault_outage_030cm",
        "helper outage bursts over the near CSI point",
        0.30, ber_max=0.60, tags=("faults",),
        faults="outage:duty=0.2,burst=0.3", repeats=5, seed=5001,
    ))
    scenarios.append(_uplink(
        "fault_csi_dropout_030cm",
        "partial sub-channel dropout (antenna shadowing)",
        0.30, ber_max=0.35, tags=("faults",),
        faults="csi_dropout:duty=0.25,burst=0.2,frac=0.5",
        repeats=5, seed=5002,
    ))
    scenarios.append(_uplink(
        "fault_interference_045cm",
        "co-channel interference bursts at mid range",
        0.45, ber_max=0.40, tags=("faults",),
        faults="interference:duty=0.2,burst=0.1,noise=0.8",
        repeats=5, seed=5003,
    ))
    scenarios.append(_uplink(
        "fault_nan_drift_030cm",
        "NaN corruption + reader clock drift, combined",
        0.30, ber_max=0.35, tags=("faults",),
        faults="nan:prob=0.01;drift:ppm=60,jitter=1e-4",
        repeats=5, seed=5004,
    ))
    scenarios.append(_uplink(
        "fault_brownout_030cm",
        "tag brownouts: harvested-energy dropouts mid-frame",
        0.30, ber_max=0.70, tags=("faults",),
        faults="brownout:duty=0.15,burst=0.2", repeats=5, seed=5005,
    ))

    # -- serving resilience (streaming gateway, repro.serve) -----------------
    # Physics: 1600 pps helper / 16 pkts-per-bit = 100 bps uplink; a
    # 16-bit payload then occupies 0.16 s of decode airtime, i.e. a
    # 6.25 req/s gateway capacity.
    scenarios.append(Scenario(
        name="serve_overload_2x",
        description="gateway at 2x capacity: bounded queue must shed "
                    "by priority and recover after the burst",
        tags=("serve", "overload"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="injected_cbr", rate_pps=1600.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=1, payload_bits=16, packets_per_bit=16.0),
        serve=Serve(
            duration_s=12.0, offered_load_rps=4.0, burst_load_rps=12.5,
            burst_start_s=2.0, burst_end_s=6.0, deadline_ms=3000.0,
            queue_capacity=12, batch=4,
        ),
        envelope=Envelope(ber_max=0.05, latency_max_s=LATENCY_BOUND_S),
        seed=7001,
    ))
    scenarios.append(Scenario(
        name="serve_worker_crash",
        description="steady load with crashing + stalling decode "
                    "workers: supervision retries, nothing lost",
        tags=("serve", "faults"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="injected_cbr", rate_pps=1600.0),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=1, payload_bits=16, packets_per_bit=16.0),
        serve=Serve(
            duration_s=12.0, offered_load_rps=4.0, deadline_ms=4000.0,
            queue_capacity=16, batch=4, max_attempts=3,
        ),
        faults="worker_crash:prob=0.08;worker_stall:prob=0.05,stall=1.0",
        envelope=Envelope(ber_max=0.05, latency_max_s=LATENCY_BOUND_S),
        seed=7002,
    ))
    scenarios.append(Scenario(
        name="serve_fleet_outlier",
        description="64-tag fleet with one sabotaged tag at hostile "
                    "range: the health registry must surface it in the "
                    "offender boards and flag an anomaly",
        tags=("serve", "fleet"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="injected_cbr", rate_pps=1600.0),
        channel=Channel(mode="csi"),
        # 1600 pps / 8 pkts-per-bit = 200 bps; 8-bit payloads make a
        # 25 req/s gateway, so 20 rps offered keeps decodes (not
        # sheds) the dominant outcome the fleet view folds.
        trial=TrialConfig(repeats=1, payload_bits=8, packets_per_bit=8.0),
        serve=Serve(
            duration_s=12.0, offered_load_rps=20.0, deadline_ms=2500.0,
            queue_capacity=24, batch=4, n_tags=64, fleet_capacity=16,
            outlier_tags=(7,), outlier_distance_m=2.4,
        ),
        envelope=Envelope(ber_max=0.25, latency_max_s=LATENCY_BOUND_S),
        seed=7004,
    ))
    scenarios.append(Scenario(
        name="serve_office_diurnal",
        description="gateway riding the Fig 15 office diurnal arrival "
                    "shape at the afternoon peak",
        tags=("serve", "ambient"),
        geometry=Geometry(tag_to_reader_m=0.3),
        traffic=Traffic(regime="ambient", start_hour=14.5),
        channel=Channel(mode="csi"),
        trial=TrialConfig(repeats=1, payload_bits=16, packets_per_bit=11.0),
        serve=Serve(
            duration_s=10.0, offered_load_rps=3.0, deadline_ms=4000.0,
            queue_capacity=16, batch=4, arrival_profile="office",
        ),
        envelope=Envelope(ber_max=0.05, latency_max_s=LATENCY_BOUND_S),
        seed=7003,
    ))

    return scenarios
