"""Experiment plumbing: calibration, geometry, link drivers, metrics.

The glue between substrates and experiments: calibrated parameter sets
(:mod:`~repro.sim.calibration`), the Fig 13 testbed
(:mod:`~repro.sim.geometry`), measurement records
(:mod:`~repro.measurement`), end-to-end link drivers
(:mod:`~repro.sim.link`), whole-network scenarios
(:mod:`~repro.sim.scenario`), and metrics (:mod:`~repro.sim.metrics`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.sim.calibration": [
        "CalibratedParameters", "DEFAULTS", "make_card", "make_channel",
        "with_overrides",
    ],
    "repro.sim.geometry": [
        "HELPER_LOCATIONS", "TESTBED", "Location", "helper_geometry",
    ],
    "repro.sim.link": [
        "SimulatedDownlinkTransport", "SimulatedUplinkTransport",
        "helper_packet_times", "run_correlation_trial", "run_downlink_ber",
        "run_downlink_circuit_trial", "run_uplink_ber", "run_uplink_trial",
        "simulate_multi_helper_stream", "simulate_uplink_stream",
    ],
    "repro.measurement": [
        "ChannelMeasurement", "MeasurementStream", "merge_streams",
    ],
    "repro.sim.metrics": [
        "BerResult", "achievable_bit_rate", "ber_with_floor", "bit_errors",
        "mean_and_std", "packet_delivery_probability",
        "throughput_mbytes_per_s",
    ],
    "repro.sim.scenario": [
        "NetworkScenario", "build_injected_traffic_scenario",
        "build_office_scenario", "build_throughput_scenario",
    ],
})
