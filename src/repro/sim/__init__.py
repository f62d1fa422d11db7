"""Experiment plumbing: calibration, geometry, link drivers, metrics.

The glue between substrates and experiments: calibrated parameter sets
(:mod:`~repro.sim.calibration`), the Fig 13 testbed
(:mod:`~repro.sim.geometry`), measurement records
(:mod:`~repro.measurement`), end-to-end link drivers
(:mod:`~repro.sim.link`), whole-network scenarios
(:mod:`~repro.sim.scenario`), and metrics (:mod:`~repro.sim.metrics`).
"""

from repro.sim.calibration import (
    CalibratedParameters,
    DEFAULTS,
    make_card,
    make_channel,
    with_overrides,
)
from repro.sim.geometry import HELPER_LOCATIONS, TESTBED, Location, helper_geometry
from repro.sim.link import (
    SimulatedDownlinkTransport,
    SimulatedUplinkTransport,
    helper_packet_times,
    run_correlation_trial,
    run_downlink_ber,
    run_downlink_circuit_trial,
    run_uplink_ber,
    run_uplink_trial,
    simulate_multi_helper_stream,
    simulate_uplink_stream,
)
from repro.measurement import ChannelMeasurement, MeasurementStream, merge_streams
from repro.sim.metrics import (
    BerResult,
    achievable_bit_rate,
    ber_with_floor,
    bit_errors,
    mean_and_std,
    packet_delivery_probability,
    throughput_mbytes_per_s,
)
from repro.sim.scenario import (
    NetworkScenario,
    build_injected_traffic_scenario,
    build_office_scenario,
    build_throughput_scenario,
)

__all__ = [
    "BerResult",
    "CalibratedParameters",
    "ChannelMeasurement",
    "DEFAULTS",
    "HELPER_LOCATIONS",
    "Location",
    "MeasurementStream",
    "NetworkScenario",
    "SimulatedDownlinkTransport",
    "SimulatedUplinkTransport",
    "TESTBED",
    "achievable_bit_rate",
    "ber_with_floor",
    "bit_errors",
    "build_injected_traffic_scenario",
    "build_office_scenario",
    "build_throughput_scenario",
    "helper_geometry",
    "helper_packet_times",
    "make_card",
    "make_channel",
    "mean_and_std",
    "merge_streams",
    "packet_delivery_probability",
    "run_correlation_trial",
    "run_downlink_ber",
    "run_downlink_circuit_trial",
    "run_uplink_ber",
    "run_uplink_trial",
    "simulate_multi_helper_stream",
    "simulate_uplink_stream",
    "throughput_mbytes_per_s",
    "with_overrides",
]
