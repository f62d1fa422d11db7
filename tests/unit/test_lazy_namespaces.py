"""The lazy package namespaces keep the eager ``__init__``s' public API.

Every package that re-exports its subtree resolves those names on first
access (:mod:`repro._lazy`).  These tests pin what the eager imports
gave: the same ``__all__``, names that resolve, ``dir()`` and star
imports that see them, and the same registered caches.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``__all__`` of each lazy package as the eager ``__init__``s had it.
PARENT_EXPORTS = {
    "repro": (
        "ConfigurationError CrcError DecodeError EnergyError FrameError "
        "MediumReservationError PreambleNotFound ReproError SimulationError "
        "TraceFormatError __version__"
    ),
    "repro.core": (
        "AckDetector AckResult BIT_DURATION_10KBPS_S BIT_DURATION_20KBPS_S "
        "BIT_DURATION_5KBPS_S CombinerWeights ConditionedMeasurements "
        "CorrelationDecodeResult CorrelationDecoder DownlinkDecoder "
        "DownlinkEncoder DownlinkMessage HysteresisThresholds "
        "IntervalPreambleMatcher InventoryResult InventoryTag "
        "OrthogonalCodePair PreambleDetection PreambleMatch Query RatePlan "
        "Reassembler SlottedAlohaInventory TransactionResult "
        "UplinkDecodeResult UplinkDecoder UplinkDecoderConfig UplinkFrame "
        "UplinkRatePlanner WiFiBackscatterReader ack_slot_start barker_bits "
        "barker_code bit_duration_for_rate combine compute_thresholds "
        "condition correlation_gain_db crc16 crc8 decode_query "
        "detect_preamble encode_query fragment_payload hysteresis_slice "
        "majority_vote_bits make_code_pair make_weights parse_fragment "
        "select_good_subchannels"
    ),
    "repro.phy": (
        "AirInterval AwgnSource BackscatterChannel EnvelopeSynthesizer "
        "LinkGeometry LogDistancePathLoss MultipathChannel "
        "OfdmEnvelopeModel OfdmPacket SpuriousGlitchModel TapDelayProfile "
        "TemporalDrift airtime_for_duration friis_path_gain "
        "intervals_from_bits quantize"
    ),
    "repro.hardware": (
        "AgcModel DeviceProfile INTEL_5300 Intel5300 LINKSYS_WRT54GL "
        "RssiModel THINKPAD_LAPTOP reader_capabilities"
    ),
    "repro.tag": (
        "CIRCUIT_POWER_W EnergyHarvester MCU_ACTIVE_POWER_W "
        "MCU_SLEEP_POWER_W McuEnergyLedger McuMode McuPowerProfile "
        "PatchArrayAntenna RECEIVER_POWER_W ReceiverCircuit "
        "TRANSMIT_POWER_W TagModulator WiFiBackscatterTag alternating_bits "
        "power_budget_summary random_payload rectifier_efficiency "
        "tv_power_density_w_m2 wifi_power_density_w_m2"
    ),
    "repro.mac": (
        "AccessPoint BeaconNetwork BurstyTraffic ConstantRateTraffic "
        "DcfAccess DcfStats DiurnalOfficeLoad EventHandle EventScheduler "
        "FrameKind LinkQualityModel Medium MonitorCapture PoissonTraffic "
        "RateController ReservationPlan SaturatedTraffic "
        "SnrLinkQualityModel Station Transmission WifiFrame "
        "build_beacon_network cts_to_self_frame idle_tag office_load_pps "
        "plan_reservations snr_from_distance"
    ),
    "repro.net": "BackscatterGateway SensorReading TagStatus",
    "repro.sim": (
        "BerResult CalibratedParameters ChannelMeasurement DEFAULTS "
        "HELPER_LOCATIONS Location MeasurementStream NetworkScenario "
        "SimulatedDownlinkTransport SimulatedUplinkTransport TESTBED "
        "achievable_bit_rate ber_with_floor bit_errors "
        "build_injected_traffic_scenario build_office_scenario "
        "build_throughput_scenario helper_geometry helper_packet_times "
        "make_card make_channel mean_and_std merge_streams "
        "packet_delivery_probability run_correlation_trial run_downlink_ber "
        "run_downlink_circuit_trial run_uplink_ber run_uplink_trial "
        "simulate_multi_helper_stream simulate_uplink_stream "
        "throughput_mbytes_per_s with_overrides"
    ),
    "repro.analysis": (
        "CorrelationRangeModel DcfTiming DownlinkDetectionModel SweepPoint "
        "SweepResult crossover_x format_table log_sparkline "
        "majority_vote_ber measurement_error_probability monotone_fraction "
        "paper_vs_measured q_function q_inverse render_series "
        "saturation_throughput_bps single_station_throughput_bps sweep "
        "transmission_probability uplink_ber"
    ),
    "repro.traces": (
        "FORMAT_VERSION TrafficSample hours_range load_stream "
        "office_traffic_sample sample_to_intervals save_stream"
    ),
    "repro.faults": (
        "AgcJump BurstState CsiDropout FaultInjector FaultPlan HelperOutage "
        "INJECTOR_TYPES InterferenceBurst NanCorruption ReaderClockDrift "
        "TagBrownout WorkerCrash WorkerStall format_fault_plan "
        "parse_fault_spec"
    ),
    "repro.serve": (
        "ARRIVAL_PROFILES BoundedPriorityQueue DeadlineBudget DecodeRequest "
        "LifecycleTracker PRIORITIES SHED_REASONS SPAN_REQUEST STATUSES "
        "ServeBatchTask ServeConfig ServeDecodeTask ServeOutcome "
        "ServeReport ServeResult ShedEvent StreamingDecodeGateway "
        "TERMINAL_SPANS TagBreaker TelemetrySnapshotter decode_batch_task "
        "generate_arrivals read_telemetry render_serve_text run_serve"
    ),
    "repro.scenarios": (
        "CHANNEL_MODES Channel Envelope EnvelopeVerdict Geometry Mobility "
        "SCHEMA_VERSION Scenario ScenarioRegistry ScenarioResult Serve "
        "TRAFFIC_REGIMES Traffic TrialConfig builtin_registry "
        "builtin_scenarios run_scenario scenarios_from_json"
    ),
    "repro.obs": (
        "AlertEvent BudgetObjective BurnRateAlert BurnRateEngine Counter "
        "ExemplarReservoir FleetAggregator Gauge MetricsRegistry "
        "NULL_METRIC QuantileSketch RunManifest SloEngine SloRule "
        "SpaceSavingSketch Span TagHealthRegistry TimeSeries Tracer "
        "build_manifest configure counter current_span disable dumps "
        "dumps_line enable enabled gauge "
        "get_recorder get_registry get_tracer git_sha "
        "histogram jsonable load_manifest loads_line manifest_dir "
        "metrics_enabled "
        "read_json record_run recording_enabled reset session span state "
        "timeseries tracing_enabled write_json"
    ),
    "repro.obs.perf": (
        "AlertEvent BudgetObjective BurnRateAlert BurnRateEngine BurnWindow "
        "DEFAULT_CAPACITY DEFAULT_EXEMPLAR_BOUNDS ExemplarReservoir "
        "SloEngine SloRule TimeSeries derive_windows parse_slo_rule "
        "parse_slo_spec resolve_metric_value"
    ),
    "repro.obs.fleet": (
        "DEFAULT_ALPHA DEFAULT_HH_CAPACITY DEFAULT_MAX_BUCKETS FLEET_SCHEMA "
        "FleetAggregator HEALTH_BINS OFFENDER_KINDS QuantileSketch "
        "SpaceSavingSketch TagHealth TagHealthRegistry "
        "render_fleet_artifact render_fleet_block render_offenders"
    ),
    "repro.obs.forensics": (
        "DEFAULT_CAPACITY FlightRecorder LABELS POLICIES attribute_record "
        "begin commit disarm_crash_flush ensure_record install_crash_flush "
        "read_jsonl register_aux_flush render_forensics stage summarize "
        "unregister_aux_flush write_jsonl write_recorder"
    ),
    "repro.obs.soak": (
        "EWMA_ALPHA HISTORY_SCHEMA_VERSION HistoryStore MIN_HISTORY "
        "SOAK_SCHEMA_VERSION SoakOutcome TREND_SPECS TrendFlag check_store "
        "corrupt_line_counts default_history_dir detect_trends make_record "
        "render_history_text render_soak_markdown render_soak_text run_soak"
    ),
}

PACKAGES = sorted(PARENT_EXPORTS)


def fresh_interpreter(code):
    """Run ``code`` in a new interpreter and return its JSON stdout."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_package_with_a_table_is_pinned():
    lazy = {
        path.parent.relative_to(SRC).as_posix().replace("/", ".")
        for path in (SRC / "repro").rglob("__init__.py")
        if "attach(__name__" in path.read_text()
    }
    assert lazy == set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_unchanged_and_resolves(name):
    package = importlib.import_module(name)
    assert sorted(package.__all__) == PARENT_EXPORTS[name].split()
    for attr in package.__all__:
        value = getattr(package, attr)
        assert vars(package)[attr] is value  # cached after first access


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_all(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_the_pinned_names(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PARENT_EXPORTS[name].split()


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=re.escape(f"'{name}'")):
        package.no_such_name


def test_submodules_still_import_through_the_package():
    from repro.core import conditioning
    from repro.obs import forensics
    from repro.obs.forensics import attribution

    assert conditioning.__name__ == "repro.core.conditioning"
    assert forensics.summarize is attribution.summarize


def test_export_named_after_its_module_stays_the_export():
    # ``repro.analysis.sweep`` is the function, as ``from .sweep import
    # sweep`` made it, even when the module is imported first.
    kinds = fresh_interpreter(
        "import json, repro.analysis.sweep, repro.analysis.report\n"
        "import repro.analysis.sweep as direct\n"
        "from repro.analysis import sweep\n"
        "print(json.dumps([type(o).__name__ for o in (\n"
        "    repro.analysis.sweep, direct, sweep)]))"
    )
    assert kinds == ["function", "function", "function"]


def test_caches_registered_after_importing_the_link_drivers():
    registered, scanned = fresh_interpreter(
        "import json, repro.sim.link\n"
        "from repro.obs import caches\n"
        "registered = sorted(caches.registered_caches())\n"
        "print(json.dumps([registered, sorted(caches.scan_lru_caches())]))"
    )
    assert registered == [
        "core.barker_chip_templates",
        "core.make_code_pair",
        "phy.friis_path_gain",
        "phy.log_distance.power_gain",
        "phy.subcarrier_frequencies",
    ]
    assert scanned == [
        "repro.core.barker._chips_for",
        "repro.core.coding.make_code_pair",
        "repro.phy.constants._subcarrier_frequencies_tuple",
        "repro.phy.pathloss.LogDistancePathLoss.power_gain",
        "repro.phy.pathloss.friis_path_gain",
    ]
