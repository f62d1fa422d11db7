"""End-to-end link drivers."""

import numpy as np
import pytest

from repro.core.frames import UplinkFrame
from repro.core.uplink_decoder import UplinkDecoder
from repro.errors import ConfigurationError, DecodeError
from repro.faults.base import FaultPlan
from repro.faults.spec import parse_fault_spec
from repro.hardware.intel5300 import Intel5300
from repro.sim import engine
from repro.sim.link import (
    SimulatedDownlinkTransport,
    SimulatedUplinkTransport,
    helper_packet_times,
    run_correlation_trial,
    run_downlink_ber,
    run_downlink_circuit_trial,
    run_uplink_ber,
    run_uplink_trial,
    synthesize_uplink_trial,
)


class TestHelperPacketTimes:
    def test_cbr_rate(self, rng):
        times = helper_packet_times(1000.0, 2.0, "cbr", rng=rng)
        assert len(times) == pytest.approx(2000, abs=5)
        assert np.all(np.diff(times) > 0)

    def test_poisson_rate(self, rng):
        times = helper_packet_times(1000.0, 4.0, "poisson", rng=rng)
        assert len(times) == pytest.approx(4000, rel=0.1)

    def test_unknown_traffic(self, rng):
        with pytest.raises(ConfigurationError):
            helper_packet_times(100.0, 1.0, "fractal", rng=rng)


class TestUplinkTrials:
    def test_short_range_is_error_free(self):
        trial = run_uplink_trial(0.05, 30, rng=np.random.default_rng(0))
        assert trial.errors == 0

    def test_long_range_is_noisy(self):
        errs = sum(
            run_uplink_trial(1.5, 30, rng=np.random.default_rng(s)).errors
            for s in range(3)
        )
        assert errs > 30  # essentially random at 1.5 m without coding

    def test_ber_aggregation(self):
        result = run_uplink_ber(0.05, 30, repeats=3, seed=1)
        assert result.total_bits == 270
        assert result.runs == 3
        assert result.ber <= 0.01

    def test_rssi_worse_than_csi_at_range(self):
        csi = run_uplink_ber(0.45, 30, mode="csi", repeats=4, seed=2)
        rssi = run_uplink_ber(0.45, 30, mode="rssi", repeats=4, seed=2)
        assert rssi.errors >= csi.errors

    def test_poisson_traffic_supported(self):
        result = run_uplink_ber(
            0.05, 30, repeats=2, traffic="poisson", seed=3
        )
        assert result.ber < 0.05

    def test_invalid_repeats(self):
        with pytest.raises(ConfigurationError):
            run_uplink_ber(0.05, 30, repeats=0)

    def test_starved_preamble_is_a_decode_error(self):
        # 0.1 packets per bit leaves fewer than 2 packets inside the
        # 13-bit Barker preamble, so the noise estimate has nothing to
        # work from.
        with pytest.raises(DecodeError, match="2 preamble packets"):
            run_uplink_ber(0.3, 0.1, repeats=1, seed=0)


@pytest.fixture
def csi_requests(monkeypatch):
    """The ``with_csi`` of every ``Intel5300.measure_batch`` call."""
    requests = []
    measure_batch = Intel5300.measure_batch

    def spy(self, true_channels, timestamps_s, source="helper",
            with_csi=True):
        requests.append(with_csi)
        return measure_batch(self, true_channels, timestamps_s,
                             source=source, with_csi=with_csi)

    monkeypatch.setattr(Intel5300, "measure_batch", spy)
    return requests


class TestRssiOnlyTrials:
    """A fault-free RSSI trial skips the CSI report its decode never
    reads, and decodes exactly what it decoded with the report."""

    @pytest.mark.parametrize("packets_per_bit", [10.0, 30.0])
    @pytest.mark.parametrize("distance", [0.1, 0.3])
    def test_rssi_only_stream_keeps_the_rssi_decode(
        self, distance, packets_per_bit
    ):
        decoder = UplinkDecoder()
        for seed in range(20):
            payload, full, tx_start = synthesize_uplink_trial(
                distance, packets_per_bit, rng=np.random.default_rng(seed)
            )
            lean_payload, lean, lean_start = synthesize_uplink_trial(
                distance, packets_per_bit, rng=np.random.default_rng(seed),
                with_csi=False,
            )
            assert np.array_equal(lean_payload, payload)
            assert lean_start == tx_start
            assert lean.timestamps.tobytes() == full.timestamps.tobytes()
            assert lean.rssi_matrix().tobytes() == full.rssi_matrix().tobytes()
            assert full.csi_coverage() == 1.0
            assert lean.csi_coverage() == 0.0
            decoded = [
                decoder.decode_bits(
                    stream, len(payload), 0.01, mode="rssi",
                    start_time_s=tx_start,
                )
                for stream in (full, lean)
            ]
            assert np.array_equal(decoded[1].bits, decoded[0].bits)
            assert decoded[1].mode == decoded[0].mode == "rssi"
            assert decoded[1].detection.score == decoded[0].detection.score

    @pytest.mark.parametrize("mode, faults, with_csi", [
        ("rssi", None, False),
        ("rssi", FaultPlan(), False),
        ("csi", None, True),
        ("rssi", "nan:prob=0.01", True),
        ("rssi", "outage:duty=0.1,burst=0.3", True),
    ])
    def test_which_trials_render_csi(
        self, csi_requests, mode, faults, with_csi
    ):
        if isinstance(faults, str):
            faults = parse_fault_spec(faults, base_seed=0)
        run_uplink_trial(
            0.1, 10, mode=mode, rng=np.random.default_rng(0), faults=faults
        )
        assert csi_requests == [with_csi]

    def test_rssi_transport_keeps_csi(self, csi_requests):
        # One generator runs across the transport's frames, so its
        # draw sequence keeps the CSI report.
        transport = SimulatedUplinkTransport(
            tag_to_reader_m=0.05, mode="rssi", rng=np.random.default_rng(1)
        )
        transport.pending_frame = UplinkFrame(payload_bits=(1, 0, 1, 1) * 4)
        assert transport.receive(16, 100.0) is not None
        assert csi_requests == [True]

    def test_rssi_ber_on_a_fresh_pool_matches_serial(self):
        serial = run_uplink_ber(0.3, 30, mode="rssi", repeats=4, seed=1)
        engine.shutdown_pool()
        try:
            pooled = run_uplink_ber(
                0.3, 30, mode="rssi", repeats=4, seed=1, workers=2
            )
        finally:
            engine.shutdown_pool()
        assert pooled == serial


class TestCorrelationTrials:
    def test_long_code_reaches_two_meters(self):
        trial = run_correlation_trial(
            2.0, code_length=100, num_bits=8, rng=np.random.default_rng(4)
        )
        assert trial.errors <= 1

    def test_short_code_fails_at_two_meters(self):
        errs = sum(
            run_correlation_trial(
                2.2, code_length=4, num_bits=8,
                packets_per_chip=5.0,
                rng=np.random.default_rng(s),
            ).errors
            for s in range(4)
        )
        assert errs >= 3


class TestDownlink:
    def test_analytic_ber_distance_ordering(self):
        near = run_downlink_ber(0.5, 50e-6, num_bits=50_000, seed=0)
        far = run_downlink_ber(3.5, 50e-6, num_bits=50_000, seed=0)
        assert near.ber < far.ber

    def test_circuit_trial_roundtrip_at_short_range(self):
        sent, received = run_downlink_circuit_trial(
            0.5, 50e-6, rng=np.random.default_rng(5)
        )
        assert len(sent) == len(received)
        errors = int(np.count_nonzero(np.array(sent) != received))
        assert errors <= 1


class TestTransports:
    def test_downlink_transport_delivers_nearby(self):
        from repro.core.frames import DownlinkMessage

        transport = SimulatedDownlinkTransport(
            distance_m=0.5, rng=np.random.default_rng(0)
        )
        msg = DownlinkMessage(payload_bits=tuple([1, 0] * 16))
        delivered = sum(transport.send(msg) for _ in range(20))
        assert delivered >= 19

    def test_downlink_transport_fails_far(self):
        from repro.core.frames import DownlinkMessage

        transport = SimulatedDownlinkTransport(
            distance_m=4.0, rng=np.random.default_rng(0)
        )
        msg = DownlinkMessage(payload_bits=tuple([1, 0] * 16))
        delivered = sum(transport.send(msg) for _ in range(20))
        assert delivered <= 10

    def test_uplink_transport_decodes_pending_frame(self):
        transport = SimulatedUplinkTransport(
            tag_to_reader_m=0.05, packets_per_bit=10.0,
            rng=np.random.default_rng(1),
        )
        frame = UplinkFrame(payload_bits=tuple([1, 0, 1, 1] * 4))
        transport.pending_frame = frame
        decoded = transport.receive(len(frame.payload_bits), 100.0)
        assert decoded is not None
        assert decoded.payload_bits == frame.payload_bits

    def test_uplink_transport_none_without_frame(self):
        transport = SimulatedUplinkTransport(tag_to_reader_m=0.05)
        assert transport.receive(16, 100.0) is None
