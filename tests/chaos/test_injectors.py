"""Chaos suite: the injectors themselves.

Determinism, replayability, the zero-overhead no-op contract, and the
statistical shape of each fault mechanism at fixed seeds.
"""

import numpy as np
import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    AgcJump,
    BurstState,
    CsiDropout,
    FaultPlan,
    HelperOutage,
    InterferenceBurst,
    NanCorruption,
    ReaderClockDrift,
    TagBrownout,
    format_fault_plan,
    parse_fault_spec,
)
from repro import obs
from repro.measurement import ChannelMeasurement, MeasurementStream
from repro.sim.link import run_uplink_ber
from repro.sim.seeding import resolve_rng

pytestmark = pytest.mark.chaos


class TestNoOpContract:
    def test_disabled_faults_are_byte_identical(self):
        """faults=None and an empty plan decode byte-identically."""
        base = run_uplink_ber(0.35, 6.0, repeats=2, seed=77)
        empty = run_uplink_ber(0.35, 6.0, repeats=2, seed=77, faults=FaultPlan())
        none = run_uplink_ber(0.35, 6.0, repeats=2, seed=77, faults=None)
        assert base == empty == none

    def test_empty_plan_hooks_do_nothing(self):
        plan = FaultPlan()
        times = np.linspace(0.0, 1.0, 50)
        assert plan.empty
        assert plan.packet_mask(times).all()
        assert plan.tag_powered_mask(times).all()
        assert len(plan) == 0

    def test_empty_spec_parses_to_empty_plan(self):
        assert parse_fault_spec("").empty
        assert parse_fault_spec("  ;  ;").empty


class TestDeterminism:
    def test_same_spec_same_schedule(self):
        spec = "outage:duty=0.2,burst=0.05"
        a = parse_fault_spec(spec, base_seed=11)
        b = parse_fault_spec(spec, base_seed=11)
        times = np.linspace(0.0, 5.0, 2000)
        assert np.array_equal(a.packet_mask(times), b.packet_mask(times))

    def test_reset_replays_exactly(self):
        plan = parse_fault_spec(
            "outage:duty=0.3,burst=0.1;nan:prob=0.5,cells=2", base_seed=5
        )
        times = np.linspace(0.0, 3.0, 1000)
        first = plan.packet_mask(times)
        plan.reset()
        again = plan.packet_mask(times)
        assert np.array_equal(first, again)

    def test_faulted_ber_is_deterministic(self):
        spec = "outage:duty=0.15,burst=0.08"
        a = run_uplink_ber(
            0.35, 6.0, repeats=2, seed=9, faults=parse_fault_spec(spec, 9)
        )
        b = run_uplink_ber(
            0.35, 6.0, repeats=2, seed=9, faults=parse_fault_spec(spec, 9)
        )
        assert a == b

    def test_different_seeds_decorrelate(self):
        times = np.linspace(0.0, 5.0, 2000)
        a = parse_fault_spec("outage:duty=0.3,burst=0.1", base_seed=1)
        b = parse_fault_spec("outage:duty=0.3,burst=0.1", base_seed=2)
        assert not np.array_equal(a.packet_mask(times), b.packet_mask(times))


class TestBurstState:
    def test_duty_cycle_converges(self):
        rng, _ = resolve_rng(None, 42)
        bursts = BurstState(duty_cycle=0.2, mean_burst_s=0.05, rng=rng)
        times = np.linspace(0.0, 200.0, 40001)
        frac = np.mean(bursts.in_burst(times))
        assert 0.15 < frac < 0.25

    def test_zero_duty_never_bursts(self):
        rng, _ = resolve_rng(None, 0)
        bursts = BurstState(duty_cycle=0.0, mean_burst_s=1.0, rng=rng)
        assert not bursts.in_burst(np.linspace(0, 10, 100)).any()

    def test_lazy_extension_is_query_order_independent(self):
        rng1, _ = resolve_rng(None, 3)
        rng2, _ = resolve_rng(None, 3)
        a = BurstState(0.3, 0.1, rng1)
        b = BurstState(0.3, 0.1, rng2)
        times = np.linspace(0.0, 4.0, 500)
        fwd = [bool(a.in_burst([t])[0]) for t in times]
        rev = [bool(b.in_burst([t])[0]) for t in reversed(times)]
        assert fwd == list(reversed(rev))

    def test_validation(self):
        rng, _ = resolve_rng(None, 0)
        with pytest.raises(FaultInjectionError):
            BurstState(1.0, 0.1, rng)
        with pytest.raises(FaultInjectionError):
            BurstState(0.5, 0.0, rng)


def _corrupt_one(inj, csi, rssi, time_s):
    """One record through ``inj``'s array hook; returns ``(csi, rssi)``."""
    has_csi = csi is not None
    csi_block = (np.array(csi, dtype=float)[None] if has_csi
                 else np.empty((1, 0, 0)))
    rssi_block = np.array(rssi, dtype=float)[None]
    inj.corrupt_rows(csi_block, rssi_block, np.array([has_csi]),
                     np.array([time_s]))
    return (csi_block[0] if has_csi else None), rssi_block[0]


class TestIndividualInjectors:
    def test_outage_drops_roughly_duty_fraction(self):
        plan = FaultPlan((HelperOutage(0.25, 0.1, seed=6),))
        times = np.linspace(0.0, 100.0, 20000)
        keep = plan.packet_mask(times)
        dropped = 1.0 - keep.mean()
        assert 0.18 < dropped < 0.32

    def test_brownout_darkens_tag(self):
        plan = FaultPlan((TagBrownout(0.3, 0.2, seed=8),))
        times = np.linspace(0.0, 50.0, 10000)
        powered = plan.tag_powered_mask(times)
        assert 0.6 < powered.mean() < 0.8

    def test_nan_corruption_poisons_csi(self):
        inj = NanCorruption(probability=1.0, cells=4, seed=2)
        csi = np.ones((3, 30))
        out, rssi = _corrupt_one(inj, csi, np.zeros(3), 0.0)
        assert np.isnan(out).sum() == 4
        assert np.isfinite(rssi).all()

    def test_saturate_mode_uses_finite_sentinel(self):
        inj = NanCorruption(probability=1.0, cells=2, mode="saturate", seed=2)
        out, _ = _corrupt_one(inj, np.ones((3, 30)), np.zeros(3), 0.0)
        assert np.isfinite(out).all()
        assert (out == inj.saturate_value).sum() == 2

    def test_agc_jump_scales_whole_record(self):
        inj = AgcJump(probability=1.0, max_jump_db=6.0, seed=4)
        csi = np.full((3, 30), 2.0)
        out, _ = _corrupt_one(inj, csi, np.zeros(3), 0.0)
        ratio = out / csi
        assert np.allclose(ratio, ratio.flat[0])  # one gain for the packet
        assert 10 ** (-6 / 20) <= ratio.flat[0] <= 10 ** (6 / 20)

    def test_clock_drift_warps_timestamps(self):
        inj = ReaderClockDrift(drift_ppm=1000.0, jitter_std_s=0.0, seed=1)
        assert inj.warp_times(np.array([10.0]))[0] == pytest.approx(10.01)

    def test_interference_moves_rssi(self):
        inj = InterferenceBurst(0.9999 - 1e-4, 1000.0, rssi_shift_db=10.0, seed=3)
        # duty ~1 with an enormous burst: t=5 is essentially surely in-burst
        _, rssi = _corrupt_one(inj, None, np.zeros(3), 5.0)
        assert rssi.mean() > 5.0

    def test_csi_dropout_is_stable_within_a_burst(self):
        params = dict(subchannel_fraction=0.2, seed=7)
        csi = np.ones((3, 30))
        # find an in-burst instant: the first row a twin injector touches
        grid = np.linspace(0, 50, 5000)
        twin = CsiDropout(0.5, 10.0, **params)
        touched = twin.corrupt_rows(
            np.ones((len(grid), 3, 30)), np.zeros((len(grid), 3)),
            np.ones(len(grid), dtype=bool), grid,
        )
        t = float(grid[touched.argmax()])
        inj = CsiDropout(0.5, 10.0, **params)
        a, _ = _corrupt_one(inj, csi, np.zeros(3), t)
        b, _ = _corrupt_one(inj, csi, np.zeros(3), t + 1e-4)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.isnan(a).sum() == round(0.2 * csi.size)


class TestStreamCorruption:
    """corrupt_records over a stream's arrays == corrupt_measurement
    record by record, and its touched mask == the records that changed."""

    @pytest.mark.parametrize("spec", [
        "csi_dropout:duty=0.3,burst=0.05,frac=0.5;nan:prob=0.05;"
        "agc_jump:prob=0.05",
        "interference:duty=0.3,burst=0.05;drift:ppm=80,jitter=0.0005",
        "outage:duty=0.2,burst=0.05;brownout:duty=0.2,burst=0.05",
    ])
    def test_matches_per_record_path(self, spec):
        rng = np.random.default_rng(4)
        rows = [
            ChannelMeasurement(
                timestamp_s=float(t),
                csi=None if i % 7 == 3 else rng.uniform(0.0, 8.0, (3, 30)),
                rssi_dbm=rng.normal(-40.0, 1.0, 3),
                source="ap" if i % 5 else "sta",
            )
            for i, t in enumerate(np.sort(rng.uniform(0.0, 0.5, 300)))
        ]
        stream = MeasurementStream(rows)
        with obs.session(metrics=True, tracing=False) as (registry, _):
            out, touched = parse_fault_spec(spec, base_seed=9) \
                .corrupt_records(stream)
            arrays = registry.snapshot()
        with obs.session(metrics=True, tracing=False) as (registry, _):
            twin = parse_fault_spec(spec, base_seed=9)
            expected, changed, last = [], [], -np.inf
            for row in rows:
                new = twin.corrupt_measurement(row)
                t = max(new.timestamp_s, last)
                changed.append(new is not row or t != new.timestamp_s)
                expected.append(ChannelMeasurement(
                    timestamp_s=t, csi=new.csi, rssi_dbm=new.rssi_dbm,
                    source=new.source,
                ))
                last = t
            records = registry.snapshot()
        expected = MeasurementStream(expected)
        assert touched.tolist() == changed
        assert arrays == records
        assert np.array_equal(out.timestamps, expected.timestamps)
        assert np.array_equal(out.has_csi, expected.has_csi)
        assert np.array_equal(out.sources, expected.sources)
        assert np.array_equal(out.rssi_matrix(), expected.rssi_matrix())
        assert np.array_equal(out.csi[out.has_csi],
                              expected.csi[expected.has_csi], equal_nan=True)
        if not any(changed):
            assert out is stream


class TestSpecParsing:
    def test_unknown_injector_rejected(self):
        with pytest.raises(FaultInjectionError):
            parse_fault_spec("gremlins:duty=0.1")

    def test_malformed_pair_rejected(self):
        with pytest.raises(FaultInjectionError):
            parse_fault_spec("outage:duty")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(FaultInjectionError):
            parse_fault_spec("outage:duty=lots,burst=0.1")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FaultInjectionError):
            parse_fault_spec("outage:duty=0.1,burst=0.1,color=red")

    def test_aliases_and_seeds(self):
        plan = parse_fault_spec(
            "outage:duty=0.1,burst=0.05;drift:ppm=50,jitter=1e-4",
            base_seed=100,
        )
        assert len(plan) == 2
        outage, drift = plan.injectors
        assert outage.duty_cycle == 0.1
        assert outage.seed == 100
        assert drift.drift_ppm == 50.0
        assert drift.seed == 101

    def test_explicit_seed_wins(self):
        plan = parse_fault_spec("outage:duty=0.1,burst=0.05,seed=7", base_seed=0)
        assert plan.injectors[0].seed == 7

    def test_format_round_trip_mentions_every_injector(self):
        plan = parse_fault_spec("outage:duty=0.1,burst=0.05;nan:prob=0.2")
        text = format_fault_plan(plan)
        assert "outage" in text and "nan" in text
        assert format_fault_plan(None) == "none"
        assert format_fault_plan(FaultPlan()) == "none"
