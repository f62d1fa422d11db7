"""Tag substrate: antenna, modulator, harvester, MCU."""

import numpy as np
import pytest

from repro.core.coding import make_code_pair
from repro.core.frames import UplinkFrame
from repro.errors import ConfigurationError, EnergyError
from repro.tag.antenna import PatchArrayAntenna
from repro.tag.harvester import (
    EnergyHarvester,
    MCU_ACTIVE_POWER_W,
    MCU_SLEEP_POWER_W,
    RECEIVER_POWER_W,
    TRANSMIT_POWER_W,
    power_budget_summary,
    rectifier_efficiency,
    tv_power_density_w_m2,
    wifi_power_density_w_m2,
)
from repro.tag.mcu import McuEnergyLedger, McuPowerProfile
from repro.tag.modulator import TagModulator, alternating_bits, random_payload


class TestAntenna:
    def test_array_gain_above_element_gain(self):
        ant = PatchArrayAntenna()
        assert ant.array_gain_dbi > ant.element_gain_dbi

    def test_six_elements_add_7_8_db(self):
        ant = PatchArrayAntenna(num_elements=6, element_gain_dbi=6.0)
        assert ant.array_gain_dbi == pytest.approx(6.0 + 7.78, abs=0.05)

    def test_coupling_positive_and_gain_dependent(self):
        small = PatchArrayAntenna(num_elements=1)
        big = PatchArrayAntenna(num_elements=6)
        assert 0 < small.differential_coupling < big.differential_coupling

    def test_effective_aperture_reasonable(self):
        # A ~14 dBi array at 12.3 cm wavelength: tens of cm^2.
        ant = PatchArrayAntenna()
        assert 0.001 < ant.effective_aperture_m2 < 0.1

    def test_harvested_power(self):
        ant = PatchArrayAntenna()
        assert ant.harvested_power_w(1e-3) == pytest.approx(
            1e-3 * ant.effective_aperture_m2
        )
        with pytest.raises(ConfigurationError):
            ant.harvested_power_w(-1.0)


class TestModulator:
    def test_idle_outside_transmission(self):
        mod = TagModulator(bit_duration_s=0.01)
        assert mod.state(0.0) == 0
        mod.load_bits([1, 1, 0], start_time_s=1.0)
        assert mod.state(0.5) == 0
        assert mod.state(1.035) == pytest.approx(0)
        assert mod.state(10.0) == 0

    def test_bits_mapped_to_states(self):
        mod = TagModulator(bit_duration_s=0.01)
        mod.load_bits([1, 0, 1], start_time_s=0.0)
        assert mod.state(0.005) == 1
        assert mod.state(0.015) == 0
        assert mod.state(0.025) == 1

    def test_clock_skew_stretches_bits(self):
        mod = TagModulator(bit_duration_s=0.01, clock_skew_ppm=50_000)
        assert mod.effective_bit_duration_s == pytest.approx(0.0105)
        mod.load_bits([1, 0], start_time_s=0.0)
        # At 10.2 ms a skew-free tag is on bit 1; the slow tag is still
        # on bit 0.
        assert mod.state(0.0102) == 1

    @pytest.mark.parametrize("skew_ppm", [0.0, 20_000.0, -35_000.0])
    @pytest.mark.parametrize("idle_state", [0, 1])
    def test_states_match_state_exactly(self, skew_ppm, idle_state):
        rng = np.random.default_rng(3)
        mod = TagModulator(bit_duration_s=0.01, clock_skew_ppm=skew_ppm,
                           idle_state=idle_state)
        times = np.sort(rng.uniform(0.0, 1.0, size=2000))
        assert np.array_equal(mod.states(times), [idle_state] * len(times))
        mod.load_bits(random_payload(40, rng), start_time_s=0.3)
        # Cover idle before and after the frame and every bit edge.
        edges = 0.3 + np.arange(41) * mod.effective_bit_duration_s
        times = np.sort(np.concatenate([times, edges, np.nextafter(edges, 0)]))
        expected = [mod.state(t) for t in times]
        got = mod.states(times)
        assert got.dtype.kind == "i"
        assert got.tolist() == expected
        assert got[0] == got[-1] == idle_state

    def test_load_frame(self):
        mod = TagModulator()
        frame = UplinkFrame(payload_bits=(1, 0, 1, 1))
        bits = mod.load_frame(frame, 0.0)
        assert bits == frame.to_bits()

    def test_load_coded_frame_expands(self):
        mod = TagModulator()
        frame = UplinkFrame(payload_bits=(1, 0))
        pair = make_code_pair(8)
        states = mod.load_coded_frame(frame, pair, 0.0)
        assert len(states) == len(frame.to_bits()) * 8
        assert set(states) <= {0, 1}

    def test_energy_accounting(self):
        mod = TagModulator(bit_duration_s=0.01)
        assert mod.energy_used_j() == 0.0
        mod.load_bits([1] * 100, 0.0)
        expected = 0.65e-6 * 1.0  # 0.65 uW for 1 s
        assert mod.energy_used_j() == pytest.approx(expected)

    def test_end_time(self):
        mod = TagModulator(bit_duration_s=0.01)
        with pytest.raises(ConfigurationError):
            _ = mod.end_time_s
        mod.load_bits([1, 0], 2.0)
        assert mod.end_time_s == pytest.approx(2.02)

    def test_helpers(self):
        assert alternating_bits(4) == [1, 0, 1, 0]
        bits = random_payload(100, np.random.default_rng(0))
        assert set(bits) <= {0, 1}
        assert len(bits) == 100
        with pytest.raises(ConfigurationError):
            alternating_bits(0)

    def test_invalid_bits(self):
        mod = TagModulator()
        with pytest.raises(ConfigurationError):
            mod.load_bits([2], 0.0)
        with pytest.raises(ConfigurationError):
            mod.load_bits([], 0.0)


class TestHarvester:
    def test_paper_power_numbers(self):
        budget = power_budget_summary()
        assert budget["transmit_circuit_w"] == pytest.approx(0.65e-6)
        assert budget["receiver_circuit_w"] == pytest.approx(9.0e-6)
        assert MCU_ACTIVE_POWER_W > 100 * MCU_SLEEP_POWER_W

    def test_rectifier_efficiency_monotone(self):
        effs = [rectifier_efficiency(10 ** (dbm / 10) * 1e-3)
                for dbm in (-30, -20, -10, 0)]
        assert effs == sorted(effs)
        assert 0 < effs[0] < effs[-1] <= 0.5

    def test_charge_and_draw(self):
        h = EnergyHarvester(stored_j=0.0)
        added = h.charge(incident_density_w_m2=1e-2, duration_s=10.0)
        assert added > 0
        h.draw(power_w=added / 20.0, duration_s=10.0)
        assert h.stored_j == pytest.approx(added / 2.0)

    def test_overdraw_raises(self):
        h = EnergyHarvester(stored_j=1e-9)
        with pytest.raises(EnergyError):
            h.draw(power_w=1.0, duration_s=1.0)

    def test_capacity_cap(self):
        h = EnergyHarvester(capacitance_f=1e-6, max_voltage_v=1.0)
        h.charge(incident_density_w_m2=100.0, duration_s=1000.0)
        assert h.stored_j == pytest.approx(h.capacity_j)

    def test_duty_cycle_endpoints(self):
        h = EnergyHarvester()
        assert h.sustainable_duty_cycle(0.0, 300e-6) == 0.0
        assert h.sustainable_duty_cycle(1.0, 300e-6) == 1.0
        mid = h.sustainable_duty_cycle(150e-6, 300e-6)
        assert 0.4 < mid < 0.6

    def test_wifi_harvest_at_one_foot_sustains_circuits(self):
        # "the Wi-Fi power harvester can continuously run both the
        # transmitter and receiver from a distance of one foot from the
        # Wi-Fi reader" (§6).
        h = EnergyHarvester()
        density = wifi_power_density_w_m2(tx_power_w=40e-3, distance_m=0.3048)
        rate = h.harvest_rate_w(density)
        assert rate >= RECEIVER_POWER_W + TRANSMIT_POWER_W

    def test_tv_harvest_duty_cycle_near_half(self):
        # "in a dual-antenna system with both Wi-Fi and TV harvesting,
        # the full system could be powered with a duty cycle of around
        # 50% at a distance of 10 km from a TV broadcast tower" (§6).
        # The second antenna is a UHF (TV-band) element whose aperture
        # is much larger at the ~600 MHz wavelength.
        uhf = PatchArrayAntenna(
            num_elements=1, element_gain_dbi=6.0, center_frequency_hz=600e6
        )
        h = EnergyHarvester(antenna=uhf)
        density = tv_power_density_w_m2(erp_w=1e6, distance_m=10_000.0)
        rate = h.harvest_rate_w(density)
        full_system = RECEIVER_POWER_W + TRANSMIT_POWER_W + 10e-6
        duty = h.sustainable_duty_cycle(rate, full_system)
        assert 0.25 < duty <= 1.0


class TestMcuLedger:
    def test_energy_accumulates(self):
        ledger = McuEnergyLedger()
        ledger.idle(1.0)
        sleep_only = ledger.energy_j
        ledger.decode_packet(80)
        assert ledger.energy_j > sleep_only

    def test_average_power_between_sleep_and_active(self):
        ledger = McuEnergyLedger()
        ledger.idle(1.0)
        ledger.transition_event(100)
        avg = ledger.average_power_w
        assert MCU_SLEEP_POWER_W < avg < MCU_ACTIVE_POWER_W

    def test_false_wakeups_tracked(self):
        ledger = McuEnergyLedger()
        ledger.idle(10.0)
        ledger.decode_packet(80, false_positive=True)
        ledger.decode_packet(80, false_positive=False)
        assert ledger.false_wakeups == 1

    def test_false_wake_cost_positive(self):
        ledger = McuEnergyLedger()
        cost = ledger.false_wake_energy_cost_j(80)
        assert cost > 0
        # Dominated by the full-wake decode (hundreds of us at active power).
        assert cost < 1e-6

    def test_average_power_requires_time(self):
        with pytest.raises(ConfigurationError):
            _ = McuEnergyLedger().average_power_w

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            McuPowerProfile(active_power_w=1e-9, sleep_power_w=1e-6)
