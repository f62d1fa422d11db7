"""RF-powered tag substrate: antenna, modulator, receiver, energy.

Models the paper's prototype tag: the six-element patch-array antenna
with switchable radar cross-section, the MSP430-driven uplink
modulator, the ~1 uW peak-detection downlink receiver circuit, the MCU
power-state machine, and the RF energy harvester that makes the whole
device battery-free.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.tag.antenna": ["PatchArrayAntenna"],
    "repro.tag.harvester": [
        "EnergyHarvester", "MCU_ACTIVE_POWER_W", "MCU_SLEEP_POWER_W",
        "RECEIVER_POWER_W", "TRANSMIT_POWER_W", "power_budget_summary",
        "rectifier_efficiency", "tv_power_density_w_m2",
        "wifi_power_density_w_m2",
    ],
    "repro.tag.mcu": ["McuEnergyLedger", "McuMode", "McuPowerProfile"],
    "repro.tag.modulator": [
        "TagModulator", "alternating_bits", "random_payload",
    ],
    "repro.tag.receiver_circuit": ["CIRCUIT_POWER_W", "ReceiverCircuit"],
    "repro.tag.tag": ["WiFiBackscatterTag"],
})
