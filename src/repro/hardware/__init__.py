"""Commodity Wi-Fi hardware models: CSI/RSSI reporting and artefacts.

Models the measurement side of off-the-shelf devices: the Intel 5300's
30x3 CSI reports with quantization, AGC wander, spurious glitches, and
a weak antenna; coarse 1 dB RSSI on everything else; and device
capability profiles.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.hardware.agc": ["AgcModel"],
    "repro.hardware.devices": [
        "INTEL_5300", "LINKSYS_WRT54GL", "THINKPAD_LAPTOP", "DeviceProfile",
        "reader_capabilities",
    ],
    "repro.hardware.intel5300": ["Intel5300"],
    "repro.hardware.rssi": ["RssiModel"],
})
