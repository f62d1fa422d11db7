"""Wi-Fi Backscatter: internet connectivity for RF-powered devices.

A full-system reproduction of Kellogg et al., SIGCOMM 2014. The public
API is organized as:

* :mod:`repro.core` — the paper's contribution: uplink CSI/RSSI
  decoding, long-range correlation decoding, downlink on-off keying
  over CTS_to_SELF, rate adaptation, the query-response protocol.
* :mod:`repro.phy` — RF substrate (path loss, multipath, OFDM, the
  backscatter channel).
* :mod:`repro.mac` — 802.11 network substrate (DCF, traffic, beacons,
  monitor capture).
* :mod:`repro.hardware` — commodity-device measurement models (Intel
  5300 CSI, RSSI).
* :mod:`repro.tag` — the RF-powered tag (antenna, modulator, receiver
  circuit, energy).
* :mod:`repro.sim` — calibrated end-to-end experiment drivers.
* :mod:`repro.analysis` — analytic BER models, sweeps, reporting.
* :mod:`repro.traces` — synthetic trace generation and I/O.

Quickstart::

    from repro.sim import run_uplink_ber
    result = run_uplink_ber(tag_to_reader_m=0.30, packets_per_bit=30, seed=1)
    print(result.ber)
"""

__version__ = "1.0.0"

from repro import _heap
from repro._lazy import attach

_heap.retain_freed_heap()

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.errors": [
        "ConfigurationError", "CrcError", "DecodeError", "EnergyError",
        "FrameError", "MediumReservationError", "PreambleNotFound",
        "ReproError", "SimulationError", "TraceFormatError",
    ],
}, eager=["__version__"])
