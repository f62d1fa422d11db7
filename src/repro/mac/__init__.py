"""802.11 MAC substrate: DCF, stations, traffic, beacons, capture.

An event-driven 802.11 network simulation providing the traffic
dynamics the paper's uplink depends on: helper packet rates, bursty
shared-medium arrivals, AP beacons, CTS_to_SELF reservations, and
monitor-mode capture that turns each heard packet into a CSI/RSSI
measurement at the reader.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.mac.beacons": ["BeaconNetwork", "build_beacon_network"],
    "repro.mac.capture": ["MonitorCapture", "idle_tag"],
    "repro.mac.cts_to_self": [
        "ReservationPlan", "cts_to_self_frame", "plan_reservations",
    ],
    "repro.mac.dcf": ["DcfAccess", "DcfStats", "LinkQualityModel", "Medium"],
    "repro.mac.packets": ["FrameKind", "Transmission", "WifiFrame"],
    "repro.mac.rate_control": [
        "RateController", "SnrLinkQualityModel", "snr_from_distance",
    ],
    "repro.mac.simulator": ["EventHandle", "EventScheduler"],
    "repro.mac.station": ["AccessPoint", "Station"],
    "repro.mac.traffic": [
        "BurstyTraffic", "ConstantRateTraffic", "DiurnalOfficeLoad",
        "PoissonTraffic", "SaturatedTraffic", "office_load_pps",
    ],
})
