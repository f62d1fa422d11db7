"""Trace generation and persistence."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.traces.format": ["FORMAT_VERSION", "load_stream", "save_stream"],
    "repro.traces.synthetic": [
        "TrafficSample", "hours_range", "office_traffic_sample",
        "sample_to_intervals",
    ],
})
