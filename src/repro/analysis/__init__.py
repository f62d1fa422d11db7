"""Analytic models, sweeps, and report rendering."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.analysis.ber": [
        "CorrelationRangeModel", "DownlinkDetectionModel", "majority_vote_ber",
        "measurement_error_probability", "q_function", "q_inverse",
        "uplink_ber",
    ],
    "repro.analysis.report": [
        "format_table", "log_sparkline", "paper_vs_measured", "render_series",
    ],
    "repro.analysis.sweep": [
        "SweepPoint", "SweepResult", "crossover_x", "monotone_fraction",
        "sweep",
    ],
    "repro.analysis.throughput": [
        "DcfTiming", "saturation_throughput_bps",
        "single_station_throughput_bps", "transmission_probability",
    ],
})
