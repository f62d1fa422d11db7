"""Continuous-soak harness and cross-run telemetry history.

``repro soak`` executes the scenario corpus
(:mod:`repro.scenarios`) through the parallel engine, appends one
record per scenario to the append-only history store under
``benchmarks/history/``, and runs windowed EWMA trend detection with
direction-aware tolerances (``repro history --check``).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.obs.soak.history": [
        "EWMA_ALPHA", "HISTORY_SCHEMA_VERSION", "MIN_HISTORY", "TREND_SPECS",
        "HistoryStore", "TrendFlag", "check_store", "corrupt_line_counts",
        "default_history_dir", "detect_trends", "make_record",
    ],
    "repro.obs.soak.report": [
        "render_history_text", "render_soak_markdown", "render_soak_text",
    ],
    "repro.obs.soak.runner": [
        "SOAK_SCHEMA_VERSION", "SoakOutcome", "run_soak",
    ],
})
