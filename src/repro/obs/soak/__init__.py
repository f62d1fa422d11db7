"""Continuous-soak harness and cross-run telemetry history.

``repro soak`` executes the scenario corpus
(:mod:`repro.scenarios`) through the parallel engine, appends one
record per scenario to the append-only history store under
``benchmarks/history/``, and runs windowed EWMA trend detection with
direction-aware tolerances (``repro history --check``).
"""

from repro.obs.soak.history import (
    EWMA_ALPHA,
    HISTORY_SCHEMA_VERSION,
    MIN_HISTORY,
    TREND_SPECS,
    HistoryStore,
    TrendFlag,
    check_store,
    corrupt_line_counts,
    default_history_dir,
    detect_trends,
    make_record,
)
from repro.obs.soak.report import (
    render_history_text,
    render_soak_markdown,
    render_soak_text,
)
from repro.obs.soak.runner import SOAK_SCHEMA_VERSION, SoakOutcome, run_soak

__all__ = [
    "EWMA_ALPHA",
    "HISTORY_SCHEMA_VERSION",
    "MIN_HISTORY",
    "SOAK_SCHEMA_VERSION",
    "TREND_SPECS",
    "HistoryStore",
    "SoakOutcome",
    "TrendFlag",
    "check_store",
    "corrupt_line_counts",
    "default_history_dir",
    "detect_trends",
    "make_record",
    "render_history_text",
    "render_soak_markdown",
    "render_soak_text",
    "run_soak",
]
