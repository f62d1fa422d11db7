"""Rendering for performance telemetry: perf reports and alert tables.

Used by ``python -m repro obs-report`` and the ``--profile`` CLI
flag.  Follows the same ASCII-table style as
:mod:`repro.obs.report`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.analysis.report import format_table


def _fmt_s(value: Optional[float]) -> str:
    if value is None:
        return ""
    if value >= 1.0:
        return f"{value:.3f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"


def render_profile(profile: Dict[str, Dict[str, Any]]) -> str:
    """Per-stage cost breakdown: self vs. cumulative time.

    Takes the tracer's stage table.  Stages are shown
    most-expensive-first (the table order); the ``self%`` column is
    each stage's share of the total self time, so it sums to ~100% and
    exposes where the wall clock actually went.
    """
    if not profile:
        return "(no stage timings recorded — run with tracing enabled)"
    total_self = sum(s.get("self_s", 0.0) for s in profile.values()) or 1.0
    rows = []
    for name, s in profile.items():
        rows.append([
            name,
            s.get("calls", 0),
            _fmt_s(s.get("total_s")),
            _fmt_s(s.get("self_s")),
            f"{100.0 * s.get('self_s', 0.0) / total_self:.1f}%",
            _fmt_s(s.get("max_s")),
        ])
    return format_table(
        ["stage", "calls", "cum", "self", "self%", "max"],
        rows,
        title="perf report (per-stage cost)",
    )


def render_alerts(alerts: Sequence[Dict[str, Any]]) -> str:
    """Alert table for fired :class:`~repro.obs.perf.slo.AlertEvent`s."""
    if not alerts:
        return "(no SLO alerts fired)"
    rows = []
    for a in alerts:
        rule = a.get("rule", {})
        window = rule.get("window")
        objective = (
            f"{rule.get('metric', '?')} {rule.get('op', '?')} "
            f"{rule.get('threshold', '?')}"
        )
        if window:
            objective += f" over {window} {rule.get('unit', 'samples')}"
        rows.append([
            rule.get("severity", "?"),
            objective,
            a.get("value"),
            rule.get("action") or "",
        ])
    return format_table(
        ["severity", "objective violated", "observed", "action"],
        rows,
        title="SLO alerts",
    )
