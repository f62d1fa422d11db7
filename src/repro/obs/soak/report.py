"""Soak report rendering: markdown and plain-text views of a soak doc.

The JSON soak document (``SoakOutcome.to_document``) is the artifact;
this module turns it into the human-facing report: a per-scenario
table of measured BER / goodput / latency against the expected
envelope, with the dominant forensics root-cause label called out for
every scenario that missed its envelope, followed by the cross-run
trend flags.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


def _fmt(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _envelope_cell(sc: Dict[str, Any], metric: str) -> str:
    """``measured (op bound)`` for one metric, or just the measurement."""
    measured = (sc.get("metrics") or {}).get(metric)
    for bound in sc.get("envelope") or ():
        if bound.get("metric") == metric:
            mark = "" if bound.get("ok") else " !"
            return (
                f"{_fmt(measured)} ({bound.get('op')} "
                f"{_fmt(bound.get('bound'))}){mark}"
            )
    return _fmt(measured)


def render_soak_markdown(doc: Dict[str, Any]) -> str:
    """Markdown soak report from a soak document."""
    summary = doc.get("summary") or {}
    lines: List[str] = []
    lines.append(f"# Soak report `{doc.get('run_id', '?')}`")
    lines.append("")
    commit = doc.get("commit") or "unknown"
    dirty = " (dirty)" if doc.get("git_dirty") else ""
    lines.append(
        f"- commit: `{commit[:12]}`{dirty} on `{doc.get('hostname', '?')}`"
    )
    lines.append(f"- timestamp: {doc.get('timestamp', '?')}")
    lines.append(
        f"- seed {doc.get('seed', 0)}, trial scale "
        f"{doc.get('trial_scale', 1.0)}, workers {doc.get('workers', 1)}, "
        f"wall {_fmt(doc.get('wall_s'))} s"
    )
    lines.append(
        f"- **{summary.get('passed', 0)}/{summary.get('total', 0)} "
        f"scenarios inside their envelope**, "
        f"{summary.get('trend_flags', 0)} trend flag(s)"
    )
    lines.append("")

    lines.append("## Scenarios")
    lines.append("")
    lines.append(
        "| scenario | mode | regime | BER | throughput (bps) | "
        "latency (s) | verdict | attribution |"
    )
    lines.append("|---|---|---|---|---|---|---|---|")
    for sc in doc.get("scenarios") or ():
        derived = sc.get("derived") or {}
        verdict = "pass" if sc.get("passed") else "**FAIL**"
        label = sc.get("dominant_label")
        # The attribution column matters most on a miss: which decode
        # stage dominated the errors that broke the envelope.
        attribution = label if label else ("-" if sc.get("passed") else
                                           "(no recorded frames)")
        lines.append(
            f"| {sc.get('name')} "
            f"| {derived.get('mode', '-')} "
            f"| {derived.get('regime', '-')} "
            f"| {_envelope_cell(sc, 'ber')} "
            f"| {_envelope_cell(sc, 'throughput_bps')} "
            f"| {_envelope_cell(sc, 'latency_s')} "
            f"| {verdict} "
            f"| {attribution} |"
        )
    lines.append("")

    failed = [
        sc for sc in (doc.get("scenarios") or ()) if not sc.get("passed")
    ]
    if failed:
        lines.append("## Envelope misses")
        lines.append("")
        for sc in failed:
            misses = [
                f"{b.get('metric')} {_fmt(b.get('measured'))} "
                f"(bound {b.get('op')} {_fmt(b.get('bound'))})"
                for b in sc.get("envelope") or ()
                if not b.get("ok")
            ]
            label = sc.get("dominant_label") or "unattributed"
            frames = sc.get("attribution", {}).get("frames_by_label") or {}
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(frames.items())
            )
            alert_note = ""
            if sc.get("alerts"):
                alert_note = f"; {len(sc['alerts'])} SLO alert(s)"
            lines.append(
                f"- **{sc.get('name')}**: {'; '.join(misses) or 'SLO only'} "
                f"— dominant root cause: **{label}**"
                + (f" ({detail})" if detail else "")
                + alert_note
            )
        lines.append("")

    flags = doc.get("trend_flags") or []
    lines.append("## Cross-run trend flags")
    lines.append("")
    if not flags:
        lines.append("None — every metric is inside its EWMA band.")
    else:
        lines.append(
            "| scenario | metric | EWMA | measured | limit | window | "
            "root cause |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for f in flags:
            lines.append(
                f"| {f.get('scenario')} | {f.get('metric')} "
                f"| {_fmt(f.get('ewma'))} | {_fmt(f.get('measured'))} "
                f"| {_fmt(f.get('limit'))} | {f.get('window')} "
                f"| {f.get('dominant_label') or '-'} |"
            )
    lines.append("")
    return "\n".join(lines)


def render_soak_text(doc: Dict[str, Any]) -> str:
    """Terminal-friendly table view (the CLI's default rendering)."""
    from repro.analysis.report import format_table

    summary = doc.get("summary") or {}
    rows = []
    for sc in doc.get("scenarios") or ():
        label = sc.get("dominant_label")
        rows.append([
            sc.get("name"),
            (sc.get("derived") or {}).get("mode", "-"),
            _envelope_cell(sc, "ber"),
            _envelope_cell(sc, "throughput_bps"),
            _envelope_cell(sc, "latency_s"),
            "pass" if sc.get("passed") else "FAIL",
            label or ("-" if sc.get("passed") else "(none)"),
        ])
    table = format_table(
        ["scenario", "mode", "ber", "throughput", "latency", "verdict",
         "attribution"],
        rows,
        title=(
            f"soak {doc.get('run_id', '?')}: "
            f"{summary.get('passed', 0)}/{summary.get('total', 0)} in "
            f"envelope, {summary.get('trend_flags', 0)} trend flag(s)"
        ),
    )
    flags = doc.get("trend_flags") or []
    if flags:
        flag_rows = [
            [f.get("scenario"), f.get("metric"), _fmt(f.get("ewma")),
             _fmt(f.get("measured")), _fmt(f.get("limit")),
             f.get("dominant_label") or "-"]
            for f in flags
        ]
        table += "\n\n" + format_table(
            ["scenario", "metric", "ewma", "measured", "limit",
             "root cause"],
            flag_rows,
            title="cross-run trend flags",
        )
    return table


def render_history_text(
    scenario: str,
    records: List[Dict[str, Any]],
    limit: Optional[int] = None,
    corrupt: int = 0,
) -> str:
    """Plain-text view of one scenario's history tail."""
    from repro.analysis.report import format_table

    shown = records[-limit:] if limit else records
    rows = []
    for r in shown:
        metrics = r.get("metrics") or {}
        commit = r.get("commit") or "?"
        rows.append([
            str(r.get("timestamp", "?"))[:19],
            commit[:10] + ("*" if r.get("git_dirty") else ""),
            r.get("hostname", "?"),
            _fmt(r.get("trial_scale")),
            _fmt(metrics.get("ber")),
            _fmt(metrics.get("throughput_bps")),
            _fmt(metrics.get("latency_s")),
            "pass" if r.get("passed") else "FAIL",
            r.get("dominant_label") or "-",
        ])
    table = format_table(
        ["timestamp", "commit", "host", "scale", "ber", "throughput",
         "latency", "verdict", "root cause"],
        rows,
        title=f"history: {scenario} ({len(records)} record(s); "
              "* = dirty checkout)",
    )
    if corrupt:
        table += (
            f"\n!! {corrupt} corrupt line(s) skipped in "
            f"{scenario}.jsonl (torn append?)"
        )
    return table
