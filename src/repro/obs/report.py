"""Human-readable rendering of observability data.

Used by ``python -m repro obs-report`` and the ``--trace`` CLI flag:
turns a run manifest (or the live tracer/registry) into the same
ASCII-table style the experiment commands print.
:func:`render_artifact` is the one entry point for artifact files: it
recognises each kind by its schema tag and hands it to that kind's
renderer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "open"
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"


def _fmt_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        if len(value) > 8:
            head = ", ".join(_fmt_attr(v) for v in value[:8])
            return f"[{head}, ... ({len(value)} items)]"
        return "[" + ", ".join(_fmt_attr(v) for v in value) + "]"
    return str(value)


def render_span_tree(spans: Sequence[Dict[str, Any]], max_attrs: int = 6) -> str:
    """Indented tree of span dicts (name, duration, key attributes)."""
    lines: List[str] = []

    def visit(span: Dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        dur = _fmt_seconds(span.get("duration_s"))
        line = f"{indent}{span.get('name', '?')}  [{dur}]"
        if span.get("error"):
            line += f"  !{span['error']}"
        attrs = span.get("attributes") or {}
        if attrs:
            shown = list(attrs.items())[:max_attrs]
            rendered = ", ".join(f"{k}={_fmt_attr(v)}" for k, v in shown)
            if len(attrs) > max_attrs:
                rendered += f", ... (+{len(attrs) - max_attrs})"
            line += f"  {{{rendered}}}"
        lines.append(line)
        for child in span.get("children") or []:
            visit(child, depth + 1)

    for root in spans:
        visit(root, 0)
    return "\n".join(lines)


def render_metrics(metrics: Dict[str, Dict[str, Any]]) -> str:
    """Metric snapshot as a table (one row per metric)."""
    if not metrics:
        return "(no metrics recorded)"
    rows = []
    for name in sorted(metrics):
        summary = dict(metrics[name])
        kind = summary.pop("type", "?")
        if kind in ("counter", "gauge"):
            detail = ""
            value = summary.get("value")
        else:
            value = summary.get("mean")
            parts = []
            count, retained = summary.get("count"), summary.get("retained")
            if retained is not None and count is not None and retained < count:
                # A time series' stats cover its retained ring only.
                parts.append(f"last {retained} of {count}:")
            elif count is not None:
                parts.append(f"count={_fmt_attr(count)}")
            for key in ("min", "max", "p95"):
                if summary.get(key) is not None:
                    parts.append(f"{key}={_fmt_attr(summary[key])}")
            detail = " ".join(parts)
        rows.append([name, kind, "" if value is None else value, detail])
    return format_table(["metric", "type", "value", "detail"], rows)


def render_telemetry(
    header: Dict[str, Any],
    snapshots: Sequence[Dict[str, Any]],
    final: Optional[Dict[str, Any]] = None,
    top: Optional[int] = None,
) -> str:
    """Compact serve-health report for a telemetry snapshot stream.

    Consumes the ``(header, snapshots, final)`` triple produced by
    :func:`repro.serve.telemetry.read_telemetry` as plain dicts.
    ``top`` caps the rows per offender board in the fleet section.
    """
    sections: List[str] = []
    status = (final or {}).get("event") or "truncated"
    head_rows = [
        ["run", header.get("run_id", "?")],
        ["seed", header.get("seed")],
        ["cadence", f"{header.get('cadence_s', 0)} s"],
        ["snapshots", len(snapshots)],
        ["stream", status],
    ]
    sections.append(
        format_table(
            ["field", "value"], head_rows, title="serve telemetry stream"
        )
    )
    if snapshots:
        rows = []
        for snap in snapshots:
            lat = snap.get("latency") or {}
            budget = (snap.get("budget") or [{}])[0]
            remaining = budget.get("remaining")
            active = snap.get("alerts_active", 0)
            fired = sum(
                1 for a in snap.get("alerts") or []
                if a.get("kind") == "fired"
            )
            rows.append([
                f"{snap.get('t_s', 0.0):.1f}",
                snap.get("queue_depth", 0),
                snap.get("delivered", 0),
                snap.get("shed", 0),
                snap.get("deadline_abandoned", 0),
                f"{(lat.get('p95') or 0.0) * 1e3:.0f}",
                "-" if remaining is None else f"{remaining:.1%}",
                f"{active}{'!' if fired else ''}",
            ])
        sections.append(
            format_table(
                ["t_s", "queue", "delivered", "shed", "deadline",
                 "p95 ms", "budget left", "alerts"],
                rows,
                title="serve health",
            )
        )
        reasons = snapshots[-1].get("shed_by_reason") or {}
        if reasons:
            sections.append(
                "shed by reason: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(reasons.items())
                )
            )
    transitions = [
        a for snap in snapshots for a in snap.get("alerts") or []
    ]
    if transitions:
        lines = [
            f"  t={a.get('at_s', 0.0):.1f}s "
            f"{a.get('message') or a.get('kind')}"
            for a in transitions
        ]
        sections.append("burn-rate transitions\n" + "\n".join(lines))
    fleet = (snapshots[-1].get("fleet") or {}) if snapshots else {}
    if fleet.get("outcomes"):
        from repro.obs.fleet.report import render_fleet_block

        # The last snapshot carries the cumulative fleet state; the
        # per-snapshot blocks only carry that tick's transitions, so
        # splice the full stream's transition history back in.
        fleet = dict(fleet)
        fleet["transitions"] = [
            tr for snap in snapshots
            for tr in (snap.get("fleet") or {}).get("transitions") or []
        ]
        sections.append(render_fleet_block(fleet, top=top))
    summary = (final or {}).get("summary") or {}
    if summary:
        sections.append(
            format_table(
                ["field", "value"],
                [[k, _fmt_attr(v) if isinstance(v, float) else v]
                 for k, v in summary.items()],
                title="final summary",
            )
        )
    return "\n\n".join(sections)


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Full report for a manifest dict: header, metrics, span tree."""
    header_rows = [
        ["run", manifest.get("name", "?")],
        ["created", manifest.get("created_utc", "?")],
        ["seed", manifest.get("seed")],
        ["git sha", manifest.get("git_sha")],
        ["version", manifest.get("version")],
    ]
    for key, value in (manifest.get("config") or {}).items():
        header_rows.append([f"config.{key}", value])
    for key, value in (manifest.get("results") or {}).items():
        header_rows.append([f"result.{key}", value])
    sections = [format_table(["field", "value"], header_rows, title="run manifest")]
    params = manifest.get("params") or {}
    if params:
        sections.append(
            format_table(
                ["parameter", "value"],
                [[k, v] for k, v in params.items()],
                title="calibrated parameters",
            )
        )
    sections.append("metrics\n" + render_metrics(manifest.get("metrics") or {}))
    alerts = (manifest.get("extra") or {}).get("alerts") or []
    if alerts:
        from repro.obs.perf.report import render_alerts

        sections.append(render_alerts(alerts))
    profile = manifest.get("profile") or {}
    if profile:
        from repro.obs.perf.report import render_profile

        sections.append(render_profile(profile))
    forensics = manifest.get("forensics") or {}
    if forensics:
        rows = [
            ["packets seen", forensics.get("seen")],
            ["records retained", forensics.get("total_records")],
            ["records with errors", forensics.get("records_with_errors")],
            ["error bits", forensics.get("total_error_bits")],
        ]
        for label, count in (forensics.get("frames_by_label") or {}).items():
            rows.append([f"frames.{label}", count])
        for label, share in (forensics.get("error_budget") or {}).items():
            rows.append([f"error_budget.{label}", f"{share:.1%}"])
        sections.append(
            format_table(
                ["field", "value"], rows, title="decode forensics"
            )
        )
    spans = manifest.get("spans") or []
    if spans:
        sections.append("trace\n" + render_span_tree(spans))
    return "\n\n".join(sections)


def render_artifact(
    path: str, top: Optional[int] = None, markdown: bool = False
) -> Tuple[Dict[str, Any], str]:
    """Recognise the artifact at ``path`` by its schema and render it.

    Returns ``(data, text)``: the ``--json`` payload and the report.
    Line 1 tags the JSONL kinds (telemetry stream, forensics records);
    any other artifact is one JSON document (fleet health artifact,
    soak document or run manifest).  ``top`` caps offender-board rows;
    ``markdown`` renders a soak document as markdown.  Raises
    :class:`~repro.errors.ConfigurationError` for a foreign file.
    """
    from repro.errors import ConfigurationError
    from repro.obs.export import loads_line, read_json
    from repro.obs.fleet.aggregate import FLEET_SCHEMA
    from repro.obs.forensics import format as forensics_format
    from repro.serve import telemetry

    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = loads_line(fh.readline())
    except ValueError:
        head = None
    schema = head.get("schema") if isinstance(head, dict) else None
    if schema == telemetry.SCHEMA:
        header, snapshots, final = telemetry.read_telemetry(path)
        data = {"header": header, "snapshots": snapshots, "final": final}
        return data, render_telemetry(header, snapshots, final, top=top)
    if schema == forensics_format.SCHEMA:
        from repro.obs.forensics.attribution import summarize
        from repro.obs.forensics.report import render_forensics

        header, records = forensics_format.read_jsonl(path)
        summary = summarize(records)
        kept = {k: v for k, v in summary.items() if k != "margins"}
        return ({"header": header, "summary": kept},
                render_forensics(summary, header=header))
    try:
        doc = read_json(path)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        if doc.get("schema") == FLEET_SCHEMA:
            from repro.obs.fleet.report import render_fleet_artifact

            return doc, render_fleet_artifact(doc, top=top)
        if "soak_schema_version" in doc:
            from repro.obs.soak import report as soak

            render = (soak.render_soak_markdown if markdown
                      else soak.render_soak_text)
            return doc, render(doc)
        if "schema_version" in doc and doc.get("name"):
            from repro.obs.manifest import RunManifest

            data = RunManifest.from_dict(doc).to_dict()
            return data, render_manifest(data)
    raise ConfigurationError(
        f"{path}: not a run manifest, telemetry stream, fleet artifact, "
        "forensics artifact or soak document"
    )
