"""Serialization helpers: JSON-safe coercion, file writing, wire formats.

Span attributes and metric values routinely carry numpy scalars and
arrays; :func:`jsonable` converts them (and other awkward types) into
plain python so ``json.dumps`` always succeeds.

Non-finite floats are *signal*, not noise — a NaN separation gauge
means the quality assessor saw poisoned input, an inf means a genuine
divide-by-zero — so they are encoded as the strings ``"NaN"``,
``"Infinity"``, ``"-Infinity"`` (the IEEE names JavaScript/Python both
recognise) rather than flattened to null.  :func:`read_json` decodes
them back to floats, making the round trip lossless.

This module is the *single* home of that codec: the forensics JSONL
format, the serve telemetry-snapshot stream, and manifest export all
go through :func:`dumps_line` / :func:`loads_line` rather than growing
private copies, and both schema-tagged JSONL artifacts are read back
by :func:`read_tagged_jsonl`.  It also owns the InfluxDB line-protocol
escaping rules (:func:`escape_measurement` / :func:`escape_tag` /
:func:`parse_line_protocol`) shared by the metrics registry and the
telemetry exporters, plus Prometheus text exposition for the latest
serve-telemetry snapshot.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: String spellings of the non-finite floats (write side).
_NONFINITE_STRINGS = {"NaN", "Infinity", "-Infinity"}


def _encode_nonfinite(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into JSON-serializable python.

    numpy scalars become python scalars, arrays become lists, sets and
    tuples become lists, dataclass-free objects fall back to ``repr``.
    Non-finite floats become the strings ``"NaN"`` / ``"Infinity"`` /
    ``"-Infinity"`` (JSON has no literal for them); :func:`read_json`
    restores them.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else _encode_nonfinite(value)
    if isinstance(value, np.generic):
        return jsonable(value.item())
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return repr(value)


def _decode_nonfinite(value: Any) -> Any:
    """Inverse of the non-finite string encoding, applied recursively."""
    if isinstance(value, str):
        if value in _NONFINITE_STRINGS:
            return float(value)
        return value
    if isinstance(value, dict):
        return {k: _decode_nonfinite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_nonfinite(v) for v in value]
    return value


def dumps_line(obj: Any) -> str:
    """One compact JSON line (no newline) after :func:`jsonable` coercion.

    The shared encoder for every JSONL stream in the repo — forensics
    records, telemetry snapshots, soak history.  Key order is insertion
    order so two processes writing the same logical record produce
    byte-identical lines.
    """
    return json.dumps(jsonable(obj), sort_keys=False, separators=(",", ":"))


def loads_line(line: str) -> Any:
    """Inverse of :func:`dumps_line`, restoring non-finite floats."""
    return _decode_nonfinite(json.loads(line))


def dumps(obj: Any, indent: int = 2) -> str:
    """JSON text of ``obj`` after :func:`jsonable` coercion."""
    return json.dumps(jsonable(obj), indent=indent, sort_keys=False)


def write_json(path: str, obj: Any) -> str:
    """Write ``obj`` as JSON to ``path`` (parents created); returns path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
    return path


def read_json(path: str) -> Any:
    """Read JSON written by :func:`write_json`, restoring the
    ``"NaN"``/``"Infinity"``/``"-Infinity"`` strings to floats."""
    with open(path, "r", encoding="utf-8") as fh:
        return _decode_nonfinite(json.load(fh))


def read_tagged_jsonl(
    path: str, schema: str
) -> Tuple[Dict[str, Any], List[Any]]:
    """Read a schema-tagged JSONL artifact; returns ``(header, objects)``.

    Line 1 is the header and must carry ``schema``; every following
    non-blank line is one object.  Raises
    :class:`~repro.errors.ConfigurationError` on an empty file or a
    missing/mismatched tag so stale or foreign files fail loudly.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ConfigurationError(f"{path}: empty {schema} artifact")
        header = loads_line(first)
        found = header.get("schema") if isinstance(header, dict) else None
        if found != schema:
            raise ConfigurationError(
                f"{path}: not a {schema} artifact (header schema {found!r})"
            )
        return header, [loads_line(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# InfluxDB line protocol
# ---------------------------------------------------------------------------


def escape_measurement(name: str) -> str:
    """Escape a line-protocol measurement name (commas and spaces)."""
    return name.replace("\\", "\\\\").replace(",", "\\,").replace(" ", "\\ ")


def escape_tag(value: str) -> str:
    """Escape a line-protocol tag key/value (commas, spaces, equals)."""
    return escape_measurement(value).replace("=", "\\=")


def _split_unescaped(text: str, sep: str, maxsplit: int = -1) -> List[str]:
    """Split ``text`` on ``sep`` characters not preceded by a backslash."""
    parts: List[str] = []
    buf: List[str] = []
    escaped = False
    for ch in text:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            buf.append(ch)
            escaped = True
        elif ch == sep and (maxsplit < 0 or len(parts) < maxsplit):
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _unescape(text: str) -> str:
    """Collapse line-protocol backslash escapes back to literals."""
    out: List[str] = []
    escaped = False
    for ch in text:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        else:
            out.append(ch)
    if escaped:
        out.append("\\")
    return "".join(out)


def _parse_field_value(token: str) -> Any:
    if token.endswith("i"):
        try:
            return int(token[:-1])
        except ValueError:
            pass
    if token in ("t", "T", "true", "True"):
        return True
    if token in ("f", "F", "false", "False"):
        return False
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        return _unescape(token[1:-1])
    try:
        return float(token)
    except ValueError:
        return token


def parse_line_protocol(text: str) -> List[Dict[str, Any]]:
    """Parse InfluxDB line-protocol text back into structured points.

    Returns one ``{"measurement", "tags", "fields", "timestamp_ns"}``
    dict per non-blank line, honouring the backslash escapes written by
    :func:`escape_measurement` / :func:`escape_tag` — the round-trip
    guard for shed-reason labels containing spaces, commas, or equals
    signs.  ``timestamp_ns`` is None when a line omits the timestamp.
    """
    points: List[Dict[str, Any]] = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        sections = _split_unescaped(line, " ")
        sections = [s for s in sections if s != ""]
        if len(sections) < 2:
            raise ValueError(f"cannot parse line-protocol line {line!r}")
        head = _split_unescaped(sections[0], ",")
        measurement = _unescape(head[0])
        tags: Dict[str, str] = {}
        for tag_pair in head[1:]:
            kv = _split_unescaped(tag_pair, "=", maxsplit=1)
            if len(kv) != 2:
                raise ValueError(f"bad tag {tag_pair!r} in {line!r}")
            tags[_unescape(kv[0])] = _unescape(kv[1])
        fields: Dict[str, Any] = {}
        for field_pair in _split_unescaped(sections[1], ","):
            kv = _split_unescaped(field_pair, "=", maxsplit=1)
            if len(kv) != 2:
                raise ValueError(f"bad field {field_pair!r} in {line!r}")
            fields[_unescape(kv[0])] = _parse_field_value(kv[1])
        timestamp = int(sections[2]) if len(sections) > 2 else None
        points.append({
            "measurement": measurement,
            "tags": tags,
            "fields": fields,
            "timestamp_ns": timestamp,
        })
    return points


# ---------------------------------------------------------------------------
# Telemetry-snapshot exporters (line protocol + Prometheus text)
# ---------------------------------------------------------------------------

#: Scalar snapshot fields exported as the ``<prefix>`` measurement /
#: ``<prefix>_<field>`` Prometheus metric, in stable output order.
_TELEMETRY_SCALARS = (
    "arrivals", "delivered", "decode_failed", "shed",
    "deadline_abandoned", "worker_lost", "queue_depth",
    "queue_depth_max", "egress_depth", "breaker_open",
)

#: Latency stats exported per snapshot when present.
_TELEMETRY_LATENCY = ("mean", "p50", "p95", "p99")

#: Scalar fields of the snapshot ``fleet`` block exported as the
#: ``<prefix>.fleet`` measurement / ``<prefix>_fleet_<field>`` gauges.
#: Bounded by construction: the fleet block carries registry counters,
#: not per-tag series.
_TELEMETRY_FLEET_SCALARS = (
    "outcomes", "tracked", "evictions", "tags_seen", "other_requests",
)

#: Fleet latency-sketch quantiles exported when the sketch is non-empty.
_TELEMETRY_FLEET_LATENCY = ("mean", "p50", "p95", "p99")


def _fmt_field(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return f"{value}i"
    return repr(float(value))


def _budget_status(record: Dict[str, Any]) -> Dict[str, Any]:
    # Snapshots carry the burn engine's status as a list of per-
    # objective dicts; older/hand-built records may use a bare dict.
    budget = record.get("budget") or {}
    if isinstance(budget, list):
        budget = budget[0] if budget else {}
    return budget


def telemetry_to_line_protocol(
    records: Sequence[Dict[str, Any]], prefix: str = "serve"
) -> str:
    """Render telemetry-snapshot records as InfluxDB line protocol.

    Per snapshot: one ``<prefix>`` point with the scalar gauges, one
    ``<prefix>.shed,reason=<label>`` point per shed reason (labels tag-
    escaped — this is where ``queue_full`` and friends survive spaces/
    commas/equals), a ``<prefix>.latency`` point when latency stats are
    present, and a ``<prefix>.budget`` point when the burn engine
    reported.  Virtual snapshot time maps to the timestamp slot as
    integer nanoseconds.
    """
    lines: List[str] = []
    for rec in records:
        ts = int(round(float(rec.get("t_s", 0.0)) * 1e9))
        fields = []
        for key in _TELEMETRY_SCALARS:
            if key in rec and rec[key] is not None:
                fields.append(f"{escape_tag(key)}={_fmt_field(rec[key])}")
        if fields:
            lines.append(f"{escape_measurement(prefix)} "
                         f"{','.join(fields)} {ts}")
        for reason, count in sorted(
            (rec.get("shed_by_reason") or {}).items()
        ):
            lines.append(
                f"{escape_measurement(prefix + '.shed')},"
                f"reason={escape_tag(str(reason))} "
                f"total={_fmt_field(int(count))} {ts}"
            )
        latency = rec.get("latency") or {}
        lat_fields = [
            f"{key}={_fmt_field(latency[key])}"
            for key in _TELEMETRY_LATENCY
            if latency.get(key) is not None
        ]
        if lat_fields:
            lines.append(f"{escape_measurement(prefix + '.latency')} "
                         f"{','.join(lat_fields)} {ts}")
        budget = _budget_status(rec)
        if budget.get("remaining") is not None:
            lines.append(
                f"{escape_measurement(prefix + '.budget')} "
                f"remaining={_fmt_field(float(budget['remaining']))} {ts}"
            )
        lines.extend(_fleet_lines(rec.get("fleet") or {}, prefix, ts))
    return "\n".join(lines)


def _fleet_lines(
    fleet: Dict[str, Any], prefix: str, ts: int
) -> List[str]:
    """Line-protocol points for one snapshot's ``fleet`` block.

    Label cardinality is bounded by the fleet config, not the tag
    population: offender rows are capped at top-K per kind, health rows
    at the fixed bin count, and per-tag anomaly state is exported as a
    single gauge (the flagged-tag count), never one series per tag.
    """
    if not fleet.get("outcomes"):
        return []
    lines: List[str] = []
    fields = [
        f"{escape_tag(key)}={_fmt_field(int(fleet[key]))}"
        for key in _TELEMETRY_FLEET_SCALARS
        if fleet.get(key) is not None
    ]
    anomalous = fleet.get("anomalous")
    if anomalous is not None:
        fields.append(f"anomalous={_fmt_field(len(anomalous))}")
    if fields:
        lines.append(f"{escape_measurement(prefix + '.fleet')} "
                     f"{','.join(fields)} {ts}")
    for kind, entries in sorted((fleet.get("offenders") or {}).items()):
        for entry in entries:
            lines.append(
                f"{escape_measurement(prefix + '.fleet.offender')},"
                f"kind={escape_tag(str(kind))},"
                f"tag={escape_tag(str(entry.get('key')))} "
                f"count={_fmt_field(float(entry.get('count', 0.0)))},"
                f"error={_fmt_field(float(entry.get('error', 0.0)))} {ts}"
            )
    for idx, count in enumerate(fleet.get("histogram") or []):
        if count:
            lines.append(
                f"{escape_measurement(prefix + '.fleet.health')},"
                f"bin={idx} tags={_fmt_field(int(count))} {ts}"
            )
    latency = fleet.get("latency") or {}
    lat_fields = [
        f"{key}={_fmt_field(float(latency[key]))}"
        for key in _TELEMETRY_FLEET_LATENCY
        if latency.get(key) is not None
    ]
    if lat_fields:
        lines.append(
            f"{escape_measurement(prefix + '.fleet.latency')} "
            f"{','.join(lat_fields)} {ts}"
        )
    return lines


def _prom_name(text: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in text
    )


def _prom_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _prom_value(value: Any) -> str:
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    return repr(v)


def telemetry_to_prometheus(
    record: Dict[str, Any], prefix: str = "serve"
) -> str:
    """Prometheus text exposition of one (typically latest) snapshot.

    Scalars become ``<prefix>_<field>`` gauges, shed reasons become a
    ``<prefix>_shed_total{reason="..."}`` family (label values escaped
    per the exposition format), latency quantiles a
    ``<prefix>_latency_seconds{quantile="..."}`` family, and budget
    remaining a single gauge.
    """
    base = _prom_name(prefix)
    out: List[str] = []
    for key in _TELEMETRY_SCALARS:
        if key in record and record[key] is not None:
            name = f"{base}_{_prom_name(key)}"
            out.append(f"# TYPE {name} gauge")
            out.append(f"{name} {_prom_value(record[key])}")
    shed = record.get("shed_by_reason") or {}
    if shed:
        name = f"{base}_shed_total"
        out.append(f"# TYPE {name} counter")
        for reason, count in sorted(shed.items()):
            out.append(
                f'{name}{{reason="{_prom_label(str(reason))}"}} '
                f"{_prom_value(count)}"
            )
    latency = record.get("latency") or {}
    quantiles = [
        (q, latency[f"p{q}"]) for q in (50, 95, 99)
        if latency.get(f"p{q}") is not None
    ]
    if quantiles:
        name = f"{base}_latency_seconds"
        out.append(f"# TYPE {name} gauge")
        for q, value in quantiles:
            out.append(
                f'{name}{{quantile="{q / 100:g}"}} {_prom_value(value)}'
            )
    budget = _budget_status(record)
    if budget.get("remaining") is not None:
        name = f"{base}_budget_remaining"
        out.append(f"# TYPE {name} gauge")
        out.append(f"{name} {_prom_value(budget['remaining'])}")
    out.extend(_fleet_prometheus(record.get("fleet") or {}, base))
    return "\n".join(out) + ("\n" if out else "")


def _fleet_prometheus(fleet: Dict[str, Any], base: str) -> List[str]:
    """Prometheus families for one snapshot's ``fleet`` block.

    Same bounded-label contract as the line-protocol export: offender
    ``tag`` labels are capped at top-K per kind by the sketch itself,
    health buckets at the fixed bin count.
    """
    if not fleet.get("outcomes"):
        return []
    out: List[str] = []
    for key in _TELEMETRY_FLEET_SCALARS:
        if fleet.get(key) is not None:
            name = f"{base}_fleet_{_prom_name(key)}"
            out.append(f"# TYPE {name} gauge")
            out.append(f"{name} {_prom_value(int(fleet[key]))}")
    anomalous = fleet.get("anomalous")
    if anomalous is not None:
        name = f"{base}_fleet_anomalous_tags"
        out.append(f"# TYPE {name} gauge")
        out.append(f"{name} {_prom_value(len(anomalous))}")
    offenders = fleet.get("offenders") or {}
    if any(offenders.values()):
        name = f"{base}_fleet_offender_total"
        out.append(f"# TYPE {name} counter")
        for kind, entries in sorted(offenders.items()):
            for entry in entries:
                out.append(
                    f'{name}{{kind="{_prom_label(str(kind))}",'
                    f'tag="{_prom_label(str(entry.get("key")))}"}} '
                    f"{_prom_value(entry.get('count', 0.0))}"
                )
    histogram = fleet.get("histogram") or []
    if any(histogram):
        name = f"{base}_fleet_health_bucket"
        out.append(f"# TYPE {name} gauge")
        for idx, count in enumerate(histogram):
            out.append(f'{name}{{bin="{idx}"}} {_prom_value(int(count))}')
    latency = fleet.get("latency") or {}
    quantiles = [
        (q, latency[f"p{q}"]) for q in (50, 95, 99)
        if latency.get(f"p{q}") is not None
    ]
    if quantiles:
        name = f"{base}_fleet_latency_seconds"
        out.append(f"# TYPE {name} gauge")
        for q, value in quantiles:
            out.append(
                f'{name}{{quantile="{q / 100:g}"}} {_prom_value(value)}'
            )
    return out
