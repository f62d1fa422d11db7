"""Serialization helpers: JSON-safe coercion, file writing, JSONL.

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
by :func:`read_tagged_jsonl`.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Tuple

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
        return value if math.isfinite(value) else _encode_nonfinite(value)
    # ``.item()`` of an extended-precision scalar is itself again.
    if isinstance(value, np.longdouble):
        return jsonable(float(value))
    if isinstance(value, np.clongdouble):
        return jsonable(complex(value))
    if isinstance(value, np.generic):
        return jsonable(value.item())
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return jsonable(value.item())
        kind = value.dtype.kind
        if kind == "f" and value.dtype.itemsize > 8:
            # As ``float()`` of the scalar: beyond float64 range is inf.
            with np.errstate(over="ignore"):
                value = value.astype(float)
        # Integer, bool and all-finite float arrays list straight to
        # the python scalars the per-element pass would return.
        if kind in "biu" or (kind == "f" and np.isfinite(value).all()):
            return value.tolist()
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

