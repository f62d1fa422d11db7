"""JSONL artifact format for flight-recorder records.

A forensics artifact is a UTF-8 text file: line 1 is a header object
(schema tag + recorder counters + whatever run metadata the writer
passes), every following line is one record exactly as the
:class:`~repro.obs.forensics.recorder.FlightRecorder` retained it.
JSONL keeps artifacts streamable and greppable — ``wc -l`` counts
records, ``head -1`` shows provenance — and the per-line encoding
reuses :mod:`repro.obs.export`'s lossless NaN/Infinity string round
trip.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import dumps_line, jsonable, read_tagged_jsonl

#: Schema tag stamped into (and required from) the header line.
SCHEMA = "repro.forensics/1"


def write_jsonl(
    path: str,
    records: Sequence[Dict[str, Any]],
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Write records as a forensics JSONL artifact; returns ``path``.

    ``meta`` (recorder counters, run name, seed, policy, ...) is merged
    into the header line after the schema tag.
    """
    header: Dict[str, Any] = {"schema": SCHEMA, "records": len(records)}
    if meta:
        header.update(jsonable(meta))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_line(header))
        fh.write("\n")
        for record in records:
            fh.write(dumps_line(record))
            fh.write("\n")
    return path


def write_recorder(path: str, recorder: Any, meta: Dict[str, Any]) -> str:
    """Write a :class:`~repro.obs.forensics.recorder.FlightRecorder`'s
    records as a forensics artifact; returns ``path``.

    The header carries ``meta`` (run name, seed, ...) followed by the
    recorder's policy, capacity and counters.
    """
    payload = recorder.to_payload()
    return write_jsonl(path, payload["records"], meta={
        **meta,
        "policy": recorder.policy,
        "capacity": recorder.capacity,
        "recorder": {
            "seen": payload["seen"],
            "errors_seen": payload["errors_seen"],
            "dropped": payload["dropped"],
        },
    })


def read_jsonl(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a forensics artifact; returns ``(header, records)``.

    Raises :class:`~repro.errors.ConfigurationError` on a missing or
    mismatched schema tag so stale/foreign files fail loudly rather
    than attributing garbage.
    """
    return read_tagged_jsonl(path, SCHEMA)
