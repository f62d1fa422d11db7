"""Periodic telemetry snapshots: the serve path's live health stream.

A :class:`TelemetrySnapshotter` serializes windowed gateway health to
an append-only JSONL stream on a *virtual-time* cadence: line 1 is a
header (schema tag, run/config provenance), every following line is
one event object.  Three event kinds exist:

* ``snapshot`` — one per cadence boundary: queue/egress depth,
  cumulative dispositions, shed-by-reason, per-tag breaker states,
  windowed latency quantiles, error-budget burn status, the burn-rate
  transitions that fired at this tick, and the current latency
  exemplars (bucket-worst correlation IDs);
* ``end`` — written by a clean close, carrying the final summary;
* ``interrupted`` — written by the crash-flush hook when the process
  dies with the stream still open (SIGTERM / atexit), so triage can
  tell a truncated capture from a completed one.

Every snapshot field is virtual-time data, so the stream is a pure
function of ``(config, seed)`` — byte-identical across worker counts —
and the writer flushes after every line, so even a SIGKILL loses at
most the in-flight line.  The crash hook rides the shared
:func:`repro.obs.forensics.crash_flush.register_aux_flush` registry
rather than installing handlers of its own.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.export import dumps_line, read_tagged_jsonl
from repro.obs.forensics.crash_flush import (
    register_aux_flush,
    unregister_aux_flush,
)

#: Schema tag stamped into (and required from) the header line.
SCHEMA = "repro.telemetry/1"

#: Cadence multiplier for the windowed latency stats in each snapshot:
#: quantiles are computed over the last ``TELEMETRY_WINDOW_CADENCES``
#: cadence intervals rather than the whole run.
TELEMETRY_WINDOW_CADENCES = 5.0


class TelemetrySnapshotter:
    """Append-only JSONL writer for serve telemetry snapshots.

    Args:
        path: output stream path (parents created).
        run_id: gateway run ID for the header.
        cadence_s: virtual-time snapshot interval (header metadata —
            the gateway owns the tick schedule).
        meta: extra header fields (config digest, seed, ...).
    """

    def __init__(
        self,
        path: str,
        run_id: str,
        cadence_s: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if cadence_s <= 0:
            raise ConfigurationError("telemetry cadence must be positive")
        self.path = str(path)
        self.run_id = run_id
        self.cadence_s = float(cadence_s)
        self.snapshots = 0
        self._closed = False
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        header: Dict[str, Any] = {
            "schema": SCHEMA,
            "run_id": run_id,
            "cadence_s": self.cadence_s,
        }
        if meta:
            header.update(meta)
        self._write(header)
        self._aux_name = f"telemetry:{self.path}"
        register_aux_flush(self._aux_name, self._crash_flush)

    def _write(self, obj: Dict[str, Any]) -> None:
        self._fh.write(dumps_line(obj))
        self._fh.write("\n")
        self._fh.flush()

    def snapshot(self, record: Dict[str, Any]) -> None:
        """Append one snapshot event (adds ``event: snapshot``)."""
        if self._closed:
            return
        self._write({"event": "snapshot", **record})
        self.snapshots += 1

    def _crash_flush(self, interrupted: bool) -> None:
        """Aux crash-flush hook: stamp the stream interrupted."""
        if self._closed:
            return
        self._closed = True
        try:
            self._write({
                "event": "interrupted",
                "snapshots": self.snapshots,
            })
            self._fh.close()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass

    def close(self, summary: Optional[Dict[str, Any]] = None) -> str:
        """Clean close: write the ``end`` event, stand down the crash
        hook, and return the stream path."""
        # Unregister even after a crash flush closed the stream, so the
        # shared atexit/SIGTERM handlers do not outlive it.
        unregister_aux_flush(self._aux_name)
        if self._closed:
            return self.path
        self._closed = True
        self._write({
            "event": "end",
            "snapshots": self.snapshots,
            "summary": dict(summary or {}),
        })
        self._fh.close()
        return self.path


def read_telemetry(
    path: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Read a telemetry stream; returns ``(header, snapshots, final)``.

    ``final`` is the ``end`` or ``interrupted`` event, or None when the
    stream was cut before either was written (hard kill).  Raises
    :class:`~repro.errors.ConfigurationError` on a missing/mismatched
    schema tag so foreign JSONL files fail loudly.
    """
    header, events = read_tagged_jsonl(path, SCHEMA)
    snapshots: List[Dict[str, Any]] = []
    final: Optional[Dict[str, Any]] = None
    for event in events:
        kind = event.get("event")
        if kind == "snapshot":
            snapshots.append(event)
        elif kind in ("end", "interrupted"):
            final = event
    return header, snapshots, final
