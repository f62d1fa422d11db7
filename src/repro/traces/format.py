"""Measurement trace I/O.

Real deployments log CSI/RSSI traces (the Intel CSI Tool writes its own
binary format); we persist :class:`~repro.measurement.
MeasurementStream` objects as compressed NPZ so experiments can be
replayed and shared. The reader side of a recorded experiment and a
simulated one share the same decoding code path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import TraceFormatError
from repro.measurement import ChannelMeasurement, MeasurementStream

#: Format version written into every trace.
FORMAT_VERSION = 1


def save_stream(stream: MeasurementStream, path: Union[str, Path]) -> None:
    """Write a measurement stream to an ``.npz`` trace file.

    Streams may mix CSI and RSSI-only records; a per-record mask keeps
    track of which rows carry CSI.
    """
    path = Path(path)
    n = len(stream)
    has_csi = stream.has_csi
    csi_shape = None
    csi_data = np.empty((0,))
    if has_csi.any():
        csi_shape = stream.csi.shape[1:]
        csi_data = np.where(has_csi[:, None, None], stream.csi, 0.0)
    meta = {
        "version": FORMAT_VERSION,
        "count": n,
        "csi_shape": list(csi_shape) if csi_shape else None,
    }
    np.savez_compressed(
        path,
        meta=json.dumps(meta),
        timestamps=stream.timestamps,
        rssi=stream.rssi_matrix(),
        has_csi=has_csi,
        sources=stream.sources.astype("U32"),
        csi=csi_data,
    )


def load_stream(path: Union[str, Path]) -> MeasurementStream:
    """Read a trace written by :func:`save_stream`.

    Raises:
        TraceFormatError: missing/invalid fields or unknown version.
    """
    path = Path(path)
    if not path.exists():
        raise TraceFormatError(f"trace file not found: {path}")
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:  # numpy raises various things here
        raise TraceFormatError(f"cannot read {path}: {exc}") from exc
    try:
        meta = json.loads(str(data["meta"]))
    except (KeyError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"bad trace metadata in {path}") from exc
    if meta.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {meta.get('version')!r}"
        )
    n = int(meta["count"])
    stream = MeasurementStream()
    if n == 0:
        return stream
    timestamps = data["timestamps"]
    rssi = data["rssi"]
    has_csi = data["has_csi"]
    sources = data["sources"]
    csi = data["csi"] if meta["csi_shape"] else None
    if len(timestamps) != n or len(rssi) != n:
        raise TraceFormatError("trace arrays disagree with metadata count")
    for i in range(n):
        stream.append(
            ChannelMeasurement(
                timestamp_s=float(timestamps[i]),
                csi=csi[i] if (csi is not None and has_csi[i]) else None,
                rssi_dbm=rssi[i],
                source=str(sources[i]),
            )
        )
    return stream
