"""Per-packet channel measurements, held as arrays.

Monitor-mode capture on a commodity Wi-Fi card yields, per received
packet: a timestamp (from the Wi-Fi header — the paper uses it to bin
measurements into tag-bit boundaries, §3.2/§5), the CSI amplitude matrix
when the chipset exposes CSI (Intel 5300: 3 antennas x 30 sub-channels),
and per-antenna RSSI.

A :class:`MeasurementStream` holds those as struct-of-arrays: timestamps
``(n,)``, CSI ``(n, antennas, subchannels)`` with a has-CSI mask for
RSSI-only frames, RSSI ``(n, antennas)`` and a source code per packet.
The card model builds a stream in one step and the decoders read its
arrays.  :class:`ChannelMeasurement` is the per-row view: iteration
yields it, and the MAC capture layer and the trace reader append it, so
recorded and simulated experiments share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChannelMeasurement:
    """One packet's channel observation at the reader.

    Attributes:
        timestamp_s: packet arrival time from the Wi-Fi header.
        csi: CSI amplitude matrix, shape ``(num_antennas,
            num_subchannels)``, or ``None`` when the chipset only
            reports RSSI (e.g. beacon frames on the Intel 5300, §7.5).
        rssi_dbm: per-antenna RSSI in dBm, shape ``(num_antennas,)``.
        source: label of the transmitter ("helper", "ap-beacon", ...).
    """

    timestamp_s: float
    csi: Optional[np.ndarray]
    rssi_dbm: np.ndarray
    source: str = "helper"

    def __post_init__(self) -> None:
        if self.csi is not None and self.csi.ndim != 2:
            raise ConfigurationError(
                f"csi must be 2-D (antennas x subchannels), got shape "
                f"{self.csi.shape}"
            )
        if np.ndim(self.rssi_dbm) != 1:
            raise ConfigurationError("rssi_dbm must be a 1-D per-antenna array")

    @property
    def has_csi(self) -> bool:
        return self.csi is not None

    @property
    def num_antennas(self) -> int:
        return len(self.rssi_dbm)


def _readonly(array: np.ndarray) -> np.ndarray:
    """A read-only view: streams share their arrays with every caller."""
    view = array.view()
    view.flags.writeable = False
    return view


class MeasurementStream:
    """An ordered packet stream held as struct-of-arrays.

    Every accessor returns a read-only view of the stored arrays, so
    reading a stream never restacks it.  Rows added with :meth:`append`
    are staged and folded into the arrays on the next read.
    """

    def __init__(self, measurements: Iterable[ChannelMeasurement] = ()) -> None:
        self._set(
            np.empty(0), np.empty((0, 0, 0)), np.empty(0, dtype=bool),
            np.empty((0, 0)), np.empty(0, dtype=np.intp), [],
        )
        self._staged: List[ChannelMeasurement] = []
        #: Length-keyed memo for callers' derived values (see memo_get).
        self._memo: Dict[str, Tuple[int, Any]] = {}
        for item in measurements:
            self.append(item)

    @classmethod
    def from_arrays(
        cls,
        timestamps: np.ndarray,
        rssi_dbm: np.ndarray,
        csi: Optional[np.ndarray] = None,
        source: str = "helper",
    ) -> "MeasurementStream":
        """A stream over existing arrays, without copying them.

        Args:
            timestamps: non-decreasing packet times, shape ``(n,)``.
            rssi_dbm: per-antenna RSSI, shape ``(n, antennas)``.
            csi: CSI amplitudes, shape ``(n, antennas, subchannels)``,
                or ``None`` when no packet carries CSI.
            source: transmitter label of every packet.
        """
        times = np.asarray(timestamps, dtype=float)
        rssi = np.asarray(rssi_dbm, dtype=float)
        if times.ndim != 1 or rssi.ndim != 2 or len(rssi) != len(times):
            raise ConfigurationError(
                "timestamps must be (n,) and rssi_dbm (n, antennas)"
            )
        n = len(times)
        if csi is None:
            csi = np.empty((n, 0, 0))
            has_csi = np.zeros(n, dtype=bool)
        else:
            csi = np.asarray(csi, dtype=float)
            if csi.ndim != 3 or len(csi) != n:
                raise ConfigurationError(
                    "csi must be (n, antennas, subchannels)"
                )
            has_csi = np.ones(n, dtype=bool)
        if np.any(times[1:] < times[:-1]):
            raise ConfigurationError("measurements must be in timestamp order")
        stream = cls()
        stream._set(
            times, csi, has_csi, rssi, np.zeros(n, dtype=np.intp), [source]
        )
        return stream

    def _set(self, timestamps, csi, has_csi, rssi, codes, labels) -> None:
        self._timestamps = _readonly(timestamps)
        self._csi = _readonly(csi)
        self._has_csi = _readonly(has_csi)
        self._rssi = _readonly(rssi)
        self._codes = _readonly(codes)
        self._labels: List[str] = labels
        self._csi_count = int(has_csi.sum())

    def _fold(self) -> None:
        """Fold the staged rows into the arrays."""
        rows = self._staged
        if not rows:
            return
        has_csi = np.array([m.csi is not None for m in rows])
        shape = self._csi.shape[1:]
        if has_csi.any() and not self._csi_count:
            # The first rows with CSI fix the stream's CSI shape.
            shape = next(m.csi.shape for m in rows if m.csi is not None)
        block = np.full((len(rows),) + shape, np.nan)
        for i, m in enumerate(rows):
            if m.csi is not None:
                if m.csi.shape != shape:
                    raise ConfigurationError(
                        f"inconsistent CSI shapes: {m.csi.shape} vs {shape}"
                    )
                block[i] = m.csi
        csi = self._csi
        if csi.shape[1:] != shape:  # no earlier row carried CSI
            csi = np.full((len(csi),) + shape, np.nan)
        rssi = np.stack([m.rssi_dbm for m in rows]).astype(float)
        old_rssi = self._rssi if len(self._rssi) else rssi[:0]
        index = {label: code for code, label in enumerate(self._labels)}
        codes = [index.setdefault(m.source, len(index)) for m in rows]
        self._set(
            np.concatenate([self._timestamps, [m.timestamp_s for m in rows]]),
            np.concatenate([csi, block]),
            np.concatenate([self._has_csi, has_csi]),
            np.concatenate([old_rssi, rssi]),
            np.concatenate([self._codes, np.array(codes, dtype=np.intp)]),
            list(index),
        )
        self._staged = []

    def replaced(
        self,
        timestamps: Optional[np.ndarray] = None,
        csi: Optional[np.ndarray] = None,
        rssi_dbm: Optional[np.ndarray] = None,
    ) -> "MeasurementStream":
        """A copy with some columns swapped for same-shape arrays.

        The has-CSI mask and the sources carry over; rows without CSI
        stay without it whatever ``csi`` holds there.
        """
        self._fold()
        columns = (self._timestamps, self._csi, self._rssi)
        new = [
            old if value is None else np.asarray(value, dtype=float)
            for old, value in zip(columns, (timestamps, csi, rssi_dbm))
        ]
        if any(a.shape != b.shape for a, b in zip(columns, new)):
            raise ConfigurationError("replaced columns must keep their shape")
        if np.any(new[0][1:] < new[0][:-1]):
            raise ConfigurationError("measurements must be in timestamp order")
        out = MeasurementStream()
        out._set(new[0], new[1], self._has_csi, new[2], self._codes,
                 self._labels)
        return out

    # -- record interface -------------------------------------------------------

    def append(self, measurement: ChannelMeasurement) -> None:
        if self._staged:
            last = self._staged[-1].timestamp_s
        elif len(self._timestamps):
            last = self._timestamps[-1]
        else:
            last = None
        if last is not None and measurement.timestamp_s < last:
            raise ConfigurationError(
                "measurements must be appended in timestamp order"
            )
        self._staged.append(measurement)

    def extend(self, items: Iterable[ChannelMeasurement]) -> None:
        for item in items:
            self.append(item)

    def memo_get(self, key: str) -> Any:
        """A value :meth:`memo_put` stored at the current length, or None.

        Streams only grow, so a length-keyed entry is exact: a stale
        one can never be served after new packets arrive.  The decoder
        memoises its side-effect-free mode resolution here, and the
        stream its per-column finite counts.
        """
        entry = self._memo.get(key)
        if entry is not None and entry[0] == len(self):
            return entry[1]
        return None

    def memo_put(self, key: str, value: Any) -> Any:
        """Store a memo entry under the current stream length."""
        self._memo[key] = (len(self), value)
        return value

    def __len__(self) -> int:
        return len(self._timestamps) + len(self._staged)

    def _row(self, i: int) -> ChannelMeasurement:
        return ChannelMeasurement(
            timestamp_s=float(self._timestamps[i]),
            csi=self._csi[i] if self._has_csi[i] else None,
            rssi_dbm=self._rssi[i],
            source=self._labels[self._codes[i]],
        )

    def __iter__(self):
        self._fold()
        return (self._row(i) for i in range(len(self._timestamps)))

    def __getitem__(self, index):
        self._fold()
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        return self._row(index)

    # -- array views --------------------------------------------------------------

    @property
    def timestamps(self) -> np.ndarray:
        """Packet timestamps (s), shape ``(n_packets,)``."""
        self._fold()
        return self._timestamps

    @property
    def has_csi(self) -> np.ndarray:
        """Which packets carry CSI, shape ``(n_packets,)``."""
        self._fold()
        return self._has_csi

    @property
    def csi(self) -> np.ndarray:
        """CSI block, shape ``(n_packets, antennas, subchannels)``.

        Rows without CSI (see :attr:`has_csi`) hold NaN.
        """
        self._fold()
        return self._csi

    @property
    def sources(self) -> np.ndarray:
        """Transmitter label per packet, shape ``(n_packets,)``."""
        self._fold()
        return np.array(self._labels)[self._codes]

    def csi_matrix(self) -> np.ndarray:
        """Stacked CSI amplitudes, shape ``(n_packets, antennas, subchannels)``.

        Raises:
            ConfigurationError: if any measurement lacks CSI.
        """
        self._fold()
        if self._csi_count < len(self._timestamps):
            raise ConfigurationError(
                "csi_matrix() requires CSI on every measurement; "
                "use rssi_matrix() for RSSI-only streams"
            )
        return self._csi

    def rssi_matrix(self) -> np.ndarray:
        """Stacked RSSI values, shape ``(n_packets, antennas)``."""
        self._fold()
        return self._rssi

    def flattened_csi(self) -> np.ndarray:
        """CSI flattened to (n_packets, antennas * subchannels).

        The paper treats "multiple antennas as additional sub-channels"
        (§3.2); this view implements that.
        """
        n, antennas, subchannels = self.csi_matrix().shape
        return _readonly(self._csi.reshape(n, antennas * subchannels))

    def csi_coverage(self) -> float:
        """Fraction of records carrying a CSI matrix (1.0 when empty).

        The degradation ladder uses this to decide whether CSI-mode
        decoding is even possible, or the stream is effectively
        RSSI-only (e.g. a beacon-dominated capture, §7.5).
        """
        self._fold()
        n = len(self._timestamps)
        return self._csi_count / n if n else 1.0

    def _mode_matrix(self, mode: str) -> np.ndarray:
        if mode == "csi":
            return self.flattened_csi()
        if mode == "rssi":
            return self.rssi_matrix()
        raise ConfigurationError(f"mode must be 'csi' or 'rssi', got {mode!r}")

    def _finite_counts(self, mode: str) -> np.ndarray:
        """Finite cells per column of the ``mode`` matrix.

        One ``np.isfinite`` pass per stream and mode: the counts are
        memoised under the stream length, and streams only grow.
        """
        matrix = self._mode_matrix(mode)
        key = f"finite:{mode}"
        counts = self.memo_get(key)
        if counts is None:
            finite = np.isfinite(matrix)
            counts = self.memo_put(key, (
                np.full(matrix.shape[1], matrix.shape[0]) if finite.all()
                else finite.sum(axis=0)
            ))
        return counts

    def finite_column_fraction(self, mode: str) -> np.ndarray:
        """Per-column fraction of finite cells of the stacked matrix.

        ``mode`` selects :meth:`flattened_csi` (``"csi"``) or
        :meth:`rssi_matrix` (``"rssi"``): ``np.isfinite(matrix).mean(axis=0)``,
        the decoder's usable-channel probe.
        """
        return self._finite_counts(mode) / len(self)

    def nonfinite_cells(self, mode: str) -> int:
        """NaN/inf cell count of the stacked ``mode`` matrix.

        Zero means the sanitize gate can pass the matrix through
        untouched.
        """
        counts = self._finite_counts(mode)
        return len(self) * len(counts) - int(counts.sum())

    def sliced(self, start_s: float, end_s: float) -> "MeasurementStream":
        """Sub-stream with ``start_s <= t < end_s``."""
        if end_s < start_s:
            raise ConfigurationError("end_s must be >= start_s")
        times = self.timestamps
        rows = (start_s <= times) & (times < end_s)
        out = MeasurementStream()
        out._set(
            times[rows], self._csi[rows], self._has_csi[rows],
            self._rssi[rows], self._codes[rows], self._labels,
        )
        return out


def merge_streams(streams: Sequence[MeasurementStream]) -> MeasurementStream:
    """Merge several streams into one, ordered by timestamp.

    The sort is stable: packets with equal timestamps keep the order of
    ``streams``, then their order within a stream.
    """
    parts = [s for s in streams if len(s)]
    out = MeasurementStream()
    if not parts:
        return out
    for s in parts:
        s._fold()
    shapes = {s.csi.shape[1:] for s in parts if s.has_csi.any()}
    if len(shapes) > 1:
        raise ConfigurationError(f"inconsistent CSI shapes: {sorted(shapes)}")
    shape = shapes.pop() if shapes else (0, 0)
    index: Dict[str, int] = {}
    codes = []
    for s in parts:
        remap = [index.setdefault(label, len(index)) for label in s._labels]
        codes.append(np.array(remap, dtype=np.intp)[s._codes])
    times = np.concatenate([s.timestamps for s in parts])
    order = np.argsort(times, kind="stable")
    out._set(
        times[order],
        np.concatenate([
            s.csi if s.csi.shape[1:] == shape
            else np.full((len(s),) + shape, np.nan)
            for s in parts
        ])[order],
        np.concatenate([s.has_csi for s in parts])[order],
        np.concatenate([s.rssi_matrix() for s in parts])[order],
        np.concatenate(codes)[order],
        list(index),
    )
    return out
