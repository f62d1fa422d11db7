"""Measurement records and streams."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.measurement import ChannelMeasurement, MeasurementStream, merge_streams


def m(t, with_csi=True, source="helper"):
    return ChannelMeasurement(
        timestamp_s=t,
        csi=np.ones((3, 30)) * t if with_csi else None,
        rssi_dbm=np.array([-40.0, -41.0, -55.0]),
        source=source,
    )


class TestChannelMeasurement:
    def test_properties(self):
        meas = m(1.0)
        assert meas.has_csi
        assert meas.num_antennas == 3

    def test_rssi_only(self):
        meas = m(1.0, with_csi=False)
        assert not meas.has_csi

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelMeasurement(
                timestamp_s=0.0, csi=np.ones(30), rssi_dbm=np.array([-40.0])
            )
        with pytest.raises(ConfigurationError):
            ChannelMeasurement(
                timestamp_s=0.0, csi=None, rssi_dbm=np.ones((2, 2))
            )


class TestMeasurementStream:
    def test_append_enforces_order(self):
        stream = MeasurementStream()
        stream.append(m(1.0))
        with pytest.raises(ConfigurationError):
            stream.append(m(0.5))

    def test_matrices(self):
        stream = MeasurementStream()
        stream.extend([m(0.0), m(1.0), m(2.0)])
        assert stream.csi_matrix().shape == (3, 3, 30)
        assert stream.rssi_matrix().shape == (3, 3)
        assert stream.flattened_csi().shape == (3, 90)
        assert stream.timestamps.tolist() == [0.0, 1.0, 2.0]

    def test_csi_matrix_rejects_mixed(self):
        stream = MeasurementStream()
        stream.extend([m(0.0), m(1.0, with_csi=False)])
        with pytest.raises(ConfigurationError):
            stream.csi_matrix()

    def test_sliced(self):
        stream = MeasurementStream()
        stream.extend([m(float(i)) for i in range(10)])
        window = stream.sliced(2.0, 5.0)
        assert window.timestamps.tolist() == [2.0, 3.0, 4.0]

    def test_sliced_validates(self):
        stream = MeasurementStream()
        with pytest.raises(ConfigurationError):
            stream.sliced(5.0, 1.0)

    def test_empty_matrices(self):
        stream = MeasurementStream()
        assert stream.csi_matrix().size == 0
        assert stream.rssi_matrix().size == 0

    def test_iteration_and_indexing(self):
        stream = MeasurementStream()
        stream.extend([m(0.0), m(1.0)])
        assert len(stream) == 2
        assert stream[1].timestamp_s == 1.0
        assert [x.timestamp_s for x in stream] == [0.0, 1.0]


class TestMerge:
    def test_merge_sorts_by_time(self):
        a = MeasurementStream()
        a.extend([m(0.0), m(2.0)])
        b = MeasurementStream()
        b.extend([m(1.0), m(3.0)])
        merged = merge_streams([a, b])
        assert merged.timestamps.tolist() == [0.0, 1.0, 2.0, 3.0]


class TestMemo:
    def test_stacked_views_cached_until_growth(self):
        stream = MeasurementStream()
        stream.extend([m(0.0), m(1.0)])
        first = stream.timestamps
        assert stream.timestamps is first, "same length must hit the memo"
        assert not first.flags.writeable, "shared views must be read-only"
        stream.append(m(2.0))
        grown = stream.timestamps
        assert grown is not first, "growth must invalidate the memo"
        assert grown.tolist() == [0.0, 1.0, 2.0]

    def test_memo_get_misses_until_put(self):
        stream = MeasurementStream()
        stream.extend([m(0.0), m(1.0)])
        assert stream.memo_get("probe") is None
        value = {"mode": "csi"}
        assert stream.memo_put("probe", value) is value
        assert stream.memo_get("probe") is value

    def test_memo_get_stale_after_growth(self):
        stream = MeasurementStream()
        stream.extend([m(0.0), m(1.0)])
        stream.memo_put("probe", "old")
        stream.append(m(2.0))
        assert stream.memo_get("probe") is None, (
            "an entry stored at the old length must never be served"
        )


def _rows(stream):
    return [
        (r.timestamp_s, None if r.csi is None else r.csi.tolist(),
         r.rssi_dbm.tolist(), r.source)
        for r in stream
    ]


def _assert_same_stream(a, b):
    assert len(a) == len(b)
    assert _rows(a) == _rows(b)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.has_csi, b.has_csi)
    assert np.array_equal(a.rssi_matrix(), b.rssi_matrix())
    assert np.array_equal(a.sources, b.sources)
    if a.has_csi.all():
        assert np.array_equal(a.csi_matrix(), b.csi_matrix())
        assert np.array_equal(a.flattened_csi(), b.flattened_csi())


class TestArrayBacking:
    """A stream from arrays and one appended row by row are the same."""

    @staticmethod
    def _arrays(n=50, seed=0):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 1.0, n))
        times[10:13] = times[10]  # equal timestamps
        return times, rng.normal(size=(n, 3, 30)), rng.normal(size=(n, 3))

    def test_from_arrays_matches_appended_rows(self):
        times, csi, rssi = self._arrays()
        built = MeasurementStream.from_arrays(times, rssi, csi=csi, source="ap")
        appended = MeasurementStream()
        for i in range(len(times)):
            appended.append(ChannelMeasurement(
                timestamp_s=float(times[i]), csi=csi[i], rssi_dbm=rssi[i],
                source="ap",
            ))
        _assert_same_stream(built, appended)
        _assert_same_stream(MeasurementStream(built), built)
        _assert_same_stream(built.sliced(0.2, 0.7),
                            appended.sliced(0.2, 0.7))
        assert built[-1].timestamp_s == appended[-1].timestamp_s

    def test_views_are_read_only(self):
        times, csi, rssi = self._arrays()
        stream = MeasurementStream.from_arrays(times, rssi, csi=csi)
        for view in (stream.timestamps, stream.csi_matrix(),
                     stream.rssi_matrix(), stream.flattened_csi(),
                     stream[3].csi):
            assert not view.flags.writeable
        assert times.flags.writeable, "the caller's array stays writeable"

    def test_rssi_only_rows_mixed_with_csi(self):
        stream = MeasurementStream()
        stream.extend([m(0.0, with_csi=False), m(1.0), m(2.0, with_csi=False)])
        assert stream.has_csi.tolist() == [False, True, False]
        assert stream.csi_coverage() == pytest.approx(1 / 3)
        assert [r.has_csi for r in stream] == [False, True, False]
        assert np.array_equal(stream[1].csi, np.ones((3, 30)))
        with pytest.raises(ConfigurationError):
            stream.csi_matrix()
        with pytest.raises(ConfigurationError):
            stream.append(m(1.5))

    def test_inconsistent_csi_shapes_rejected(self):
        stream = MeasurementStream()
        stream.append(m(0.0))
        stream.append(ChannelMeasurement(
            timestamp_s=1.0, csi=np.ones((2, 30)),
            rssi_dbm=np.array([-40.0, -41.0, -55.0]),
        ))
        with pytest.raises(ConfigurationError):
            stream.timestamps

    def test_from_arrays_validates(self):
        times, csi, rssi = self._arrays()
        with pytest.raises(ConfigurationError):
            MeasurementStream.from_arrays(times[::-1], rssi, csi=csi)
        with pytest.raises(ConfigurationError):
            MeasurementStream.from_arrays(times, rssi[:-1], csi=csi)
        with pytest.raises(ConfigurationError):
            MeasurementStream.from_arrays(times, rssi, csi=csi[:, 0])

    def test_merge_matches_sorted_records_and_is_stable(self):
        a = MeasurementStream()
        a.extend([m(0.0, source="a"), m(1.0, source="a"),
                  m(1.0, with_csi=False, source="a2")])
        b = MeasurementStream()
        b.extend([m(1.0, source="b"), m(2.0, source="b")])
        merged = merge_streams([a, MeasurementStream(), b])
        expected = MeasurementStream()
        expected.extend(sorted(list(a) + list(b), key=lambda r: r.timestamp_s))
        _assert_same_stream(merged, expected)
        assert [r.source for r in merged] == ["a", "a", "a2", "b", "b"]

    def test_merge_of_array_streams_matches_record_merge(self):
        times, csi, rssi = self._arrays(seed=1)
        x = MeasurementStream.from_arrays(times[::2], rssi[::2], csi=csi[::2],
                                          source="x")
        y = MeasurementStream.from_arrays(times[1::2], rssi[1::2],
                                          csi=csi[1::2], source="y")
        by_records = MeasurementStream()
        by_records.extend(sorted(list(x) + list(y),
                                 key=lambda r: r.timestamp_s))
        _assert_same_stream(merge_streams([x, y]), by_records)

    def test_replaced_keeps_mask_and_sources(self):
        stream = MeasurementStream()
        stream.extend([m(0.0, source="a"), m(1.0, with_csi=False, source="b")])
        shifted = stream.replaced(timestamps=stream.timestamps + 1.0)
        assert shifted.timestamps.tolist() == [1.0, 2.0]
        assert shifted.has_csi.tolist() == [True, False]
        assert shifted.sources.tolist() == ["a", "b"]
        with pytest.raises(ConfigurationError):
            stream.replaced(timestamps=np.array([1.0, 0.0]))
