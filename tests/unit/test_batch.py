"""Batched uplink decoder: the batch-vs-scalar equality oracle.

`BatchedUplinkDecoder` promises *bit-identical* output to the scalar
`UplinkDecoder` on every path — same bits, same float intermediates
(correlations, weights, combined soft values, down to the last ULP),
same selected sub-channels, same error types and messages, and the
same forensics stage records.  These tests drive both pipelines over
the paths that matter (known/scan timing, CSI/RSSI, RSSI fallback,
fault plans, mixed batches) and compare everything.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.barker import barker_bits
from repro.core.batch import BatchItem, BatchedUplinkDecoder
from repro.core.uplink_decoder import UplinkDecoder
from repro.faults.spec import parse_fault_spec
from repro.measurement import ChannelMeasurement, MeasurementStream
from repro.obs import state
from repro.sim.link import helper_packet_times, simulate_uplink_stream
from repro.tag.modulator import random_payload


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def make_item(seed, mode="csi", start_known=True, fault_spec=None,
              payload_bits=8, packets_per_bit=2.0, bit_rate=25.0,
              dist=0.3, strip_csi=False):
    """One synthetic packet plus its ground-truth payload."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 7)))
    bit = 1.0 / bit_rate
    payload = random_payload(payload_bits, rng)
    bits = barker_bits() + payload
    span = len(bits) * bit + 2 * 0.45 + 0.1
    times = helper_packet_times(
        packets_per_bit * bit_rate, span, "cbr", 0.0, rng
    )
    faults = None
    if fault_spec:
        faults = parse_fault_spec(fault_spec, base_seed=seed + 1)
        faults.reset()
    stream, tx_start = simulate_uplink_stream(
        bits, bit, times, dist, rng=rng, faults=faults
    )
    if strip_csi:
        bare = MeasurementStream()
        for m in stream:
            bare.append(ChannelMeasurement(
                timestamp_s=m.timestamp_s, csi=None,
                rssi_dbm=m.rssi_dbm, source=m.source,
            ))
        stream = bare
    return BatchItem(
        stream=stream, num_bits=payload_bits, bit_duration_s=bit,
        mode=mode, start_time_s=(tx_start if start_known else None),
    ), payload


def scalar_reference(items):
    """Scalar decode of every item, with forensics records captured."""
    state.enable(metrics=True, recording=True)
    scalar = UplinkDecoder()
    out = []
    for item in items:
        try:
            out.append(("ok", scalar.decode_bits(
                item.stream, item.num_bits, item.bit_duration_s,
                mode=item.mode, start_time_s=item.start_time_s,
            )))
        except Exception as exc:
            out.append(("err", exc))
    records = [dict(r) for r in state.get_recorder().records]
    state.disable()
    state.reset()
    return out, records


def batch_run(items):
    state.enable(metrics=True, recording=True)
    outcomes = BatchedUplinkDecoder().decode_batch(items)
    records = [dict(r) for r in state.get_recorder().records]
    state.disable()
    state.reset()
    return outcomes, records


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def assert_outcomes_match(scalar_out, batch_out):
    assert len(scalar_out) == len(batch_out)
    for i, ((kind, sval), bout) in enumerate(zip(scalar_out, batch_out)):
        if kind == "err":
            assert not bout.ok, f"item {i}: scalar raised, batch succeeded"
            assert type(sval) is type(bout.error), f"item {i}"
            assert str(sval) == str(bout.error), f"item {i}"
            continue
        assert bout.ok, f"item {i}: batch raised {bout.error!r}"
        r, b = sval, bout.result
        assert r.bits.tolist() == b.bits.tolist(), f"item {i} bits"
        assert str(r.bits.dtype) == str(b.bits.dtype)
        assert r.sliced.support.tolist() == b.sliced.support.tolist()
        assert np.asarray(r.sliced.erasures).tolist() == \
            np.asarray(b.sliced.erasures).tolist()
        assert (r.mode, r.fallback_from) == (b.mode, b.fallback_from)
        assert r.repaired_values == b.repaired_values
        assert list(r.frame_slice) == list(b.frame_slice)
        assert r.detection.start_time_s == b.detection.start_time_s
        assert r.detection.score == b.detection.score
        assert r.detection.threshold == b.detection.threshold
        assert r.weights.channel_indices.tolist() == \
            b.weights.channel_indices.tolist()
        # Float intermediates must match to the last ULP.
        for field in ("correlations",):
            assert bitwise_equal(
                getattr(r.detection, field), getattr(b.detection, field)
            ), f"item {i} {field}"
        assert bitwise_equal(r.weights.weights, b.weights.weights)
        assert bitwise_equal(r.combined, b.combined), f"item {i} combined"


def assert_records_match(scalar_records, batch_records):
    assert len(scalar_records) == len(batch_records)
    for i, (sr, br) in enumerate(zip(scalar_records, batch_records)):
        a = json.dumps(sr, sort_keys=True, default=repr)
        b = json.dumps(br, sort_keys=True, default=repr)
        assert a == b, f"forensics record {i} differs"


CASES = {
    "known_clean": [dict(seed=s) for s in range(6)],
    "scan_clean": [dict(seed=s, start_known=False) for s in range(4)],
    "rssi": [dict(seed=s, mode="rssi") for s in range(3)],
    "rssi_fallback": [dict(seed=s, strip_csi=True) for s in range(3)],
    "faults": [
        dict(seed=1, fault_spec="outage:duty=0.2,burst=0.3"),
        dict(seed=2, fault_spec="nan:prob=0.05"),
        dict(seed=3, fault_spec="csi_dropout:duty=0.3,burst=0.2,frac=0.5"),
        dict(seed=4, fault_spec="interference:duty=0.3,burst=0.2,noise=2.0"),
    ],
    "mixed": [
        dict(seed=0),
        dict(seed=1, start_known=False),
        dict(seed=2, mode="rssi"),
        dict(seed=3, strip_csi=True),
        dict(seed=5, fault_spec="nan:prob=0.1"),
    ],
}


class TestEqualityOracle:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_matches_scalar(self, case):
        items = [make_item(**spec)[0] for spec in CASES[case]]
        scalar_out, scalar_records = scalar_reference(items)
        batch_out, batch_records = batch_run(items)
        assert_outcomes_match(scalar_out, batch_out)
        assert_records_match(scalar_records, batch_records)

    def test_single_item_batch(self):
        item, payload = make_item(0)
        scalar_out, _ = scalar_reference([item])
        batch_out, _ = batch_run([item])
        assert_outcomes_match(scalar_out, batch_out)
        assert batch_out[0].result.bits.tolist() == list(payload)

    def test_empty_batch(self):
        assert BatchedUplinkDecoder().decode_batch([]) == []


class TestErrorPaths:
    def test_empty_stream_mirrors_scalar_error(self):
        item = BatchItem(
            stream=MeasurementStream(), num_bits=8, bit_duration_s=0.04,
        )
        good, _ = make_item(0)
        outcomes = BatchedUplinkDecoder().decode_batch([item, good])
        assert not outcomes[0].ok
        assert str(outcomes[0].error) == "empty measurement stream"
        assert outcomes[1].ok  # one bad packet never sinks the batch

    def test_bad_num_bits_mirrors_scalar_error(self):
        good, _ = make_item(0)
        bad = BatchItem(
            stream=good.stream, num_bits=0, bit_duration_s=0.04,
        )
        outcomes = BatchedUplinkDecoder().decode_batch([bad])
        assert not outcomes[0].ok
        assert "num_bits must be >= 1" in str(outcomes[0].error)
