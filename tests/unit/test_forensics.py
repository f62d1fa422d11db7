"""Flight recorder + attribution engine + JSONL artifact unit tests."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import state
from repro.obs.forensics import (
    DEFAULT_CAPACITY,
    LABELS,
    FlightRecorder,
    attribute_record,
    read_jsonl,
    render_forensics,
    summarize,
    write_jsonl,
)
from repro.obs.forensics import recorder as recmod


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


def _commit_n(rec, n, errors=0, **kw):
    for i in range(n):
        rec.begin("uplink", run_id="r", trial=i)
        rec.stage("slice", low=0.1, high=0.2)
        rec.commit(errors=errors, **kw)


class TestFlightRecorder:
    def test_defaults(self):
        rec = FlightRecorder()
        assert rec.capacity == DEFAULT_CAPACITY
        assert rec.policy == "errors"

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)
        with pytest.raises(ConfigurationError):
            FlightRecorder(policy="nope")

    def test_errors_policy_keeps_only_errors(self):
        rec = FlightRecorder(capacity=10, policy="errors")
        _commit_n(rec, 3, errors=0)
        _commit_n(rec, 2, errors=1, error_bits=[0])
        assert rec.seen == 5
        assert rec.errors_seen == 2
        assert len(rec.records) == 2
        assert rec.dropped == 3

    def test_errors_policy_keeps_failures(self):
        rec = FlightRecorder(policy="errors")
        rec.begin("uplink")
        rec.commit(errors=0, failure="DecodeError")
        assert len(rec.records) == 1

    def test_head_policy_keeps_first_n(self):
        rec = FlightRecorder(capacity=3, policy="head")
        _commit_n(rec, 5)
        assert [r["trial"] for r in rec.records] == [0, 1, 2]
        assert rec.dropped == 2

    def test_tail_policy_keeps_last_n(self):
        rec = FlightRecorder(capacity=3, policy="tail")
        _commit_n(rec, 5)
        assert [r["trial"] for r in rec.records] == [2, 3, 4]
        assert rec.dropped == 2

    def test_errors_policy_ring_bounded(self):
        rec = FlightRecorder(capacity=2, policy="errors")
        _commit_n(rec, 4, errors=1, error_bits=[0])
        assert len(rec.records) == 2
        assert [r["trial"] for r in rec.records] == [2, 3]

    def test_stage_merges_and_overwrites(self):
        rec = FlightRecorder(policy="head")
        rec.begin("uplink")
        rec.stage("slice", low=0.1)
        rec.stage("slice", low=0.3, high=0.5)
        rec.commit(errors=1)
        stage = rec.records[0]["stages"]["slice"]
        assert stage == {"low": 0.3, "high": 0.5}

    def test_stage_jsonable_eagerly(self):
        rec = FlightRecorder(policy="head")
        rec.begin("uplink")
        rec.stage("combine", weights=np.array([1.0, float("nan")]))
        rec.commit(errors=1)
        weights = rec.records[0]["stages"]["combine"]["weights"]
        assert weights[0] == 1.0
        assert weights[1] == "NaN"

    def test_nested_records(self):
        rec = FlightRecorder(policy="head")
        rec.begin("arq_frame", run_id="r")
        rec.begin("uplink", run_id="inner")
        rec.stage("slice", low=1)
        rec.commit(errors=1)
        rec.stage("arq", attempts=2)
        rec.commit(errors=0)
        kinds = [r["kind"] for r in rec.records]
        assert kinds == ["uplink", "arq_frame"]

    def test_absorb_merges_counters_and_records(self):
        parent = FlightRecorder(capacity=4, policy="errors")
        worker = FlightRecorder(capacity=4, policy="errors")
        _commit_n(worker, 2, errors=1, error_bits=[1])
        parent.absorb(worker.to_payload())
        assert parent.seen == 2
        assert parent.errors_seen == 2
        assert len(parent.records) == 2

    def test_module_helpers_noop_when_disabled(self):
        recmod.begin("uplink")
        recmod.stage("slice", low=1)
        recmod.commit(errors=1)
        assert state.get_recorder().seen == 0

    def test_ensure_record_adhoc_commit_on_error(self):
        state.enable(metrics=False, tracing=False, recording=True)
        rec = state.get_recorder()
        rec.configure(policy="errors")
        with pytest.raises(ValueError):
            with recmod.ensure_record("uplink"):
                raise ValueError("boom")
        assert rec.records[-1]["failure"] == "ValueError"


class TestAttribution:
    def test_fault_overlap_wins(self):
        record = {
            "kind": "uplink", "errors": 1, "error_bits": [3],
            "failure": None,
            "stages": {
                "faults": {
                    "injectors": ["outage"], "unit_offset": 7,
                    "units_per_bit": 1, "dropped_units": [10],
                },
                "slice": {"support": [1] * 10,
                          "bit_margins": [0.5] * 10},
            },
        }
        verdict = attribute_record(record)
        assert verdict["label"] == "fault_window_overlap"
        assert verdict["bits"][0]["detail"] == "outage"

    def test_erasure(self):
        record = {
            "kind": "uplink", "errors": 1, "error_bits": [2],
            "failure": None,
            "stages": {"slice": {"support": [3, 3, 0, 3],
                                 "bit_margins": [0.1] * 4}},
        }
        assert attribute_record(record)["label"] == "erasure"

    def test_weight_collapse(self):
        record = {
            "kind": "uplink", "errors": 1, "error_bits": [0],
            "failure": None,
            "stages": {
                "slice": {"support": [5], "bit_margins": [0.01]},
                "combine": {"weight_max_share": 0.97},
            },
        }
        assert attribute_record(record)["label"] == "mrc_weight_collapse"

    def test_bad_selection(self):
        record = {
            "kind": "uplink", "errors": 1, "error_bits": [0],
            "failure": None,
            "stages": {
                "slice": {"support": [5], "bit_margins": [0.01]},
                "select": {"selection_ratio": 1.05},
            },
        }
        assert attribute_record(record)["label"] == "bad_subchannel_selection"

    def test_low_margin_fallback(self):
        record = {
            "kind": "uplink", "errors": 1, "error_bits": [1],
            "failure": None,
            "stages": {"slice": {"support": [5, 5],
                                 "bit_margins": [0.4, -0.002]}},
        }
        verdict = attribute_record(record)
        assert verdict["label"] == "low_margin_slice"
        assert verdict["bits"][0]["margin"] == pytest.approx(-0.002)

    def test_unknown_without_evidence(self):
        record = {"kind": "uplink", "errors": 2, "error_bits": [0, 1],
                  "failure": None, "stages": {}}
        assert attribute_record(record)["label"] == "unknown"

    def test_arq_exhaustion(self):
        record = {
            "kind": "arq_frame", "errors": 16, "error_bits": [],
            "failure": "arq_exhaustion",
            "stages": {"arq": {"attempts": 5}},
        }
        assert attribute_record(record)["label"] == "arq_exhaustion"

    def test_brownout_failure(self):
        record = {"kind": "uplink", "errors": 30, "error_bits": [],
                  "failure": "BrownoutError", "stages": {}}
        verdict = attribute_record(record)
        assert verdict["label"] == "fault_window_overlap"
        assert verdict["detail"] == "brownout"

    def test_abort_with_fault_evidence(self):
        record = {
            "kind": "uplink", "errors": 30, "error_bits": [],
            "failure": "ConfigurationError",
            "stages": {"faults": {"injectors": ["outage"],
                                  "dropped_units": [0, 1, 2]}},
        }
        verdict = attribute_record(record)
        assert verdict["label"] == "fault_window_overlap"
        assert verdict["detail"] == "outage"

    def test_conditioning_smear_attributes_nearby_bits(self):
        # Dark units at 0-2; error at bit 5 (unit 5) within the
        # conditioning window (0.4 s / 0.1 s unit = 4 units of smear).
        record = {
            "kind": "uplink", "errors": 1, "error_bits": [5],
            "failure": None,
            "stages": {
                "condition": {"window_s": 0.4},
                "faults": {"injectors": ["brownout"], "unit_s": 0.1,
                           "unit_offset": 0, "units_per_bit": 1,
                           "dark_units": [0, 1, 2]},
                "slice": {"support": [5] * 10,
                          "bit_margins": [0.01] * 10},
            },
        }
        verdict = attribute_record(record)
        assert verdict["label"] == "fault_window_overlap"
        assert verdict["detail"] == "brownout"

    def test_downlink_detector_noise(self):
        record = {
            "kind": "downlink_model", "errors": 7, "error_bits": [],
            "failure": None,
            "stages": {"downlink_model": {"brownout_misses": 0,
                                          "miss_probability": 1e-3}},
        }
        assert attribute_record(record)["label"] == "detector_noise"

    def test_downlink_brownout_dominates(self):
        record = {
            "kind": "downlink_model", "errors": 10, "error_bits": [],
            "failure": None,
            "stages": {"downlink_model": {"brownout_misses": 9}},
        }
        assert attribute_record(record)["label"] == "fault_window_overlap"

    def test_clean_record_has_no_label(self):
        record = {"kind": "uplink", "errors": 0, "error_bits": [],
                  "failure": None, "stages": {}}
        assert attribute_record(record)["label"] is None

    def test_all_emitted_labels_are_declared(self):
        assert "detector_noise" in LABELS
        assert "unknown" in LABELS

    def test_summarize_budget_sums_to_one(self):
        records = [
            {"kind": "uplink", "errors": 1, "error_bits": [0],
             "failure": None,
             "stages": {"slice": {"support": [5],
                                  "bit_margins": [0.001]}}},
            {"kind": "uplink", "errors": 2, "error_bits": [0, 1],
             "failure": None, "stages": {}},
        ]
        summary = summarize(records)
        assert summary["total_error_bits"] == 3
        assert summary["records_with_errors"] == 2
        assert math.isclose(sum(summary["error_budget"].values()), 1.0)
        assert summary["worst"][0]["errors"] == 2

    def test_summarize_counts_errors_of_frames_without_bit_entries(self):
        # An aborted decode and an analytic downlink chunk count their
        # errors but record no bit indices; the frame's label takes them.
        aborted = {"kind": "uplink", "errors": 90, "error_bits": [],
                   "failure": "DecodeError", "stages": {}}
        chunk = {"kind": "downlink_model", "errors": 10, "error_bits": [],
                 "failure": None,
                 "stages": {"downlink_model": {"brownout_misses": 0}}}
        sliced = {"kind": "uplink", "errors": 1, "error_bits": [0],
                  "failure": None,
                  "stages": {"slice": {"support": [5],
                                       "bit_margins": [0.001]}}}
        summary = summarize([aborted, chunk, sliced])
        assert summary["total_error_bits"] == 101
        assert summary["by_label"] == {
            "detector_noise": 10, "low_margin_slice": 1, "unknown": 90,
        }
        assert summary["frames_by_label"] == {
            "detector_noise": 1, "low_margin_slice": 1, "unknown": 1,
        }
        assert summary["error_budget"]["unknown"] == pytest.approx(90 / 101)
        assert math.isclose(sum(summary["error_budget"].values()), 1.0)

    def test_summarize_aborted_decode_alone(self):
        summary = summarize([
            {"kind": "uplink", "errors": 90, "error_bits": [],
             "failure": "DecodeError", "stages": {}},
        ])
        assert summary["total_error_bits"] == 90
        assert summary["by_label"] == {"unknown": 90}
        assert summary["error_budget"] == {"unknown": 1.0}
        assert summary["frames_by_label"] == {"unknown": 1}


class TestJsonlFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        records = [
            {"kind": "uplink", "run_id": "r", "trial": 0, "packet": 0,
             "errors": 1, "error_bits": [4], "failure": None,
             "stages": {"slice": {"bit_margins": [0.5, float("nan")]}}},
        ]
        write_jsonl(path, records, meta={"name": "test", "seed": 7})
        header, back = read_jsonl(path)
        assert header["name"] == "test"
        assert header["records"] == 1
        assert back[0]["error_bits"] == [4]
        margins = back[0]["stages"]["slice"]["bit_margins"]
        assert math.isnan(margins[1])

    def test_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        write_jsonl(path, [{"kind": "a"}, {"kind": "b"}], meta={})
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"schema": "other/9", "records": 0}\n')
        with pytest.raises(ConfigurationError):
            read_jsonl(path)

    def test_render_smoke(self):
        summary = summarize([
            {"kind": "uplink", "run_id": "r", "trial": 1, "packet": 0,
             "errors": 1, "error_bits": [0], "failure": None,
             "stages": {"slice": {"support": [5],
                                  "bit_margins": [-0.01]}}},
        ])
        text = render_forensics(summary, header={"name": "t", "seed": 3})
        assert "attribution" in text
        assert "low_margin_slice" in text


class TestZeroOverheadContract:
    def test_disabled_capture_sites_are_null(self):
        assert not obs.recording_enabled()
        ctx = recmod.ensure_record("uplink")
        assert ctx is recmod.NULL_RECORD_CONTEXT

    def test_session_restores_recording_flag(self):
        state.enable(recording=True)
        with state.session(recording=False):
            assert not state.recording_enabled()
        assert state.recording_enabled()
