"""Tests of the benchmark itself: ``pytest bench -q``.

The workloads run here in-process at small sizes; the last two tests
run ``bench/run.py`` end to end, as a user would.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.core.batch import BatchedUplinkDecoder  # noqa: E402
from repro.core.uplink_decoder import UplinkDecoder  # noqa: E402
from repro.errors import DecodeError  # noqa: E402
from repro.measurement import MeasurementStream  # noqa: E402
from repro.obs import state as obs_state  # noqa: E402


def small(name: str):
    """The workload at a size that runs in well under a second per op."""
    return {
        "fig10_sweep": lambda: workloads.Fig10Sweep(cycles=2),
        "decode_replay": lambda: workloads.DecodeReplay(cycles=2),
        "serve_burst": lambda: workloads.ServeBurst(cycles=1),
        "fault_sweep": lambda: workloads.FaultSweep(cycles=2),
    }[name]()


def deterministic(name: str, seed: int):
    ops = workloads.run_round(small(name), seed, 5)
    out = metrics.diagnostics(metrics.SPECS[name],
                              [{"ops": ops, "setup_s": 0.0}])
    return [out[m.name] for m in metrics.DETERMINISTIC]


@pytest.mark.parametrize("name", list(metrics.SPECS))
def test_seed_fixes_deterministic_metrics(name, monkeypatch):
    # Far links, where BER is nonzero and so tells two seeds apart:
    # round 5 is the Fig 10 sweeps' farthest point, and decode_replay
    # gets a far class A.
    monkeypatch.setitem(workloads.DecodeReplay.CLASSES, "A",
                        workloads.ReplayClass(0.7, 10, 90, "csi", True))
    first = deterministic(name, 11)
    assert deterministic(name, 11) == first
    assert deterministic(name, 12) != first


def test_decode_replay_decodes_each_stream_once(monkeypatch):
    seen = []
    original = UplinkDecoder.decode_bits

    def spy(self, stream, *args, **kwargs):
        seen.append(stream)  # holding the stream keeps its id unique
        return original(self, stream, *args, **kwargs)

    monkeypatch.setattr(UplinkDecoder, "decode_bits", spy)
    workload = small("decode_replay")
    ops = workloads.run_round(workload, 3, 0)
    assert len(seen) == len(ops) == 4 * workload.cycles
    assert len({id(s) for s in seen}) == len(seen)


@pytest.mark.parametrize("name", list(metrics.SPECS))
def test_wrap_points_fire_where_listed(name):
    active = tracer.Tracer()
    restore, missing = tracer.install(active)
    try:
        workloads.run_round(small(name), 5, 0, tracer=active)
    finally:
        restore()
    assert missing == []
    table = active.aggregate()
    fired = {p.name for p in tracer.WRAP_POINTS
             if table.get(p.name, {}).get("calls", 0) > 0}
    listed = {p.name for p in tracer.WRAP_POINTS if name in p.fires_on}
    assert fired == listed
    assert metrics.SPECS[name].entry in fired


def test_restore_puts_originals_back():
    before = UplinkDecoder.decode_bits
    restore, _ = tracer.install(tracer.Tracer())
    assert UplinkDecoder.decode_bits is not before
    restore()
    assert UplinkDecoder.decode_bits is before


def test_missing_wrap_point_is_reported_not_fatal():
    points = (tracer.WrapPoint("repro.sim.link:no_such_function", ()),
              tracer.WRAP_POINTS[0])
    restore, missing = tracer.install(tracer.Tracer(), points)
    restore()
    assert missing == ["sim.link.no_such_function"]


@pytest.mark.parametrize("name", list(metrics.SPECS))
def test_obs_off_except_recording_in_fault_sweep(name, monkeypatch):
    flags = set()

    def probe(cls, attr):
        original = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            flags.add((obs_state.metrics_enabled(),
                       obs_state.tracing_enabled(),
                       obs_state.profiling_enabled(),
                       obs_state.recording_enabled()))
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    probe(MeasurementStream, "extend")
    probe(UplinkDecoder, "decode_bits")
    probe(BatchedUplinkDecoder, "decode_batch")
    workloads.run_round(small(name), 2, 0)
    recording = name == "fault_sweep"
    assert flags == {(False, False, False, recording)}


def test_self_time_of_a_nested_call_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
             ["a1", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0]]
    table = tracer.aggregate(spans)
    assert {k: v["self_s"] for k, v in table.items()} == {
        "root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0}
    assert table["root"]["total_s"] == 10.0

    # The live wrappers build the same tree from a scripted clock.
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    active = tracer.Tracer(clock=lambda: next(ticks))
    a1 = active.span_wrapper("a1", lambda: None)
    a = active.span_wrapper("a", lambda: a1())
    b = active.span_wrapper("b", lambda: None)
    root = active.span_wrapper("root", lambda: (a(), b()))
    root()
    assert tracer.aggregate(active.spans) == table


def test_paused_tracer_records_nothing():
    active = tracer.Tracer()
    span = active.span_wrapper("f", lambda: 1)
    count = active.count_wrapper("g", lambda: 2)
    with active.paused():
        assert span() == 1 and count() == 2
    assert active.spans == [] and active.counts == {"g": 0}


def test_wrong_bit_count_fails_the_check(monkeypatch):
    original = UplinkDecoder.decode_bits

    def short(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        return replace(result, bits=result.bits[:-1])

    monkeypatch.setattr(UplinkDecoder, "decode_bits", short)
    with pytest.raises(workloads.CheckFailed):
        workloads.run_round(small("decode_replay"), 1, 0)


@pytest.mark.parametrize("raised,lost,failed", [
    (DecodeError("preamble found too late"), True, False),
    (RuntimeError("bug"), False, True),
])
def test_decode_errors_lose_the_frame_other_errors_fail_the_op(
        monkeypatch, raised, lost, failed):
    def broken(self, *args, **kwargs):
        raise raised

    monkeypatch.setattr(UplinkDecoder, "decode_bits", broken)
    ops = workloads.run_round(small("decode_replay"), 1, 0)
    assert all(op["lost"] is lost and op["failed"] is failed
               and op["errors"] == op["bits"] for op in ops)


def test_compare_verdicts():
    bound = 0.10
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [120, 121, 119, 122, 120], "higher",
                           bound) == "improved"
    assert compare.verdict(base, [80, 81, 79, 80, 82], "higher",
                           bound) == "regressed"
    assert compare.verdict(base, [60, 140, 100, 70, 130], "higher",
                           bound) == "unresolved"
    assert compare.verdict(base, [100.2, 99.8, 100.1, 99.9, 100.0],
                           "higher", bound) == "unchanged"


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (s.name, s.why) for s in metrics.SPECS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.per_layer_metrics()]


def run_bench(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_run_reports_every_metric():
    expected = {
        "0": {m.name for m in metrics.END_TO_END},
        "1": {m.name for m in metrics.per_layer_metrics()},
    }
    for trace_flag, names in expected.items():
        proc = run_bench(["--workload", "decode_replay", "--seed", "4",
                          "--seconds", "1", "--trace", trace_flag], ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "fig10_sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
