"""Unit tests for the benchmark harness and regression gate."""

import os

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.perf import bench


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


def _result(name, **metrics):
    return bench.WorkloadResult(name=name, metrics=metrics)


class TestRepoRoot:
    def test_finds_pyproject_ancestor(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert bench.repo_root(str(nested)) == str(tmp_path)

    def test_falls_back_to_start(self, tmp_path):
        nested = tmp_path / "no" / "project"
        nested.mkdir(parents=True)
        root = bench.repo_root(str(nested))
        # No pyproject anywhere up the tmp tree (or it found a real
        # one above); either way the result is an existing directory.
        assert os.path.isdir(root)


class TestArtifacts:
    def test_root_artifact_schema(self):
        doc = bench.root_artifact("w", {"ber": 0.1})
        assert set(doc) == {
            "name", "commit", "git_dirty", "hostname", "timestamp",
            "metrics",
        }
        assert doc["name"] == "w"
        assert doc["metrics"] == {"ber": 0.1}
        assert doc["hostname"]

    def test_write_root_artifact_path_and_round_trip(self, tmp_path):
        path = bench.write_root_artifact(
            "uplink_x", {"ber": 0.25}, root=str(tmp_path)
        )
        assert path == str(tmp_path / "BENCH_uplink_x.json")
        back = obs.read_json(path)
        assert back["metrics"]["ber"] == 0.25

    def test_write_bench_artifacts(self, tmp_path):
        paths = bench.write_bench_artifacts(
            [_result("a", x=1.0), _result("b", y=2.0)], root=str(tmp_path)
        )
        assert [os.path.basename(p) for p in paths] == [
            "BENCH_a.json", "BENCH_b.json",
        ]


class TestBaseline:
    def test_make_baseline_directions_and_tolerances(self):
        doc = bench.make_baseline(
            [_result("w", throughput_bps=100.0, ber=0.01, latency_p95_s=0.5)]
        )
        entries = doc["workloads"]["w"]["metrics"]
        assert entries["throughput_bps"]["direction"] == bench.HIGHER_BETTER
        assert entries["ber"]["direction"] == bench.LOWER_BETTER
        # wall-clock metrics get the wide band, deterministic the tight
        assert entries["latency_p95_s"]["tolerance"] > entries["ber"]["tolerance"]

    def test_load_baseline_rejects_non_baseline(self, tmp_path):
        path = str(tmp_path / "x.json")
        obs.write_json(path, {"not": "a baseline"})
        with pytest.raises(ConfigurationError):
            bench.load_baseline(path)


class TestRegressionGate:
    def _baseline(self, **metric_specs):
        return {
            "workloads": {"w": {"metrics": metric_specs}},
        }

    def test_lower_better_regression(self):
        base = self._baseline(
            ber={"value": 0.01, "tolerance": 0.10, "direction": "lower_better"}
        )
        ok = bench.compare_to_baseline([_result("w", ber=0.0105)], base)
        assert not ok[0].regressed
        bad = bench.compare_to_baseline([_result("w", ber=0.02)], base)
        assert bad[0].regressed

    def test_higher_better_regression(self):
        base = self._baseline(
            throughput_bps={
                "value": 100.0, "tolerance": 0.20,
                "direction": "higher_better",
            }
        )
        ok = bench.compare_to_baseline(
            [_result("w", throughput_bps=85.0)], base
        )
        assert not ok[0].regressed
        bad = bench.compare_to_baseline(
            [_result("w", throughput_bps=70.0)], base
        )
        assert bad[0].regressed

    def test_improvement_never_gates(self):
        base = self._baseline(
            ber={"value": 0.01, "tolerance": 0.10, "direction": "lower_better"}
        )
        diffs = bench.compare_to_baseline([_result("w", ber=0.0)], base)
        assert not diffs[0].regressed

    def test_zero_baseline_with_atol(self):
        base = self._baseline(
            ber={"value": 0.0, "tolerance": 0.10,
                 "direction": "lower_better", "atol": 0.005}
        )
        ok = bench.compare_to_baseline([_result("w", ber=0.004)], base)
        assert not ok[0].regressed
        bad = bench.compare_to_baseline([_result("w", ber=0.006)], base)
        assert bad[0].regressed

    def test_zero_baseline_without_atol_gates_any_increase(self):
        base = self._baseline(
            ber={"value": 0.0, "tolerance": 0.10, "direction": "lower_better"}
        )
        diffs = bench.compare_to_baseline([_result("w", ber=0.001)], base)
        assert diffs[0].regressed

    def test_unknown_workloads_and_metrics_skipped(self):
        base = {
            "workloads": {
                "absent": {"metrics": {"x": {"value": 1.0}}},
                "w": {"metrics": {"missing_metric": {"value": 1.0}}},
            }
        }
        assert bench.compare_to_baseline([_result("w", ber=0.1)], base) == []

    def test_render_diffs(self):
        base = self._baseline(
            ber={"value": 0.01, "tolerance": 0.10, "direction": "lower_better"}
        )
        diffs = bench.compare_to_baseline([_result("w", ber=0.05)], base)
        text = bench.render_diffs(diffs)
        assert "REGRESSED" in text
        assert "ber" in text
        assert bench.render_diffs([], failures_only=True) == \
            "(no baseline metrics compared)"


class TestWorkloads:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            bench.run_workload("nope", 1)
        with pytest.raises(ConfigurationError):
            bench.run_bench(workloads=["nope"])

    def test_iteration_validation(self):
        with pytest.raises(ConfigurationError):
            bench.run_workload("downlink_far", 0)

    def test_downlink_workload_runs_and_reports(self):
        # The cheapest real workload: exercises the full measure path
        # (latency percentiles, throughput, deterministic metric).
        result = bench.run_workload("downlink_far", 2, seed=1)
        m = result.metrics
        assert set(m) >= {
            "latency_p50_s", "latency_p95_s", "latency_p99_s",
            "throughput_bps", "ber", "wall_s",
        }
        assert m["throughput_bps"] > 0
        assert 0.0 <= m["ber"] <= 1.0
        assert result.snapshot  # metrics session captured the run

    def test_uplink_workload_captures_profile(self):
        result = bench.run_workload("uplink_csi_near", 1, seed=1)
        assert "uplink.decode" in result.profile
        assert "conditioning.condition" in result.profile

    def test_workload_determinism_of_quality_metrics(self):
        a = bench.run_workload("downlink_far", 2, seed=7).metrics["ber"]
        b = bench.run_workload("downlink_far", 2, seed=7).metrics["ber"]
        assert a == b

    def test_workload_session_does_not_leak_obs_state(self):
        assert not obs.enabled()
        bench.run_workload("downlink_far", 1)
        assert not obs.enabled()


class TestCpuCountGating:
    def test_cpu_count_recorded_and_ungated(self):
        result = bench.run_workload("downlink_far", 1, seed=1)
        assert result.metrics["cpu_count"] == float(os.cpu_count() or 1)
        doc = bench.make_baseline([result])
        entries = doc["workloads"]["downlink_far"]["metrics"]
        assert "cpu_count" not in entries
        assert "workers" not in entries

    def test_speedup_ungated_on_single_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = _result(
            "w", speedup_vs_serial=0.4, wall_s=1.0,
        )
        baseline = {"workloads": {"w": {"metrics": {
            "speedup_vs_serial": {
                "value": 1.9, "tolerance": 0.5,
                "direction": bench.HIGHER_BETTER,
            },
            "wall_s": {
                "value": 1.0, "tolerance": 1.0,
                "direction": bench.LOWER_BETTER,
            },
        }}}}
        diffs = bench.compare_to_baseline([result], baseline)
        gated = {d.metric for d in diffs}
        assert "speedup_vs_serial" not in gated
        assert "wall_s" in gated

    def test_speedup_still_gated_on_multi_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        result = _result("w", speedup_vs_serial=0.4)
        baseline = {"workloads": {"w": {"metrics": {
            "speedup_vs_serial": {
                "value": 1.9, "tolerance": 0.5,
                "direction": bench.HIGHER_BETTER,
            },
        }}}}
        diffs = bench.compare_to_baseline([result], baseline)
        assert [d.metric for d in diffs] == ["speedup_vs_serial"]
        assert diffs[0].regressed


class TestServeOverloadWorkload:
    def test_registered_with_description(self):
        assert "serve_overload" in bench.WORKLOADS
        listing = {w["name"]: w for w in bench.list_workloads()}
        assert listing["serve_overload"]["description"]

    def test_throughput_metric_ungated_on_single_core(self, monkeypatch):
        assert "packets_decoded_per_s" in bench.SINGLE_CPU_UNGATED
        assert "packets_decoded_per_s" in bench.WALL_CLOCK_METRICS
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = _result(
            "serve_overload", packets_decoded_per_s=1.0, shed_fraction=0.9,
        )
        baseline = {"workloads": {"serve_overload": {"metrics": {
            "packets_decoded_per_s": {
                "value": 60.0, "tolerance": 1.0,
                "direction": bench.HIGHER_BETTER,
            },
            "shed_fraction": {
                "value": 0.2, "tolerance": 0.1,
                "direction": bench.LOWER_BETTER,
            },
        }}}}
        gated = {d.metric for d in bench.compare_to_baseline(
            [result], baseline)}
        assert "packets_decoded_per_s" not in gated
        assert "shed_fraction" in gated

    def test_workload_reports_overload_metrics(self):
        result = bench.run_workload("serve_overload", 1, seed=0)
        m = result.metrics
        for key in ("packets_decoded_per_s", "shed_fraction",
                    "latency_virtual_p99_s"):
            assert key in m, key
        # One canonical name per clock: ``latency_p99_s`` is the
        # wall-clock percentile, ``latency_virtual_p99_s`` the virtual
        # delivery percentile; the old ``p99_latency_s`` alias is gone.
        assert "p99_latency_s" not in m
        # The workload is configured 2x over capacity: it must shed.
        assert 0.0 < m["shed_fraction"] < 1.0
        assert m["packets_decoded_per_s"] > 0.0

    def test_quality_metrics_deterministic(self):
        a = bench.run_workload("serve_overload", 1, seed=3).metrics
        b = bench.run_workload("serve_overload", 1, seed=3).metrics
        assert a["shed_fraction"] == b["shed_fraction"]
        assert a["latency_virtual_p99_s"] == b["latency_virtual_p99_s"]
