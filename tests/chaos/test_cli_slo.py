"""Chaos suite: SLO alerting and benchmark gating through the CLI.

Extends the exit-code contract: 4 = an SLO objective was violated
during the run, 5 = the bench regression gate tripped.
"""

import json
import os

import pytest

from repro import obs
from repro.cli import (
    EXIT_BENCH_REGRESSION,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_SLO_VIOLATION,
    main,
)

pytestmark = pytest.mark.chaos

#: Deterministic chaos run that delivers some-but-not-all frames
#: (seed-pinned: outage bursts eat part of the session).
ARQ_CHAOS = [
    "arq", "--distance", "0.3", "--frames", "4", "--payload", "8",
    "--rate", "1000", "--pkts-per-bit", "6", "--max-attempts", "2",
    "--faults", "outage:duty=0.45,burst=0.6", "--seed", "1",
]

#: Fleet serve run whose outlier tag delivers with bit errors, so the
#: decode-error histogram's tail is above zero.
SERVE_FLEET = [
    "serve", "--duration", "10", "--offered-load", "20",
    "--deadline-ms", "2500", "--queue-capacity", "24", "--tags", "64",
    "--payload", "8", "--rate", "200", "--pkts-per-bit", "6",
    "--outlier-tag", "7", "--outlier-distance", "2.4", "--seed", "11",
]


class TestSloExitCode:
    def test_violation_during_faulted_run_exits_4(self, capsys):
        code = main(ARQ_CHAOS + [
            "--slo", "uplink.delivery.rate >= 0.999 over 200 frames "
                     "! critical",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_SLO_VIOLATION
        assert "SLO alerts" in captured.out
        assert "uplink.delivery.rate >= 0.999" in captured.out

    def test_satisfied_slo_exits_0(self, capsys):
        code = main([
            "arq", "--frames", "2", "--payload", "8", "--max-attempts", "2",
            "--seed", "0",
            "--slo", "uplink.delivery.rate >= 0.5 over 10 frames",
        ])
        assert code == EXIT_OK
        assert "SLO alerts" not in capsys.readouterr().out

    def test_malformed_slo_spec_is_config_error(self, capsys):
        code = main(ARQ_CHAOS + ["--slo", "delivery !!! fast"])
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_json_output_carries_alerts(self, capsys):
        code = main(ARQ_CHAOS + [
            "--json",
            "--slo", "uplink.delivery.rate >= 0.999 over 200 frames",
        ])
        assert code == EXIT_SLO_VIOLATION
        out = json.loads(capsys.readouterr().out)
        assert out["alerts"]
        assert out["alerts"][0]["rule"]["metric"] == "uplink.delivery.rate"

    def test_histogram_percentile_slo_fires(self, capsys):
        code = main(SERVE_FLEET + [
            "--json", "--slo", "fleet.decode.errors.p99 <= 0",
        ])
        assert code == EXIT_SLO_VIOLATION
        out = json.loads(capsys.readouterr().out)
        assert out["error_bits"] > 0
        assert [a["rule"]["metric"] for a in out["alerts"]] == [
            "fleet.decode.errors.p99"
        ]

    def test_alerts_land_in_manifest_and_reports(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "run.json")
        code = main(ARQ_CHAOS + [
            "--metrics-out", manifest_path,
            "--slo", "uplink.delivery.rate >= 0.999 over 200 frames "
                     "! critical quarantine",
        ])
        assert code == EXIT_SLO_VIOLATION
        manifest = obs.read_json(manifest_path)
        alerts = manifest["extra"]["alerts"]
        assert alerts[0]["rule"]["action"] == "quarantine"
        capsys.readouterr()
        # obs-report renders the alerts section...
        assert main(["obs-report", manifest_path]) == EXIT_OK
        assert "SLO alerts" in capsys.readouterr().out
        # ...and perf-report does too.
        assert main(["perf-report", manifest_path]) == EXIT_OK
        assert "SLO alerts" in capsys.readouterr().out

    def test_profile_flag_prints_perf_report(self, capsys):
        code = main(ARQ_CHAOS + ["--profile"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "perf report" in out
        assert "uplink.decode" in out


class TestBenchGate:
    QUICK = ["bench", "--quick", "--workloads", "downlink_far",
             "--seed", "3"]

    def test_bench_writes_root_artifact_and_baseline(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        code = main(self.QUICK + [
            "--out-dir", str(tmp_path), "--write-baseline",
            "--baseline", baseline,
        ])
        assert code == EXIT_OK
        artifact = obs.read_json(str(tmp_path / "BENCH_downlink_far.json"))
        assert set(artifact) == {
            "name", "commit", "git_dirty", "hostname", "timestamp",
            "metrics",
        }
        assert "latency_p95_s" in artifact["metrics"]
        assert "throughput_bps" in artifact["metrics"]
        assert os.path.exists(baseline)
        capsys.readouterr()

    def test_check_passes_against_fresh_baseline(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        main(self.QUICK + [
            "--out-dir", str(tmp_path), "--write-baseline",
            "--baseline", baseline,
        ])
        capsys.readouterr()
        code = main(self.QUICK + [
            "--out-dir", str(tmp_path), "--check", "--baseline", baseline,
        ])
        assert code == EXIT_OK
        assert "regression gate" in capsys.readouterr().out

    def test_regression_exits_5_with_per_metric_diff(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        main(self.QUICK + [
            "--out-dir", str(tmp_path), "--write-baseline",
            "--baseline", baseline,
        ])
        capsys.readouterr()
        # Doctor the baseline into an impossible objective so the fresh
        # run must regress against it.
        doc = obs.read_json(baseline)
        entry = doc["workloads"]["downlink_far"]["metrics"]["throughput_bps"]
        entry["value"] = entry["value"] * 1e6
        entry["tolerance"] = 0.01
        obs.write_json(baseline, doc)
        code = main(self.QUICK + [
            "--out-dir", str(tmp_path), "--check", "--baseline", baseline,
        ])
        assert code == EXIT_BENCH_REGRESSION
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "throughput_bps" in out

    def test_check_without_baseline_is_config_error(self, tmp_path, capsys):
        code = main(self.QUICK + [
            "--out-dir", str(tmp_path), "--check",
            "--baseline", str(tmp_path / "missing.json"),
        ])
        assert code == EXIT_CONFIG_ERROR
        assert "no baseline" in capsys.readouterr().err

    def test_unknown_workload_is_config_error(self, tmp_path, capsys):
        code = main([
            "bench", "--workloads", "nope", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_CONFIG_ERROR
        capsys.readouterr()
