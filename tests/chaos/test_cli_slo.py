"""Chaos suite: SLO alerting through the CLI.

Extends the exit-code contract: 4 = an SLO objective was violated
during the run.
"""

import json

import pytest

from repro import obs
from repro.cli import (
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
