"""Chaos suite: CLI fault plumbing and exit codes.

Scripting around the CLI (the CI chaos job, shell sweeps) needs to
distinguish "the link failed under these faults" (2) from "bad
invocation" (3) from success (0).
"""

import json

import pytest

from repro.cli import EXIT_CONFIG_ERROR, EXIT_DECODE_FAILURE, EXIT_OK, main
from repro.obs.forensics import read_jsonl

pytestmark = pytest.mark.chaos


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code = main([
            "arq", "--frames", "2", "--payload", "8", "--max-attempts", "2",
            "--seed", "0", "--json",
        ])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["frames"] == 2
        assert out["delivered"] == 2

    def test_malformed_fault_spec_is_config_error(self, capsys):
        code = main([
            "uplink-ber", "--repeats", "1",
            "--faults", "gremlins:duty=0.1",
        ])
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_bad_fault_value_is_config_error(self, capsys):
        code = main([
            "arq", "--frames", "1",
            "--faults", "outage:duty=lots,burst=0.1",
        ])
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_fault_killed_link_is_decode_failure(self, capsys):
        code = main([
            "correlation", "--simulate", "--length", "6", "--seed", "0",
            "--faults", "outage:duty=0.995,burst=50",
        ])
        assert code == EXIT_DECODE_FAILURE
        assert "decode failure:" in capsys.readouterr().err

    def test_starved_preamble_is_decode_failure(self, capsys, tmp_path):
        # 0.1 packets per bit leaves fewer than 2 packets in the
        # preamble: a data condition, so exit 2 with the record written.
        record = tmp_path / "rec.jsonl"
        code = main([
            "uplink-ber", "--distance", "0.3", "--pkts-per-bit", "0.1",
            "--repeats", "1", "--record", str(record),
        ])
        assert code == EXIT_DECODE_FAILURE
        assert "need at least 2 preamble packets" in capsys.readouterr().err
        _, records = read_jsonl(str(record))
        assert [r["failure"] for r in records] == ["DecodeError"]


class TestFaultPlumbing:
    def test_arq_under_outage_still_delivers(self, capsys):
        code = main([
            "arq", "--frames", "3", "--payload", "8", "--max-attempts", "5",
            "--seed", "21", "--json",
            "--faults", "outage:duty=0.1,burst=0.1,seed=9",
        ])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["delivery_ratio"] == 1.0

    def test_non_fault_aware_command_warns(self, capsys):
        code = main([
            "rate-plan", "--helper-pps", "3070",
            "--faults", "outage:duty=0.1,burst=0.1",
        ])
        assert code == EXIT_OK
        assert "--faults has no effect" in capsys.readouterr().err
