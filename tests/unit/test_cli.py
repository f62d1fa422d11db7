"""Command-line interface."""

import pytest

from repro.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DECODE_FAILURE,
    EXIT_OK,
    EXIT_SLO_VIOLATION,
    EXIT_TREND_REGRESSION,
    build_parser,
    main,
)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_calibration(self, capsys):
        code, out = run_cli(capsys, ["calibration"])
        assert code == 0
        assert "tag_coupling" in out

    def test_rate_plan(self, capsys):
        code, out = run_cli(capsys, ["rate-plan", "--helper-pps", "3070"])
        assert code == 0
        assert "1000 bps" in out

    def test_uplink_ber(self, capsys):
        code, out = run_cli(
            capsys,
            ["uplink-ber", "--distance", "0.1", "--repeats", "2",
             "--seed", "3"],
        )
        assert code == 0
        assert "BER" in out

    def test_uplink_ber_rssi_mode(self, capsys):
        code, out = run_cli(
            capsys,
            ["uplink-ber", "--distance", "0.1", "--repeats", "2",
             "--mode", "rssi"],
        )
        assert code == 0
        assert "rssi" in out

    def test_downlink_ber(self, capsys):
        code, out = run_cli(
            capsys,
            ["downlink-ber", "--distance", "2.0", "--bits", "20000"],
        )
        assert code == 0
        assert "range at BER 1e-2" in out

    def test_correlation(self, capsys):
        code, out = run_cli(capsys, ["correlation", "--distance", "1.6"])
        assert code == 0
        assert "required L" in out

    def test_correlation_with_simulation(self, capsys):
        code, out = run_cli(
            capsys,
            ["correlation", "--distance", "1.0", "--length", "16",
             "--simulate"],
        )
        assert code == 0
        assert "simulated errors" in out

    def test_power_budget(self, capsys):
        code, out = run_cli(capsys, ["power-budget"])
        assert code == 0
        assert "self-sustaining" in out or "duty cycling" in out

    def test_power_budget_far(self, capsys):
        code, out = run_cli(capsys, ["power-budget", "--distance", "30"])
        assert "duty cycling" in out

    def test_serve_zero_rate_is_a_config_error(self, capsys):
        code = main(["serve", "--duration", "1", "--rate", "0"])
        assert code == EXIT_CONFIG_ERROR
        assert "bit_rate_bps" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_retired_bench_command_is_an_invalid_choice(self, capsys):
        # Timing lives in bench/run.py; no alias or shim keeps the old
        # in-process ``bench`` subcommand alive.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--list"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bench" in err

    def test_exit_codes_are_distinct(self):
        # 5 now means only a ``history --check`` trend regression.
        assert [EXIT_OK, EXIT_DECODE_FAILURE, EXIT_CONFIG_ERROR,
                EXIT_SLO_VIOLATION, EXIT_TREND_REGRESSION] == [0, 2, 3, 4, 5]

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for cmd in ("uplink-ber", "downlink-ber", "correlation",
                    "rate-plan", "power-budget", "calibration"):
            assert cmd in help_text
