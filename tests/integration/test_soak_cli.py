"""Scenario runner + soak/scenarios/history CLI surface and exit codes."""

import json

import pytest

from repro.cli import main
from repro.obs.soak import HistoryStore, make_record
from repro.scenarios import Scenario, run_scenario


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


TINY = {
    "name": "t_tiny",
    "description": "fast smoke scenario",
    "tags": ["smoke"],
    "geometry": {"tag_to_reader_m": 0.15},
    "trial": {"repeats": 2, "payload_bits": 10, "packets_per_bit": 10.0},
    "envelope": {"ber_max": 0.5, "latency_max_s": 30.0},
}

IMPOSSIBLE = dict(
    TINY,
    name="t_impossible",
    envelope={"throughput_min_bps": 1e9},
)


def write_corpus(tmp_path, *scenarios):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"scenarios": list(scenarios)}))
    return str(path)


class TestRunScenario:
    def test_metrics_and_determinism(self):
        scenario = Scenario.from_dict(TINY)
        a = run_scenario(scenario, seed=5, record=True)
        b = run_scenario(scenario, seed=5, record=True)
        for key in ("ber", "throughput_bps", "errors", "total_bits"):
            assert a.metrics[key] == b.metrics[key], key
        assert 0.0 <= a.metrics["ber"] <= 1.0
        assert a.metrics["latency_s"] > 0.0
        assert a.passed
        assert [v.metric for v in a.envelope] == ["ber", "latency_s"]

    def test_envelope_miss_carries_attribution(self):
        result = run_scenario(Scenario.from_dict(IMPOSSIBLE), seed=5)
        assert not result.passed
        miss = [v for v in result.envelope if not v.ok]
        assert [v.metric for v in miss] == ["throughput_bps"]
        # The flight recorder ran, so the result knows its frame labels.
        assert isinstance(result.attribution, dict)

    def test_trial_scale_shrinks_work(self):
        scenario = Scenario.from_dict(TINY)
        full = run_scenario(scenario, seed=5)
        small = run_scenario(scenario, seed=5, trial_scale=0.5)
        assert small.metrics["total_bits"] < full.metrics["total_bits"]

    def test_bad_trial_scale_is_config_error(self):
        from repro.errors import ScenarioError
        with pytest.raises(ScenarioError):
            run_scenario(Scenario.from_dict(TINY), trial_scale=0.0)

    def test_manifest_written(self, tmp_path):
        result = run_scenario(
            Scenario.from_dict(TINY), seed=5, manifest_dir=str(tmp_path)
        )
        assert result.manifest_path is not None
        manifest = json.loads(open(result.manifest_path).read())
        assert manifest["name"] == "scenario_t_tiny"
        assert "git_dirty" in manifest and "hostname" in manifest


class TestScenariosCli:
    def test_list_builtin(self, capsys):
        code, out = run_cli(capsys, ["scenarios"])
        assert code == 0
        assert "geom_csi_030cm" in out and "fault_outage_030cm" in out

    def test_show_json(self, capsys):
        code, out = run_cli(capsys, ["scenarios", "--show",
                                     "geom_csi_030cm"])
        assert code == 0
        assert json.loads(out)["name"] == "geom_csi_030cm"

    def test_malformed_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"name": "b_bad", "geometry": {"tag_to_reader_m": 9.0}}
        ))
        code, out = run_cli(capsys, ["scenarios", "--file", str(path)])
        assert code == 3
        assert "geometry.tag_to_reader_m" in out

    def test_unknown_key_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "b_bad", "turbo": True}))
        code, out = run_cli(capsys, ["scenarios", "--file", str(path)])
        assert code == 3
        assert "turbo" in out


class TestSoakCli:
    def test_soak_appends_history(self, capsys, tmp_path):
        corpus = write_corpus(tmp_path, TINY)
        hist = tmp_path / "hist"
        code, out = run_cli(capsys, [
            "soak", "--file", corpus, "--scenarios", "t_tiny",
            "--history-dir", str(hist), "--seed", "5",
        ])
        assert code == 0
        assert "t_tiny" in out
        records = HistoryStore(str(hist)).load("t_tiny")
        assert len(records) == 1
        assert records[0]["metrics"]["ber"] <= 0.5
        assert records[0]["run_id"].startswith("soak-")

    def test_strict_envelope_miss_exits_4(self, capsys, tmp_path):
        corpus = write_corpus(tmp_path, IMPOSSIBLE)
        code, out = run_cli(capsys, [
            "soak", "--file", corpus, "--scenarios", "t_impossible",
            "--no-history", "--strict",
        ])
        assert code == 4
        assert "FAIL" in out

    def test_soak_report_and_obs_report(self, capsys, tmp_path):
        corpus = write_corpus(tmp_path, TINY, IMPOSSIBLE)
        doc = tmp_path / "soak.json"
        report = tmp_path / "soak.md"
        code, _ = run_cli(capsys, [
            "soak", "--file", corpus, "--no-history",
            "--scenarios", "t_tiny", "t_impossible",
            "--out", str(doc), "--report", str(report),
        ])
        assert code == 0  # not strict: misses reported, not fatal
        data = json.loads(doc.read_text())
        assert data["soak_schema_version"] == 1
        assert data["summary"] == {
            "total": 2, "passed": 1, "failed": 1, "trend_flags": 0,
        }
        md = report.read_text()
        assert "## Envelope misses" in md and "t_impossible" in md
        # obs-report auto-detects the soak document.
        code, out = run_cli(capsys, ["obs-report", str(doc), "--markdown"])
        assert code == 0
        assert "t_tiny" in out and "Envelope misses" in out

    def test_unknown_scenario_exits_3(self, capsys):
        code, out = run_cli(capsys, [
            "soak", "--scenarios", "no_such_thing", "--no-history",
        ])
        assert code == 3


class TestHistoryCli:
    @staticmethod
    def seed_store(tmp_path, regress=False):
        store = HistoryStore(str(tmp_path / "hist"))
        for _ in range(4):
            rec = make_record("geom_csi_030cm",
                              {"ber": 0.02, "throughput_bps": 180.0},
                              trial_scale=1.0)
            rec.update({"git_dirty": False, "hostname": "h"})
            store.append(rec)
        last = make_record(
            "geom_csi_030cm",
            {"ber": 0.08 if regress else 0.02, "throughput_bps": 180.0},
            trial_scale=1.0,
            dominant_label="fault_window_overlap" if regress else None,
        )
        last.update({"git_dirty": False, "hostname": "h"})
        store.append(last)
        return store

    def test_check_clean_exits_0(self, capsys, tmp_path):
        store = self.seed_store(tmp_path, regress=False)
        code, out = run_cli(capsys, ["history", "--check",
                                     "--dir", store.directory])
        assert code == 0

    def test_check_regression_exits_5(self, capsys, tmp_path):
        store = self.seed_store(tmp_path, regress=True)
        code, out = run_cli(capsys, ["history", "--check",
                                     "--dir", store.directory])
        assert code == 5
        assert "geom_csi_030cm" in out and "ber" in out
        assert "fault_window_overlap" in out

    def test_show_history(self, capsys, tmp_path):
        store = self.seed_store(tmp_path)
        code, out = run_cli(capsys, ["history", "geom_csi_030cm",
                                     "--dir", store.directory])
        assert code == 0
        assert "geom_csi_030cm" in out

    def test_unknown_scenario_exits_3(self, capsys, tmp_path):
        store = self.seed_store(tmp_path)
        code, out = run_cli(capsys, ["history", "nope",
                                     "--dir", store.directory])
        assert code == 3
