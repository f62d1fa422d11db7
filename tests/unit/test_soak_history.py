"""Cross-run history store and EWMA trend detection."""

import json
import os
from datetime import datetime, timedelta, timezone

import pytest

from repro.errors import ConfigurationError
from repro.obs.soak import (
    HistoryStore,
    TrendFlag,
    check_store,
    corrupt_line_counts,
    detect_trends,
    make_record,
)
from repro.obs.soak.history import (
    HIGHER_BETTER,
    LOWER_BETTER,
    TREND_SPECS,
    default_history_dir,
    repo_root,
    utc_timestamp,
)


def record(scenario="geom_csi_030cm", ber=0.02, throughput=180.0,
           latency=0.05, **overrides):
    rec = make_record(
        scenario,
        {"ber": ber, "throughput_bps": throughput, "latency_s": latency},
        seed=0,
        trial_scale=1.0,
        passed=True,
        dominant_label="low_margin_slice",
    )
    # Pin the environment keys so tests don't depend on the checkout
    # state of the machine running them.
    rec.update({"git_dirty": False, "hostname": "testhost"})
    rec.update(overrides)
    return rec


class TestRepoRoot:
    def test_finds_pyproject_ancestor(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert repo_root(str(nested)) == str(tmp_path)

    def test_falls_back_to_start(self, tmp_path):
        nested = tmp_path / "no" / "project"
        nested.mkdir(parents=True)
        root = repo_root(str(nested))
        # No pyproject anywhere up the tmp tree (or it found a real
        # one above); either way the result is an existing directory.
        assert os.path.isdir(root)

    def test_defaults_to_the_working_directory(self, tmp_path,
                                               monkeypatch):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        assert repo_root() == str(tmp_path)

    def test_default_store_sits_under_the_repo_root(self, tmp_path,
                                                    monkeypatch):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        monkeypatch.chdir(tmp_path)
        expected = str(tmp_path / "benchmarks" / "history")
        assert default_history_dir() == expected
        assert HistoryStore().directory == expected


class TestTimestamp:
    def test_utc_timestamp_is_aware_iso8601_utc(self):
        stamp = datetime.fromisoformat(utc_timestamp())
        assert stamp.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - stamp) < timedelta(minutes=1)

    def test_records_carry_a_utc_timestamp(self):
        rec = make_record("s", {"ber": 0.0})
        assert datetime.fromisoformat(rec["timestamp"]).utcoffset() == \
            timedelta(0)


class TestStore:
    def test_append_and_load(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        path = store.append(record(ber=0.01))
        store.append(record(ber=0.02))
        loaded = store.load("geom_csi_030cm")
        assert [r["metrics"]["ber"] for r in loaded] == [0.01, 0.02]
        assert path.endswith("geom_csi_030cm.jsonl")
        assert store.scenarios() == ["geom_csi_030cm"]

    def test_record_shape(self):
        rec = make_record("s_a", {"ber": 0.1}, seed=3, trial_scale=0.5)
        assert rec["schema_version"] == 1
        assert rec["scenario"] == "s_a"
        assert rec["seed"] == 3 and rec["trial_scale"] == 0.5
        for key in ("commit", "git_dirty", "hostname", "timestamp"):
            assert key in rec
        json.dumps(rec)  # must be JSON-safe

    def test_append_requires_scenario(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        with pytest.raises(ConfigurationError):
            store.append({"metrics": {"ber": 0.1}})

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        store.append(record(ber=0.01))
        with open(store.path_for("geom_csi_030cm"), "a") as fh:
            fh.write("{truncated by a crash\n")
            fh.write("[1, 2, 3]\n")
        store.append(record(ber=0.02))
        records, bad = store.load_with_errors("geom_csi_030cm")
        assert len(records) == 2
        assert bad == 2

    def test_missing_file_is_empty(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        assert store.load("never_ran") == []
        assert store.scenarios() == []

    def test_corrupt_line_counts_surfaces_only_dirty_scenarios(
        self, tmp_path
    ):
        store = HistoryStore(str(tmp_path))
        store.append(record(ber=0.01))                    # clean scenario
        store.append(record(scenario="s_dirty", ber=0.02))
        with open(store.path_for("s_dirty"), "a") as fh:
            fh.write("{torn append\n")
        assert corrupt_line_counts(store) == {"s_dirty": 1}

    def test_corrupt_line_counts_respects_scenario_filter(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        for name in ("s_a", "s_b"):
            store.append(record(scenario=name))
            with open(store.path_for(name), "a") as fh:
                fh.write("not json\n")
        assert corrupt_line_counts(store, scenarios=["s_a"]) == {"s_a": 1}
        assert corrupt_line_counts(store) == {"s_a": 1, "s_b": 1}

    def test_corrupt_line_counts_empty_store(self, tmp_path):
        assert corrupt_line_counts(HistoryStore(str(tmp_path))) == {}


class TestTrendDetection:
    def test_synthetic_regression_flags_scenario_and_metric(self):
        # Acceptance criterion: 4 clean records, then one with tripled
        # BER and halved goodput -> exactly those two metrics flag, with
        # the right scenario name and root-cause label attached.
        history = [record(ber=0.02, throughput=180.0) for _ in range(4)]
        history.append(record(ber=0.06, throughput=90.0,
                              dominant_label="fault_window_overlap"))
        flags = detect_trends(history)
        flagged = {(f.scenario, f.metric) for f in flags}
        assert flagged == {
            ("geom_csi_030cm", "ber"),
            ("geom_csi_030cm", "throughput_bps"),
        }
        assert all(f.dominant_label == "fault_window_overlap"
                   for f in flags)

    def test_thin_history_never_flags(self):
        history = [record(ber=0.02), record(ber=0.02), record(ber=0.9)]
        # Only 2 baseline points < MIN_HISTORY=3: no verdict.
        assert detect_trends(history) == []

    def test_improvement_not_flagged(self):
        history = [record(ber=0.05, throughput=100.0) for _ in range(4)]
        history.append(record(ber=0.001, throughput=400.0))
        assert detect_trends(history) == []

    def test_within_band_not_flagged(self):
        history = [record(ber=0.020) for _ in range(4)]
        history.append(record(ber=0.024))  # < ewma * 1.25 + 0.002
        assert detect_trends(history) == []

    def test_dirty_records_excluded_from_baseline(self):
        history = [record(ber=0.02), record(ber=0.02)]
        # Dirty-checkout garbage must not poison (or pad) the baseline.
        history += [record(ber=0.5, git_dirty=True) for _ in range(3)]
        history.append(record(ber=0.5))
        assert detect_trends(history) == []  # only 2 clean points

    def test_trial_scale_mismatch_excluded(self):
        history = [record(ber=0.02, trial_scale=0.25) for _ in range(4)]
        history.append(record(ber=0.5, trial_scale=1.0))
        assert detect_trends(history) == []

    def test_wall_clock_metric_requires_same_host(self):
        history = [record(latency=0.01, hostname="ci-runner")
                   for _ in range(4)]
        history.append(record(latency=10.0, hostname="laptop"))
        flags = detect_trends(history)
        # Latency can't be compared cross-host; ber/throughput are
        # unchanged, so nothing flags.
        assert flags == []

    def test_latency_regression_same_host(self):
        history = [record(latency=0.01) for _ in range(4)]
        history.append(record(latency=0.10))  # > ewma * 2 + 0.01
        flags = detect_trends(history)
        assert [f.metric for f in flags] == ["latency_s"]
        assert flags[0].direction == "lower_better"

    def test_flag_is_json_safe(self):
        flag = TrendFlag(
            scenario="s", metric="ber", direction="lower_better",
            ewma=0.02, measured=0.06, limit=0.027, window=4,
            dominant_label=None,
        )
        json.dumps(flag.to_dict())
        assert flag.delta_fraction == pytest.approx(2.0)

    def test_check_store_end_to_end(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        for _ in range(4):
            store.append(record(ber=0.02))
        store.append(record(ber=0.08))
        for _ in range(5):
            store.append(record(scenario="rssi_near_015cm", ber=0.05))
        flags = check_store(store)
        assert [(f.scenario, f.metric) for f in flags] == [
            ("geom_csi_030cm", "ber"),
        ]
        assert check_store(store, ["rssi_near_015cm"]) == []


def spec(direction, rtol, atol=0.0):
    """A one-metric trend spec on metric ``x``."""
    return {"x": {"direction": direction, "rtol": rtol, "atol": atol,
                  "wall_clock": False}}


def series(*values):
    """Clean same-host records whose only metric is ``x``."""
    return [record(metrics={"x": v}) for v in values]


class TestTrendBands:
    """Direction-aware band edges of :func:`detect_trends`."""

    def test_default_specs_name_a_direction_each(self):
        assert TREND_SPECS["ber"]["direction"] == LOWER_BETTER
        assert TREND_SPECS["latency_s"]["direction"] == LOWER_BETTER
        assert TREND_SPECS["throughput_bps"]["direction"] == HIGHER_BETTER
        assert {s["direction"] for s in TREND_SPECS.values()} == {
            HIGHER_BETTER, LOWER_BETTER,
        }

    def test_higher_better_flags_only_a_drop_past_the_band(self):
        specs = spec(HIGHER_BETTER, rtol=0.20)
        assert detect_trends(series(100, 100, 100, 85), specs) == []
        assert detect_trends(series(100, 100, 100, 400), specs) == []
        [flag] = detect_trends(series(100, 100, 100, 70), specs)
        assert flag.direction == HIGHER_BETTER
        assert flag.limit == pytest.approx(80.0)

    def test_lower_better_flags_only_a_rise_past_the_band(self):
        specs = spec(LOWER_BETTER, rtol=0.10)
        assert detect_trends(series(0.01, 0.01, 0.01, 0.0105), specs) == []
        assert detect_trends(series(0.01, 0.01, 0.01, 0.0), specs) == []
        [flag] = detect_trends(series(0.01, 0.01, 0.01, 0.02), specs)
        assert flag.direction == LOWER_BETTER
        assert flag.limit == pytest.approx(0.011)

    def test_zero_ber_baseline_uses_the_absolute_slack(self):
        # A clean link's BER baseline is 0: only ``atol`` (0.002)
        # separates noise from a regression.
        history = [record(ber=0.0) for _ in range(4)]
        assert detect_trends(history + [record(ber=0.0015)]) == []
        flags = detect_trends(history + [record(ber=0.003)])
        assert [f.metric for f in flags] == ["ber"]
        assert flags[0].limit == pytest.approx(0.002)

    def test_zero_baseline_without_atol_flags_any_rise(self):
        specs = spec(LOWER_BETTER, rtol=0.10)
        [flag] = detect_trends(series(0.0, 0.0, 0.0, 0.001), specs)
        assert flag.ewma == 0.0

    def test_metrics_missing_from_latest_or_specs_are_skipped(self):
        history = [record(ber=0.02) for _ in range(4)]
        latest = record(metrics={"throughput_bps": 180.0, "other": 1e9})
        assert detect_trends(history + [latest]) == []

    def test_baseline_is_an_ewma_over_the_window(self):
        # alpha 0.3 over (0.02, 0.02, 0.02, 0.10): the newest baseline
        # point weighs 0.3, so the EWMA is 0.044 (a plain mean: 0.04).
        [flag] = detect_trends(series(0.02, 0.02, 0.02, 0.10, 0.08),
                               spec(LOWER_BETTER, rtol=0.25))
        assert flag.ewma == pytest.approx(0.044)
        assert flag.window == 4
        assert flag.limit == pytest.approx(0.055)
