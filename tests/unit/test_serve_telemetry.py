"""Telemetry snapshot stream: schema, burn alerts, and crash markers.

Drives the gateway through a 2x overload burst and checks the
operational contract end to end: the JSONL stream parses, a
burn-rate alert fires inside the burst window and clears after
recovery, exemplar correlation IDs resolve against the flight
recorder, and an interrupted stream is stamped as such.
"""

import os
import signal

import pytest

from repro.errors import ConfigurationError
from repro.obs import state as obs_state
from repro.obs.forensics import crash_flush
from repro.obs.report import render_telemetry
from repro.serve import ServeConfig, run_serve
from repro.serve.telemetry import (
    SCHEMA,
    TelemetrySnapshotter,
    read_telemetry,
)

#: The overload shape as ServeConfig kwargs: a 2x overload burst over a
#: 6.25 rps gateway (also a golden case in test_golden_synthesis.py).
SERVE_OVERLOAD_CONFIG = {
    "duration_s": 8.0,
    "offered_load_rps": 4.0,
    "burst_load_rps": 12.5,   # 2x the 6.25 rps decode capacity
    "burst_start_s": 2.0,
    "burst_end_s": 6.0,
    "deadline_ms": 2500.0,
    "queue_capacity": 12,
    "batch": 4,
    "workers": 0,
    "payload_bits": 8,
    "packets_per_bit": 6.0,
    "bit_rate_bps": 50.0,
}


@pytest.fixture
def overload_run(tmp_path):
    """One overload serve run with telemetry + recording enabled."""
    path = str(tmp_path / "telemetry.jsonl")
    cfg = ServeConfig(**SERVE_OVERLOAD_CONFIG)
    with obs_state.session(
        metrics=True, tracing=False, recording=True
    ):
        recorder = obs_state.get_recorder()
        recorder.configure(capacity=4096, policy="tail")
        result = run_serve(cfg, seed=7, telemetry_out=path)
        records = recorder.to_payload()["records"]
    return cfg, result, path, records


class TestStreamFormat:
    def test_stream_parses_with_header_and_end(self, overload_run):
        cfg, result, path, _ = overload_run
        header, snapshots, final = read_telemetry(path)
        assert header["schema"] == SCHEMA
        assert header["run_id"] == result.report.run_id
        assert header["cadence_s"] == cfg.telemetry_cadence_s
        assert final is not None and final["event"] == "end"
        assert final["snapshots"] == len(snapshots)
        assert result.report.telemetry_snapshots == len(snapshots)
        assert result.report.telemetry_path == path

    def test_snapshots_advance_on_the_virtual_cadence(self, overload_run):
        cfg, _, path, _ = overload_run
        _, snapshots, _ = read_telemetry(path)
        times = [s["t_s"] for s in snapshots]
        assert times == sorted(times)
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(
            d == pytest.approx(cfg.telemetry_cadence_s) for d in deltas
        )

    def test_snapshot_fields_cover_serve_health(self, overload_run):
        _, _, path, _ = overload_run
        _, snapshots, _ = read_telemetry(path)
        snap = snapshots[-1]
        for key in (
            "arrivals", "delivered", "shed", "deadline_abandoned",
            "worker_lost", "shed_by_reason", "queue_depth",
            "queue_depth_max", "egress_depth", "breaker", "latency",
            "budget", "alerts", "alerts_active", "exemplars",
        ):
            assert key in snap, key
        assert set(snap["latency"]) == {
            "count", "mean", "p50", "p95", "p99"
        }
        assert snap["budget"][0]["metric"] == "serve.request.ok"

    def test_final_snapshot_accounts_for_everything(self, overload_run):
        _, result, path, _ = overload_run
        _, snapshots, final = read_telemetry(path)
        summary = final["summary"]
        report = result.report
        assert summary["arrivals"] == report.arrivals
        assert summary["delivered"] == report.delivered
        assert summary["shed"] == report.shed
        assert summary["budget_remaining"] == \
            pytest.approx(report.budget_remaining)

    def test_foreign_jsonl_fails_loudly(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"schema": "something/else"}\n{}\n')
        with pytest.raises(ConfigurationError):
            read_telemetry(str(path))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigurationError):
            read_telemetry(str(empty))


class TestBurnAlerts:
    def test_alert_fires_during_burst_and_clears_after(self, overload_run):
        cfg, result, path, _ = overload_run
        _, snapshots, _ = read_telemetry(path)
        transitions = [
            a for snap in snapshots for a in snap["alerts"]
        ]
        fired = [a for a in transitions if a["kind"] == "fired"]
        cleared = [a for a in transitions if a["kind"] == "cleared"]
        assert fired, "overload burst must trip a burn-rate alert"
        assert any(
            cfg.burst_start_s <= a["at_s"] <= cfg.burst_end_s + 1.0
            for a in fired
        )
        assert cleared, "alert must clear once the burst drains"
        assert max(a["at_s"] for a in cleared) > \
            min(a["at_s"] for a in fired)
        # The report carries the same transition log.
        assert result.report.burn_alerts == transitions

    def test_burst_burns_the_budget(self, overload_run):
        _, result, path, _ = overload_run
        _, snapshots, _ = read_telemetry(path)
        first = snapshots[0]["budget"][0]["remaining"]
        last = snapshots[-1]["budget"][0]["remaining"]
        assert first == pytest.approx(1.0)
        assert last < first
        assert result.report.budget_remaining is not None

    def test_alerts_are_informational_not_slo_violations(
        self, overload_run
    ):
        _, result, _, _ = overload_run
        # Point-in-time SLO alerts (exit code 4) stay separate from
        # burn transitions: the latter fire and clear within a run.
        assert result.report.alerts == []
        assert result.report.burn_alerts


class TestExemplarResolution:
    def test_exemplar_corr_ids_resolve_in_flight_recorder(
        self, overload_run
    ):
        _, result, _, records = overload_run
        exemplars = result.report.exemplars
        assert exemplars
        recorded = {
            (r["run_id"], r["trial"]) for r in records
        }
        for ex in exemplars:
            run_id, _, trial = ex["corr_id"].rpartition("/")
            assert (run_id, int(trial)) in recorded, ex["corr_id"]

    def test_snapshot_exemplars_match_report(self, overload_run):
        _, result, path, _ = overload_run
        _, snapshots, _ = read_telemetry(path)
        assert snapshots[-1]["exemplars"] == result.report.exemplars


class TestCrashMarker:
    def test_interrupted_stream_is_stamped(self, tmp_path):
        path = str(tmp_path / "cut.jsonl")
        snap = TelemetrySnapshotter(path, run_id="serve-1", cadence_s=1.0)
        snap.snapshot({"t_s": 1.0})
        snap._crash_flush(True)
        header, snapshots, final = read_telemetry(path)
        assert header["schema"] == SCHEMA
        assert len(snapshots) == 1
        assert final["event"] == "interrupted"
        assert final["snapshots"] == 1
        # A later clean close is a no-op, not a double write.
        assert snap.close() == path

    def test_close_after_crash_flush_restores_sigterm(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        snap = TelemetrySnapshotter(
            str(tmp_path / "cut.jsonl"), run_id="serve-1", cadence_s=1.0
        )
        assert signal.getsignal(signal.SIGTERM) is crash_flush._on_sigterm
        snap._crash_flush(True)
        snap.close()
        assert signal.getsignal(signal.SIGTERM) == before

    def test_clean_close_writes_end_once(self, tmp_path):
        path = str(tmp_path / "clean.jsonl")
        snap = TelemetrySnapshotter(
            path, run_id="serve-1", cadence_s=0.5, meta={"seed": 1}
        )
        snap.snapshot({"t_s": 0.5})
        snap.close(summary={"delivered": 1})
        snap.close(summary={"delivered": 2})
        header, snapshots, final = read_telemetry(path)
        assert header["seed"] == 1
        assert final["event"] == "end"
        assert final["summary"] == {"delivered": 1}

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TelemetrySnapshotter(
                str(tmp_path / "x.jsonl"), run_id="r", cadence_s=0.0
            )


class TestRendering:
    def test_render_telemetry_has_health_sections(self, overload_run):
        _, _, path, _ = overload_run
        header, snapshots, final = read_telemetry(path)
        text = render_telemetry(header, snapshots, final)
        assert "serve telemetry stream" in text
        assert "serve health" in text
        assert "burn-rate transitions" in text
        assert "final summary" in text

    def test_render_handles_truncated_stream(self):
        text = render_telemetry(
            {"run_id": "serve-0", "cadence_s": 1.0, "seed": 0}, [], None
        )
        assert "truncated" in text


class TestOverloadShape:
    """The 2x burst sheds part of the load, reproducibly per seed."""

    def test_burst_sheds_some_but_not_all(self):
        report = run_serve(ServeConfig(**SERVE_OVERLOAD_CONFIG), seed=0).report
        assert 0 < report.shed < report.arrivals
        assert report.delivered > 0
        assert set(report.shed_by_reason) == {"queue_full"}
        assert report.queue_depth_max == \
            SERVE_OVERLOAD_CONFIG["queue_capacity"]

    def test_outcome_counts_and_p99_are_seed_stable(self):
        cfg = ServeConfig(**SERVE_OVERLOAD_CONFIG)
        a, b = (run_serve(cfg, seed=3).report for _ in range(2))
        assert (a.shed, a.delivered, a.latency_p99_s) == \
            (b.shed, b.delivered, b.latency_p99_s)
