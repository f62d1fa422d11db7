"""Serve-path fleet telemetry: wiring, outlier surfacing, determinism.

The contract: every settled request folds into the fleet aggregator,
a physically sabotaged tag surfaces on the top-K offender boards and
as an anomaly transition, the `fleet` block rides the report / the
telemetry stream / the --health-out artifact consistently, and the
whole serialized fleet state is **byte-identical** between workers=0
and workers=2 — including under crash/stall fault plans that kill
real pool workers mid-decode.
"""

import json

import pytest

from repro import obs
from repro.faults import parse_fault_spec
from repro.obs.export import dumps_line
from repro.obs.fleet import FLEET_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, run_serve
from repro.serve.telemetry import read_telemetry
from repro.sim import engine

SEED = 11

#: A saturated gateway serving 64 tag addresses with one sabotaged tag
#: (address 7 decoding at a hostile 2.4 m), through a fleet registry
#: smaller than the tag population so the LRU eviction path is always
#: hot (also a golden case in test_golden_synthesis.py).
FLEET_TELEMETRY_CONFIG = {
    "duration_s": 12.0,
    "offered_load_rps": 20.0,
    "deadline_ms": 2500.0,
    "queue_capacity": 24,
    "batch": 4,
    "workers": 0,
    "n_tags": 64,
    "payload_bits": 8,
    "packets_per_bit": 6.0,
    "bit_rate_bps": 200.0,   # 25 rps capacity: decodes, not sheds, dominate
    "fleet_capacity": 16,
    "fleet_top_k": 8,
    "fleet_min_requests": 2,
    "outlier_tags": (7,),
    "outlier_distance_m": 2.4,
}

#: That shape, shortened: 20 rps offered on 25 rps decode capacity,
#: full population tracked so the anomaly accrues without LRU churn.
FLEET_RUN = dict(
    FLEET_TELEMETRY_CONFIG,
    duration_s=10.0,
    fleet_capacity=64,
)

FAULT_SPEC = "worker_crash:prob=0.12;worker_stall:prob=0.08,stall=0.6"


@pytest.fixture(scope="module")
def fleet_pair(tmp_path_factory):
    """The same fleet run, inline and on a real 2-worker pool."""
    obs.disable()
    obs.reset()
    base = tmp_path_factory.mktemp("fleet")

    def run_with(workers):
        tele = str(base / f"tele-{workers}.jsonl")
        health = str(base / f"health-{workers}.json")
        result = run_serve(
            ServeConfig(**FLEET_RUN), seed=SEED, workers=workers,
            telemetry_out=tele, health_out=health,
        )
        return result, tele, health

    inline = run_with(0)
    pooled = run_with(2)
    engine.shutdown_pool()
    return inline, pooled


class TestFleetBlock:
    def test_report_carries_the_fleet_summary(self, fleet_pair):
        (result, _, health_path), _ = fleet_pair
        fleet = result.report.fleet
        assert fleet["outcomes"] == len(result.outcomes)
        assert fleet["tags_seen"] == fleet["tracked"] + fleet["evictions"]
        assert fleet["latency"]["count"] == result.report.delivered
        assert result.report.health_path == health_path

    def test_sabotaged_tag_tops_the_offender_boards(self, fleet_pair):
        (result, _, _), _ = fleet_pair
        offenders = result.report.fleet["offenders"]
        assert set(offenders) == {"shed", "failure", "error_bits",
                                  "latency"}
        # At 2.4 m the CSI decode still delivers, but with bit
        # errors — the outlier owns the error_bits board.
        error_keys = [e["key"] for e in offenders["error_bits"]]
        assert error_keys and error_keys[0] == "7"

    def test_sabotaged_tag_flags_anomalous(self, fleet_pair):
        (result, tele, _), _ = fleet_pair
        _, snapshots, _ = read_telemetry(tele)
        transitions = [
            tr for snap in snapshots
            for tr in (snap.get("fleet") or {}).get("transitions", [])
        ]
        assert any(
            tr["tag"] == 7 and tr["kind"] == "anomalous"
            for tr in transitions
        )
        assert result.report.fleet["transitions_total"] == len(transitions)

    def test_snapshots_carry_growing_fleet_blocks(self, fleet_pair):
        (_, tele, _), _ = fleet_pair
        _, snapshots, _ = read_telemetry(tele)
        counts = [s["fleet"]["outcomes"] for s in snapshots]
        assert counts == sorted(counts)
        for snap in snapshots:
            block = snap["fleet"]
            assert block["tags_seen"] == \
                block["tracked"] + block["evictions"]

    def test_health_artifact_round_trips(self, fleet_pair):
        (result, _, health_path), _ = fleet_pair
        with open(health_path) as fh:
            artifact = json.load(fh)
        assert artifact["schema"] == FLEET_SCHEMA
        assert artifact["run_id"] == result.report.run_id
        assert artifact["summary"] == obs.jsonable(result.report.fleet)
        payload = artifact["payload"]
        assert payload["outcomes"] == result.report.fleet["outcomes"]
        assert 7 in artifact["summary"]["anomalous"]


@pytest.fixture(scope="module")
def churn_run():
    """The full 64-tag population through the 16-slot fleet registry."""
    obs.disable()
    obs.reset()
    return run_serve(ServeConfig(**FLEET_TELEMETRY_CONFIG), seed=0)


class TestLruChurn:
    def test_tracked_set_is_capped_and_churns(self, churn_run):
        fleet = churn_run.report.fleet
        assert fleet["tracked"] == FLEET_TELEMETRY_CONFIG["fleet_capacity"]
        assert fleet["evictions"] > 0
        assert fleet["tags_seen"] == fleet["tracked"] + fleet["evictions"]

    def test_sabotaged_tag_tops_the_error_board_through_churn(
        self, churn_run
    ):
        # The offender boards outlive LRU eviction from the tracked set.
        board = churn_run.report.fleet["offenders"]["error_bits"]
        assert board and board[0]["key"] == "7"


class TestWorkerDeterminism:
    def test_fleet_summary_byte_identical_across_workers(self, fleet_pair):
        (inline, _, _), (pooled, _, _) = fleet_pair
        assert dumps_line(inline.report.fleet) == \
            dumps_line(pooled.report.fleet)

    def test_health_artifacts_byte_identical_across_workers(
        self, fleet_pair
    ):
        (_, _, health0), (_, _, health2) = fleet_pair
        with open(health0, "rb") as fh:
            blob0 = fh.read()
        with open(health2, "rb") as fh:
            blob2 = fh.read()
        assert blob0 == blob2

    def test_telemetry_fleet_blocks_byte_identical_across_workers(
        self, fleet_pair
    ):
        (_, tele0, _), (_, tele2, _) = fleet_pair
        _, snaps0, _ = read_telemetry(tele0)
        _, snaps2, _ = read_telemetry(tele2)
        assert [dumps_line(s["fleet"]) for s in snaps0] == \
            [dumps_line(s["fleet"]) for s in snaps2]

    def test_byte_identical_under_crash_and_stall_faults(self):
        # Crash/stall injectors kill real pool workers mid-decode; the
        # fleet state must still reduce to the inline bytes.
        obs.disable()
        obs.reset()
        config = ServeConfig(**dict(
            FLEET_RUN, duration_s=6.0, stall_timeout_s=0.2,
            max_attempts=2,
        ))

        def run_with(workers):
            faults = parse_fault_spec(FAULT_SPEC, base_seed=7)
            return run_serve(config, faults=faults, seed=SEED,
                             workers=workers)

        inline = run_with(0)
        pooled = run_with(2)
        engine.shutdown_pool()
        assert inline.report.worker_crashes + \
            pooled.report.worker_crashes > 0
        assert dumps_line(inline.report.fleet) == \
            dumps_line(pooled.report.fleet)


class TestMicroBatchedOutliers:
    def test_batched_run_matches_per_request_run(self, fleet_pair):
        # Micro-batch members carry their own decode tasks, so the
        # sabotaged tag keeps its hostile distance inside a batch.
        (inline, _, _), _ = fleet_pair
        obs.disable()
        obs.reset()
        batched = run_serve(
            ServeConfig(**dict(FLEET_RUN, batch_max=4, batch_window_s=0.0)),
            seed=SEED,
        )
        assert batched.report.batches > 0
        assert batched.delivered_payloads() == inline.delivered_payloads()
        for field in ("arrivals", "delivered", "decode_failed", "shed",
                      "deadline_abandoned", "worker_lost", "shed_by_reason",
                      "delivered_bits", "error_bits"):
            assert getattr(batched.report, field) == \
                getattr(inline.report, field), field
        assert dumps_line(batched.report.fleet) == \
            dumps_line(inline.report.fleet)


def _observe_fleet_task(seed):
    """Worker-side task: records into a histogram sketch.

    The values are dyadic so partial sums associate exactly in float.
    """
    obs.histogram("task.latency").observe(0.25 + (seed % 7) * 0.5)
    return seed


class TestEngineSketchMerge:
    def test_worker_sketch_payloads_merge_to_serial_registry(self):
        # The engine ships each worker's registry payload home and
        # merges in task order; sketch state must land bit-identical
        # to the serial fold (counts/buckets exact; the scalar totals
        # here are sums of identical floats in the same task order).
        from repro.obs import state

        def run(workers):
            obs.reset()
            with state.session(metrics=True, tracing=False):
                engine.run_trials(
                    _observe_fleet_task, list(range(24)),
                    workers=workers,
                )
                return state.get_registry().to_payload()
        serial = run(1)
        pooled = run(4)
        engine.shutdown_pool()
        assert dumps_line(serial) == dumps_line(pooled)
        assert serial["task.latency"]["kind"] == "quantile_sketch"

    def test_registry_payload_round_trip_rebuilds_sketches(self):
        registry = MetricsRegistry()
        registry.histogram("q").observe_many([-0.5, 0.1, 0.5, 2.0])
        rebuilt = MetricsRegistry()
        rebuilt.merge_payload(registry.to_payload())
        assert rebuilt.to_payload() == registry.to_payload()
        assert rebuilt.histogram("q").quantile(0.0) == \
            registry.histogram("q").quantile(0.0) < 0
