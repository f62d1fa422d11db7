"""Parallel trial engine: deterministic fan-out + worker obs merging.

The contract under test (see docs/performance.md): the per-trial
``SeedSequence`` decomposition depends only on the task parameters,
never on the worker count, so every driver must produce bit-identical
results at ``workers=1`` and ``workers=N`` — including under a fault
plan, whose injectors are re-seeded per trial the same way.
"""

from collections import Counter

import numpy as np
import pytest

from repro.faults import parse_fault_spec
from repro.obs import state
from repro.obs.fleet.sketch import DEFAULT_ALPHA
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf.timeseries import TimeSeries
from repro.obs.tracing import Tracer, span
from repro.sim import engine
from repro.sim.link import (
    run_arq_uplink,
    run_correlation_trial,
    run_downlink_ber,
    run_uplink_ber,
)

WORKERS = 4


@pytest.fixture(scope="module", autouse=True)
def shared_pool():
    # One pool for the whole module keeps fork cost off each test; torn
    # down at the end so the suite leaves no worker processes behind.
    engine.warm_pool(WORKERS)
    yield
    engine.shutdown_pool()


def _square(x):
    return x * x


class TestSeedFanOut:
    def test_spawn_seeds_is_pure(self):
        a = engine.spawn_seeds(42, 4)
        b = engine.spawn_seeds(42, 4)
        assert [s.generate_state(4).tolist() for s in a] == [
            s.generate_state(4).tolist() for s in b
        ]

    def test_spawn_seeds_children_differ(self):
        states = {
            tuple(s.generate_state(4).tolist())
            for s in engine.spawn_seeds(42, 8)
        }
        assert len(states) == 8

    def test_derive_entropy_consumes_exactly_one_draw(self):
        observed = np.random.default_rng(7)
        reference = np.random.default_rng(7)
        engine.derive_entropy(observed)
        reference.integers(0, 2**63)
        assert observed.integers(0, 1000) == reference.integers(0, 1000)


class TestRunTrials:
    def test_empty_tasks(self):
        assert engine.run_trials(_square, [], workers=WORKERS) == []

    def test_results_come_back_in_task_order(self):
        tasks = list(range(20))
        assert engine.run_trials(_square, tasks, workers=WORKERS) == [
            x * x for x in tasks
        ]

    def test_workers_one_never_builds_a_pool(self):
        assert engine.ensure_pool(1) is None
        assert engine.ensure_pool(0) is None

    def test_warm_pool_keeps_a_pool_of_the_same_size(self):
        # The module fixture warmed a WORKERS-process pool; warming
        # again at that size reuses it instead of re-forking.
        pool = engine.ensure_pool(WORKERS)
        assert engine.warm_pool(WORKERS)
        assert engine.ensure_pool(WORKERS) is pool

    def test_warm_pool_without_fan_out_builds_nothing(self):
        assert engine.warm_pool(1) is False
        assert engine.warm_pool(0) is False

    def test_task_exception_propagates(self):
        with pytest.raises(TypeError):
            engine.run_trials(_square, [None], workers=WORKERS)


class TestDriverDeterminism:
    """workers=1 and workers=N must be bit-identical per driver."""

    def test_uplink_ber(self):
        a = run_uplink_ber(0.45, 6, repeats=8, seed=123, workers=1)
        b = run_uplink_ber(0.45, 6, repeats=8, seed=123, workers=WORKERS)
        assert (a.errors, a.total_bits) == (b.errors, b.total_bits)

    def test_uplink_ber_under_fault_plan(self):
        def run(workers):
            faults = parse_fault_spec(
                "outage:duty=0.3,burst=0.4", base_seed=5
            )
            return run_uplink_ber(
                0.45, 6, repeats=6, seed=9, faults=faults, workers=workers
            )

        a, b = run(1), run(WORKERS)
        assert (a.errors, a.total_bits) == (b.errors, b.total_bits)

    def test_correlation_trial_seed_path(self):
        a = run_correlation_trial(1.5, 16, num_bits=8, seed=21, workers=1)
        b = run_correlation_trial(
            1.5, 16, num_bits=8, seed=21, workers=WORKERS
        )
        assert a.errors == b.errors
        assert a.decoded_bits.tolist() == b.decoded_bits.tolist()

    def test_correlation_trial_rng_path(self):
        a = run_correlation_trial(
            1.5, 16, num_bits=8, rng=np.random.default_rng(9), workers=1
        )
        b = run_correlation_trial(
            1.5, 16, num_bits=8, rng=np.random.default_rng(9),
            workers=WORKERS,
        )
        assert a.errors == b.errors
        assert a.decoded_bits.tolist() == b.decoded_bits.tolist()

    def test_downlink_ber(self):
        # 120k bits spans multiple chunks, so the parallel path really
        # fans out instead of degenerating to one task.
        a = run_downlink_ber(2.5, 50e-6, num_bits=120_000, seed=5, workers=1)
        b = run_downlink_ber(
            2.5, 50e-6, num_bits=120_000, seed=5, workers=WORKERS
        )
        assert (a.errors, a.total_bits) == (b.errors, b.total_bits)

    def test_downlink_ber_under_fault_plan(self):
        def run(workers):
            faults = parse_fault_spec(
                "brownout:duty=0.2,burst=0.3", base_seed=7
            )
            return run_downlink_ber(
                2.5, 50e-6, num_bits=120_000, seed=5, faults=faults,
                workers=workers,
            )

        a, b = run(1), run(WORKERS)
        assert (a.errors, a.total_bits) == (b.errors, b.total_bits)

    def test_arq_sharded_session_is_sane(self):
        # The ARQ virtual clock is inherently sequential, so workers>1
        # shards frames into per-worker clock budgets: statistically
        # equivalent, documented as NOT bit-identical to serial.
        result = run_arq_uplink(
            0.3, num_frames=4, payload_len=8, bit_rate_bps=1000.0,
            packets_per_bit=6.0, max_attempts=2, seed=3, workers=2,
        )
        assert result.frames == 4
        assert 0 <= result.delivered <= 4
        assert result.elapsed_s > 0

    def test_arq_parallel_is_seed_stable(self):
        a = run_arq_uplink(
            0.3, num_frames=4, payload_len=8, bit_rate_bps=1000.0,
            packets_per_bit=6.0, max_attempts=2, seed=3, workers=2,
        )
        b = run_arq_uplink(
            0.3, num_frames=4, payload_len=8, bit_rate_bps=1000.0,
            packets_per_bit=6.0, max_attempts=2, seed=3, workers=2,
        )
        assert (a.delivered, a.correct, a.elapsed_s) == (
            b.delivered, b.correct, b.elapsed_s
        )


class TestWorkerObsMerge:
    """Aggregate observability must survive the process boundary."""

    def _merged_metrics(self, workers):
        """Counter values, and histogram payloads minus ``total``."""
        with state.session(metrics=True, tracing=False):
            run_uplink_ber(0.45, 6, repeats=6, seed=11, workers=workers)
            payload = state.get_registry().to_payload()
        counters = {
            name: entry["value"]
            for name, entry in payload.items()
            if entry["kind"] == "counter"
        }
        # A histogram's running total is summed per task, so only it
        # may differ from the serial sum (in the last bit).
        histograms = {
            name: {k: v for k, v in entry.items() if k != "total"}
            for name, entry in payload.items()
            if entry["kind"] == "quantile_sketch"
        }
        return counters, histograms

    def test_counters_match_serial(self):
        serial, serial_hist = self._merged_metrics(1)
        parallel, parallel_hist = self._merged_metrics(WORKERS)
        assert serial and serial == parallel
        assert "uplink.slicer.margin" in serial_hist
        assert serial_hist == parallel_hist

    def test_span_trees_cross_the_boundary(self):
        with state.session(metrics=False, tracing=True):
            run_uplink_ber(0.45, 6, repeats=4, seed=11, workers=WORKERS)
            table = state.get_tracer().aggregate()
        assert table["uplink.trial"]["calls"] == 4
        assert table["uplink.decode.condition"]["calls"] == 4

    @staticmethod
    def _span_names(workers):
        def walk(sp):
            yield sp.name
            for child in sp.children:
                yield from walk(child)

        with state.session(metrics=False, tracing=True):
            run_uplink_ber(0.3, 12.0, repeats=4, num_payload_bits=45,
                           seed=1, workers=workers)
            roots = state.get_tracer().roots
            return Counter(n for root in roots for n in walk(root))

    def test_pool_forked_inside_a_span_ships_worker_spans(self):
        # The pool forks lazily inside the driver's open span, so each
        # worker starts with a copy of it as its current span.
        serial = self._span_names(1)
        engine.shutdown_pool()
        try:
            pooled = self._span_names(2)
        finally:
            engine.shutdown_pool()
        assert serial["uplink.trial"] == 4
        assert pooled == serial


class TestPayloadRoundTrips:
    def test_registry_round_trip(self):
        src = MetricsRegistry()
        src.counter("c").inc(3)
        src.gauge("g").set(2.5)
        src.histogram("h").observe_many([1.0, 2.0, 3.0])
        src.timeseries("ts").sample(1.0)
        src.timeseries("ts").sample(5.0)
        dst = MetricsRegistry()
        dst.counter("c").inc(1)
        dst.merge_payload(src.to_payload())
        assert dst.counter("c").value == 4
        assert dst.gauge("g").value == 2.5
        assert dst.histogram("h").count == 3
        assert dst.histogram("h").percentile(100) == pytest.approx(
            3.0, rel=DEFAULT_ALPHA
        )
        assert dst.timeseries("ts").stats()["count"] == 2
        assert dst.timeseries("ts").stats()["max"] == 5.0

    def test_gauge_merge_ignores_unwritten_worker_gauge(self):
        src = MetricsRegistry()
        src.gauge("g")  # registered but never set
        dst = MetricsRegistry()
        dst.gauge("g").set(7.0)
        dst.merge_payload(src.to_payload())
        assert dst.gauge("g").value == 7.0

    def test_timeseries_ring_eviction_keeps_lifetime_count(self):
        src = TimeSeries("ts", capacity=4)
        for i in range(10):
            src.sample(float(i))
        dst = TimeSeries("ts", capacity=4)
        dst.merge_payload(src.to_payload())
        assert dst.count == 10  # lifetime count survives ring eviction
        stats = dst.stats()
        assert stats["count"] == 4  # only the retained window merged
        assert stats["max"] == 9.0

    def test_tracer_absorb_rebuilds_nesting(self):
        dst = Tracer()
        dst.absorb([
            {
                "name": "outer",
                "duration_s": 2.0,
                "attributes": {"k": 1},
                "error": None,
                "children": [
                    {"name": "inner", "duration_s": 0.5, "attributes": {},
                     "error": "ValueError", "children": []},
                ],
            }
        ])
        assert dst.started == 2
        table = dst.aggregate()
        assert table["outer"]["total_s"] == 2.0
        assert table["outer"]["self_s"] == 1.5
        assert table["inner"]["calls"] == 1
        assert dst.roots[0].children[0].error == "ValueError"

    def test_tracer_absorb_grafts_under_the_open_span(self):
        tree = {"name": "trial", "duration_s": 1.0, "attributes": {},
                "error": None, "children": []}
        with state.session(metrics=False, tracing=True) as (_, dst):
            with span("driver"):
                dst.absorb([tree])
        assert [root.name for root in dst.roots] == ["driver"]
        assert [c.name for c in dst.roots[0].children] == ["trial"]
        assert dst.started == 2
