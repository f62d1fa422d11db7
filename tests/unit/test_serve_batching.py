"""Gateway micro-batching: coalescing, accounting, span annotation.

With ``batch_max`` set the gateway coalesces queued requests into one
``ServeBatchTask`` per dispatch.  The contract: delivered payloads
are identical to the per-request path, shed/deadline accounting is
untouched, every dispatch span carries the batch annotation, and the
report's batch aggregates describe what actually shipped.
"""

import pytest

from repro import obs
from repro.obs import state as obs_state
from repro.serve import ServeConfig, run_serve
from repro.serve.request import SPAN_DISPATCH, SPAN_REQUEST

BASE = dict(
    duration_s=8.0,
    offered_load_rps=4.0,
    burst_load_rps=12.5,
    burst_start_s=2.0,
    burst_end_s=6.0,
    deadline_ms=2500.0,
    queue_capacity=12,
    batch=4,
    payload_bits=8,
    bit_rate_bps=50.0,
)

SEED = 2014


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def run_with(**overrides):
    return run_serve(ServeConfig(**{**BASE, **overrides}), seed=SEED)


class TestCoalescingEquivalence:
    def test_batched_delivers_identical_payloads(self):
        plain = run_with()
        batched = run_with(batch_max=BASE["batch"], batch_window_s=0.0)
        assert batched.delivered_payloads() == plain.delivered_payloads()

    def test_batched_accounting_untouched(self):
        plain = run_with()
        batched = run_with(batch_max=BASE["batch"], batch_window_s=0.0)
        for field in ("arrivals", "delivered", "decode_failed", "shed",
                      "deadline_abandoned", "worker_lost"):
            assert getattr(batched.report, field) == \
                getattr(plain.report, field), field
        assert batched.report.shed_by_reason == plain.report.shed_by_reason

    def test_conservation_law_holds_while_batching(self):
        batched = run_with(batch_max=16, batch_window_s=0.2)
        report = batched.report
        assert report.accounted == report.arrivals

    def test_replay_is_deterministic(self):
        a = run_with(batch_max=8, batch_window_s=0.1)
        b = run_with(batch_max=8, batch_window_s=0.1)
        assert a.delivered_payloads() == b.delivered_payloads()
        assert a.report.batches == b.report.batches
        assert a.report.batch_size_mean == b.report.batch_size_mean


class TestBatchFormation:
    def test_window_grows_batches(self):
        eager = run_with(batch_max=16, batch_window_s=0.0)
        patient = run_with(batch_max=16, batch_window_s=0.3)
        assert patient.report.batch_size_mean > \
            eager.report.batch_size_mean
        assert patient.report.batches < eager.report.batches

    def test_batch_max_caps_size(self):
        result = run_with(batch_max=3, batch_window_s=0.5)
        assert 0 < result.report.batch_size_max <= 3

    def test_report_aggregates_consistent(self):
        result = run_with(batch_max=8, batch_window_s=0.1)
        report = result.report
        assert report.batches > 0
        assert 1.0 <= report.batch_size_mean <= report.batch_size_max
        d = report.to_dict()
        assert d["batches"] == report.batches
        assert d["batch_size_max"] == report.batch_size_max
        assert d["batch_size_mean"] == report.batch_size_mean

    def test_per_request_path_reports_no_batches(self):
        result = run_with()
        assert result.report.batches == 0
        assert result.report.batch_size_max == 0
        assert result.report.batch_size_mean == 0.0


class TestSpanAnnotation:
    def _dispatch_spans(self, **overrides):
        cfg = ServeConfig(**{**BASE, **overrides})
        with obs_state.session(metrics=True, tracing=True):
            result = run_serve(cfg, seed=SEED)
            roots = [r.to_dict() for r in obs_state.get_tracer().roots
                     if r.name == SPAN_REQUEST]
        dispatches = []
        for root in roots:
            for child in root["children"]:
                if child["name"] == SPAN_DISPATCH:
                    dispatches.append(child["attributes"])
        return result, dispatches

    def test_batching_annotates_every_dispatch(self):
        result, dispatches = self._dispatch_spans(
            batch_max=8, batch_window_s=0.1
        )
        assert dispatches
        sizes_by_id = {}
        for attrs in dispatches:
            assert "batch_id" in attrs
            assert attrs["batch_size"] >= 1
            sizes_by_id.setdefault(attrs["batch_id"], set()).add(
                attrs["batch_size"]
            )
        # Every member of a micro-batch agrees on its size, and the
        # number of distinct ids matches the report.
        assert all(len(sizes) == 1 for sizes in sizes_by_id.values())
        assert len(sizes_by_id) == result.report.batches

    def test_per_request_path_has_no_batch_id(self):
        _, dispatches = self._dispatch_spans()
        assert dispatches
        assert all("batch_id" not in attrs for attrs in dispatches)


class TestPooledBatching:
    def test_workers0_equals_workers2(self):
        from repro.sim.engine import shutdown_pool

        try:
            inline = run_with(batch_max=8, batch_window_s=0.1, workers=0)
            pooled = run_with(batch_max=8, batch_window_s=0.1, workers=2)
        finally:
            shutdown_pool()
        assert inline.delivered_payloads() == pooled.delivered_payloads()
        assert inline.report.batches == pooled.report.batches
