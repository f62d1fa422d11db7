"""Unit tests for the serve package building blocks.

Covers the bounded priority queue's shed-ordering contract, deadline
budget arithmetic, arrival-schedule determinism, the per-tag circuit
breaker, and serve-config validation — everything below the full
gateway loop (which the chaos suite exercises under load).
"""

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    ARRIVAL_PROFILES,
    BoundedPriorityQueue,
    DeadlineBudget,
    DecodeRequest,
    PRIORITIES,
    SHED_REASONS,
    ServeConfig,
    TagBreaker,
    generate_arrivals,
)
from repro.serve.report import ServeReport, render_serve_text


def request(seq, priority=1, arrival_s=0.0, tag=0):
    return DecodeRequest(
        seq=seq,
        corr_id=f"t/{seq}",
        tag_address=tag,
        priority=priority,
        arrival_s=arrival_s,
        deadline_s=arrival_s + 4.0,
        root_seed=0,
        payload_bits=16,
    )


class TestBoundedPriorityQueue:
    def test_admits_until_capacity(self):
        q = BoundedPriorityQueue(capacity=3)
        for i in range(3):
            admitted, event = q.offer(request(i), now_s=0.0)
            assert admitted and event is None
        assert len(q) == 3 and q.depth_max == 3

    def test_full_queue_sheds_incoming_when_it_is_worst(self):
        q = BoundedPriorityQueue(capacity=2)
        q.offer(request(0, priority=0), 0.0)
        q.offer(request(1, priority=1), 0.0)
        admitted, event = q.offer(request(2, priority=2), 1.0)
        assert not admitted
        assert event.seq == 2 and event.reason == "queue_full"
        assert event.priority == event.worst_present == 2
        assert len(q) == 2

    def test_full_queue_evicts_newest_of_worst_class(self):
        q = BoundedPriorityQueue(capacity=3)
        q.offer(request(0, priority=2), 0.0)
        q.offer(request(1, priority=2), 0.0)   # newest low-priority
        q.offer(request(2, priority=1), 0.0)
        admitted, event = q.offer(request(3, priority=0), 1.0)
        assert admitted
        assert event.seq == 1, "victim must be the NEWEST of the worst class"
        assert event.priority == 2 and event.worst_present == 2
        # The high-priority request actually got in.
        assert [r.seq for r in q.pop_batch(3)] == [3, 2, 0]

    def test_never_exceeds_capacity(self):
        q = BoundedPriorityQueue(capacity=4)
        for i in range(50):
            q.offer(request(i, priority=i % 3), float(i))
            assert len(q) <= 4
        assert q.depth_max <= 4

    def test_every_shed_produces_an_event(self):
        q = BoundedPriorityQueue(capacity=2)
        offered, events = 0, []
        for i in range(20):
            offered += 1
            _, event = q.offer(request(i, priority=i % 3), float(i))
            if event is not None:
                events.append(event)
        assert offered == len(q) + len(events)
        assert all(e.reason in SHED_REASONS for e in events)

    def test_pop_batch_best_class_first_fifo_within(self):
        q = BoundedPriorityQueue(capacity=6)
        for seq, prio in [(0, 2), (1, 0), (2, 1), (3, 0), (4, 1)]:
            q.offer(request(seq, priority=prio), 0.0)
        assert [r.seq for r in q.pop_batch(10)] == [1, 3, 2, 4, 0]

    def test_drain_empties_queue(self):
        q = BoundedPriorityQueue(capacity=4)
        for i in range(4):
            q.offer(request(i, priority=i % 3), 0.0)
        drained = q.drain()
        assert len(drained) == 4 and len(q) == 0

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            BoundedPriorityQueue(capacity=0)


class TestDeadlineBudget:
    def test_deadline_anchored_at_arrival(self):
        b = DeadlineBudget(arrival_s=2.0, budget_s=3.0)
        assert b.deadline_s == 5.0
        assert b.remaining(4.0) == pytest.approx(1.0)
        assert not b.expired(4.999) and b.expired(5.0)

    def test_can_meet_includes_service_time(self):
        b = DeadlineBudget(arrival_s=0.0, budget_s=1.0)
        assert b.can_meet(0.5, service_s=0.5)
        assert not b.can_meet(0.6, service_s=0.5)

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DeadlineBudget(arrival_s=0.0, budget_s=0.0)


class TestArrivals:
    def make_config(self, **overrides):
        base = dict(duration_s=10.0, offered_load_rps=5.0)
        base.update(overrides)
        return ServeConfig(**base)

    @pytest.mark.parametrize("profile", ARRIVAL_PROFILES)
    def test_profiles_deterministic_per_seed(self, profile):
        cfg = self.make_config(arrival_profile=profile)
        a = generate_arrivals(cfg, seed=42)
        b = generate_arrivals(cfg, seed=42)
        assert [(r.seq, r.arrival_s, r.priority, r.tag_address)
                for r in a] == \
               [(r.seq, r.arrival_s, r.priority, r.tag_address)
                for r in b]

    def test_different_seeds_differ(self):
        cfg = self.make_config()
        a = generate_arrivals(cfg, seed=1)
        b = generate_arrivals(cfg, seed=2)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_sorted_in_window_with_sequential_seqs(self):
        cfg = self.make_config(
            burst_load_rps=20.0, burst_start_s=2.0, burst_end_s=6.0
        )
        reqs = generate_arrivals(cfg, seed=7)
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times)
        assert all(0 <= t < cfg.duration_s for t in times)
        assert [r.seq for r in reqs] == list(range(len(reqs)))

    def test_burst_raises_rate_inside_window_only(self):
        calm = generate_arrivals(self.make_config(), seed=3)
        burst = generate_arrivals(
            self.make_config(
                burst_load_rps=40.0, burst_start_s=2.0, burst_end_s=6.0
            ),
            seed=3,
        )

        def in_window(reqs):
            return sum(1 for r in reqs if 2.0 <= r.arrival_s < 6.0)

        assert in_window(burst) > 2 * in_window(calm)

    def test_fields_well_formed(self):
        cfg = self.make_config(n_tags=4, payload_bits=8)
        for r in generate_arrivals(cfg, seed=0):
            assert 0 <= r.priority < len(PRIORITIES)
            assert 0 <= r.tag_address < 4
            assert r.payload_bits == 8
            assert r.deadline_s == pytest.approx(
                r.arrival_s + cfg.deadline_ms / 1000.0
            )
            assert r.corr_id.endswith(f"/{r.seq}")


class TestTagBreaker:
    def test_opens_after_threshold_and_quarantines(self):
        br = TagBreaker(failure_threshold=3, quarantine_s=5.0)
        for _ in range(3):
            br.record_failure(0, now_s=1.0)
        assert br.state_of(0) == "open"
        assert not br.admit(0, now_s=2.0)
        assert br.open_tags() == [0]

    def test_probe_after_quarantine_then_close_on_success(self):
        br = TagBreaker(failure_threshold=1, quarantine_s=5.0)
        br.record_failure(0, now_s=0.0)
        assert not br.admit(0, now_s=4.9)
        assert br.admit(0, now_s=5.0)          # the half-open probe
        br.record_success(0)
        assert br.state_of(0) == "closed"
        assert br.admit(0, now_s=5.1)

    def test_failed_probe_doubles_quarantine(self):
        br = TagBreaker(failure_threshold=1, quarantine_s=5.0)
        br.record_failure(0, now_s=0.0)        # open for 5 s
        assert br.admit(0, now_s=5.0)
        br.record_failure(0, now_s=5.0)        # probe fails: 10 s now
        assert not br.admit(0, now_s=14.9)
        assert br.admit(0, now_s=15.0)
        assert br.opened_total == 2

    def test_tags_are_independent(self):
        br = TagBreaker(failure_threshold=1, quarantine_s=5.0)
        br.record_failure(7, now_s=0.0)
        assert not br.admit(7, now_s=1.0)
        assert br.admit(8, now_s=1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TagBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            TagBreaker(quarantine_s=10.0, max_quarantine_s=5.0)


class TestServeConfig:
    def test_capacity_is_inverse_airtime(self):
        cfg = ServeConfig(payload_bits=16, bit_rate_bps=100.0)
        assert cfg.effective_service_s == pytest.approx(0.16)
        assert cfg.capacity_rps == pytest.approx(6.25)

    def test_service_time_override(self):
        cfg = ServeConfig(service_time_s=0.5)
        assert cfg.capacity_rps == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [
        dict(duration_s=0.0),
        dict(offered_load_rps=0.0),
        dict(deadline_ms=0.0),
        dict(queue_capacity=0),
        dict(batch=0),
        dict(arrival_profile="storm"),
        dict(priority_mix=(1.0, 1.0)),
        dict(burst_load_rps=1.0, offered_load_rps=4.0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigurationError):
            ServeConfig(**bad)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    @pytest.mark.parametrize("name", ["bit_rate_bps", "packets_per_bit",
                                      "tag_to_reader_m", "helper_to_tag_m"])
    def test_rejects_impossible_link_parameters(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ServeConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_rejects_impossible_outlier_distance(self, value):
        with pytest.raises(ConfigurationError, match="outlier_distance_m"):
            ServeConfig(outlier_tags=(7,), outlier_distance_m=value)

    def test_to_dict_json_safe(self):
        import json
        json.dumps(ServeConfig().to_dict())


class TestServeReport:
    def make_report(self, **overrides):
        base = dict(
            run_id="serve-0", seed=0, config={}, arrivals=10, delivered=6,
            decode_failed=1, shed=2, deadline_abandoned=1, worker_lost=0,
            shed_by_reason={"queue_full": 2},
            shed_by_priority={"low": 2},
            worker_crashes=0, worker_stalls=0, worker_restarts=0,
            worker_retries=0, dead_letters=0, queue_depth_max=4,
            egress_depth_max=3, delivered_bits=96, error_bits=2,
            duration_virtual_s=10.0, wall_s=1.0, throughput_rps=0.6,
            latency_mean_s=0.5, latency_p99_s=1.5, wall_latency_p99_s=0.1,
            breaker_opened=0, quarantined_tags=0,
            recovery_s=4.0, recovered=True,
        )
        base.update(overrides)
        return ServeReport(**base)

    def test_conservation_law_via_accounted(self):
        report = self.make_report()
        assert report.accounted == report.arrivals == 10

    def test_derived_fractions(self):
        report = self.make_report()
        assert report.shed_fraction == pytest.approx(0.2)
        assert report.ber == pytest.approx(2 / 96)

    def test_to_dict_and_render(self):
        import json
        report = self.make_report()
        data = report.to_dict()
        json.dumps(data)
        assert data["accounted"] == 10
        text = render_serve_text(report)
        assert "queue_full" in text
        assert "delivered" in text
