"""The tracer's per-stage table: what ``--profile`` prints and manifests
store under ``profile``.

Every wall-clock span charges its name's row (calls, cumulative, self
and slowest time) as it closes, spans past the root cap included;
absorbed worker trees charge theirs as they are rebuilt, and
virtual-time trees (``Span.at`` + ``adopt``) never do.
"""

import time

import pytest

from repro import obs
from repro.cli import EXIT_OK, main
from repro.obs import state
from repro.obs.metrics import NULL_METRIC
from repro.obs.perf.report import render_profile
from repro.obs.tracing import Span, Tracer
from repro.serve.gateway import ServeConfig, run_serve
from repro.sim.link import run_correlation_trial, run_uplink_ber


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


def _table():
    return obs.get_tracer().aggregate()


def _calls(table):
    return {name: entry["calls"] for name, entry in table.items()}


class TestStageAccounting:
    def test_one_stage(self):
        with obs.session(metrics=False):
            with obs.span("a"):
                pass
            entry = _table()["a"]
        assert entry["calls"] == 1
        assert entry["total_s"] >= 0.0
        assert entry["self_s"] == pytest.approx(entry["total_s"])
        assert entry["max_s"] == entry["total_s"]

    def test_nested_self_time_excludes_children(self):
        with obs.session(metrics=False):
            with obs.span("outer"):
                with obs.span("inner"):
                    time.sleep(0.002)
            table = _table()
        outer, inner = table["outer"], table["inner"]
        assert outer["total_s"] >= inner["total_s"]
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"], abs=1e-9
        )
        assert inner["self_s"] == pytest.approx(inner["total_s"])

    def test_sorted_by_total_desc(self):
        with obs.session(metrics=False):
            with obs.span("cheap"):
                pass
            with obs.span("costly"):
                time.sleep(0.002)
            names = list(_table())
        assert names == ["costly", "cheap"]

    def test_exception_still_charged(self):
        with obs.session(metrics=False):
            with pytest.raises(ValueError):
                with obs.span("bad"):
                    raise ValueError("boom")
            assert obs.current_span() is None
            assert _table()["bad"]["calls"] == 1

    def test_inner_exception_leaves_the_outer_span_open(self):
        with obs.session(metrics=False):
            with obs.span("outer") as outer:
                with pytest.raises(ValueError):
                    with obs.span("inner"):
                        raise ValueError("boom")
                assert obs.current_span() is outer
            table = _table()
        assert outer.children[0].error == "ValueError"
        assert _calls(table) == {"outer": 1, "inner": 1}
        assert table["outer"]["self_s"] == pytest.approx(
            table["outer"]["total_s"] - table["inner"]["total_s"], abs=1e-9
        )

    def test_max_s_is_the_slowest_call(self):
        with obs.session(metrics=False):
            with obs.span("a") as slow:
                time.sleep(0.002)
            with obs.span("a"):
                pass
            entry = _table()["a"]
        assert entry["calls"] == 2
        assert entry["max_s"] == slow.duration_s
        assert entry["total_s"] > entry["max_s"] >= 0.002

    def test_same_name_nesting_charges_each_call(self):
        with obs.session(metrics=False):
            with obs.span("a") as outer:
                with obs.span("a"):
                    time.sleep(0.002)
            entry = _table()["a"]
        assert entry["calls"] == 2
        assert entry["max_s"] == outer.duration_s
        # The inner call's time is in both totals but in one self time.
        assert entry["self_s"] == pytest.approx(outer.duration_s, abs=1e-9)
        assert entry["total_s"] > outer.duration_s

    def test_aggregate_returns_a_copy(self):
        with obs.session(metrics=False):
            with obs.span("a"):
                pass
            first = _table()
            first["a"]["calls"] = 99
            with obs.span("a"):
                pass
            assert _table()["a"]["calls"] == 2
        assert first["a"]["calls"] == 99

    def test_reset_clears_the_table(self):
        with obs.session(metrics=False):
            with obs.span("a"):
                pass
            obs.reset()
            assert _table() == {}

    def test_disabled_spans_charge_nothing(self):
        with obs.span("a"):
            pass
        assert _table() == {}

    def test_root_cap_drops_trees_but_times_them(self, monkeypatch):
        capped = Tracer(max_spans=1)
        monkeypatch.setattr(state, "_tracer", capped)
        obs.configure(tracing=True)
        for _ in range(3):
            with obs.span("a"):
                with obs.span("b") as inner:
                    pass
        assert inner is None
        assert _calls(capped.aggregate()) == {"a": 3, "b": 3}
        assert len(capped.roots) == 1
        assert (capped.started, capped.dropped) == (6, 4)

    def test_spans_past_the_cap_keep_self_time_exclusive(self, monkeypatch):
        capped = Tracer(max_spans=1)
        monkeypatch.setattr(state, "_tracer", capped)
        obs.configure(tracing=True)
        with obs.span("kept"):
            pass
        with obs.span("a") as outer:
            with obs.span("b"):
                time.sleep(0.002)
        assert outer is None
        table = capped.aggregate()
        assert table["b"]["total_s"] >= 0.002
        assert table["a"]["self_s"] == pytest.approx(
            table["a"]["total_s"] - table["b"]["total_s"], abs=1e-9
        )

    def test_two_absorbs_of_one_tree_give_two_calls(self):
        tree = {
            "name": "outer", "duration_s": 2.0, "attributes": {},
            "error": None,
            "children": [{"name": "inner", "duration_s": 0.5,
                          "attributes": {}, "error": None,
                          "children": []}],
        }
        dst = Tracer()
        dst.absorb([tree])
        dst.absorb([tree])
        table = dst.aggregate()
        assert _calls(table) == {"outer": 2, "inner": 2}
        assert table["outer"]["total_s"] == 4.0
        assert table["outer"]["self_s"] == 3.0
        assert table["outer"]["max_s"] == 2.0

    @pytest.mark.parametrize("worker_s", [0.0005, 5.0])
    def test_trees_absorbed_under_an_open_span_are_its_child_time(
        self, worker_s
    ):
        """A pooled sweep's span: its self time leaves out the workers'
        time, and is zero when their summed time (here 1 ms or 10 s)
        exceeds its own wall time."""
        tree = {"name": "trial", "duration_s": worker_s, "attributes": {},
                "error": None, "children": []}
        with obs.session(metrics=False):
            with obs.span("sweep"):
                time.sleep(0.002)
                obs.get_tracer().absorb([tree, tree])
            table = _table()
        sweep = table["sweep"]
        assert table["trial"]["calls"] == 2
        assert table["trial"]["total_s"] == 2 * worker_s
        assert sweep["total_s"] >= 0.002
        assert sweep["self_s"] == pytest.approx(
            max(0.0, sweep["total_s"] - 2 * worker_s), abs=1e-9
        )
        if worker_s > sweep["total_s"]:
            assert sweep["self_s"] == 0.0

    def test_absorbed_span_without_a_duration_charges_zero(self):
        dst = Tracer()
        dst.absorb([{"name": "open", "duration_s": None, "children": []}])
        assert dst.aggregate() == {
            "open": {"calls": 1, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
        }
        assert dst.roots[0].duration_s == 0.0

    def test_adopted_virtual_trees_are_not_charged(self):
        root = Span.at("serve.request", 0.0, 5.0)
        root.add_child(Span.at("serve.decode", 1.0, 2.0))
        t = Tracer()
        t.adopt(root)
        assert t.roots == [root]
        assert t.aggregate() == {}


class TestPipelineStages:
    def test_uplink_decode_names_its_stages(self):
        with obs.session(metrics=False):
            run_uplink_ber(0.3, 12.0, repeats=1, num_payload_bits=45, seed=1)
            calls = _calls(_table())
        for stage in ("uplink.decode", "uplink.decode.condition",
                      "conditioning.condition"):
            assert calls[stage] == 1, stage

    def test_correlation_decode_is_a_stage(self):
        with obs.session(metrics=False):
            run_correlation_trial(1.6, code_length=8, num_bits=12,
                                  packets_per_chip=5.0, seed=0)
            calls = _calls(_table())
        assert calls["correlation.decode"] == 1
        assert calls["conditioning.condition"] == 1

    def test_serve_table_has_no_virtual_time_stages(self):
        config = ServeConfig(
            duration_s=4.0, offered_load_rps=4.0, deadline_ms=2500.0,
            queue_capacity=12, workers=0, n_tags=8, payload_bits=8,
            packets_per_bit=6.0, bit_rate_bps=50.0,
        )
        with obs.session() as (registry, tracer):
            run_serve(config, seed=1)
            calls = _calls(_table())
            decodes = registry.counter("uplink.decodes").value
            virtual = {root.name for root in tracer.roots}
        assert "serve.request" in virtual
        assert not [name for name in calls if name.startswith("serve.")]
        assert decodes > 0
        assert calls["uplink.decode"] == decodes


class TestRendering:
    def test_render_profile_columns_and_self_share(self):
        table = {
            "slow": {"calls": 2, "total_s": 0.004, "self_s": 0.003,
                     "max_s": 0.002},
            "fast": {"calls": 1, "total_s": 0.001, "self_s": 0.001,
                     "max_s": 0.001},
        }
        lines = render_profile(table).splitlines()
        assert lines[0] == "perf report (per-stage cost)"
        assert lines[1].split() == ["stage", "calls", "cum", "self",
                                    "self%", "max"]
        assert lines[3].split() == ["slow", "2", "4.00", "ms", "3.00", "ms",
                                    "75.0%", "2.00", "ms"]
        assert lines[4].split()[:2] == ["fast", "1"]
        assert "25.0%" in lines[4]

    def test_render_profile_of_an_empty_table(self):
        assert render_profile({}).startswith("(no stage timings recorded")

    def test_profile_flag_prints_the_run_table(self, capsys):
        code = main(["uplink-ber", "--distance", "0.3", "--pkts-per-bit",
                     "12", "--repeats", "1", "--seed", "1", "--profile"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        table = out[out.index("perf report (per-stage cost)"):].splitlines()
        assert table[1].split() == ["stage", "calls", "cum", "self",
                                    "self%", "max"]
        rows = {line.split()[0]: line.split()[1] for line in table[3:]
                if line.strip()}
        for stage in ("uplink.run_ber", "uplink.decode",
                      "uplink.decode.condition", "conditioning.condition"):
            assert rows[stage] == "1", stage
        assert not obs.tracing_enabled()


class TestInstrumentationOverheadContract:
    """Pin the "within noise when disabled" acceptance criterion.

    Wall-clock comparisons are too flaky for CI, so the pin uses the
    stage table itself: the work the pipeline does (which stages run,
    how often) must be identical whether or not metrics are recorded.
    Combined with the identity checks below (disabled accessors return
    shared no-op singletons — zero allocation), this bounds the
    disabled-path cost to boolean checks.
    """

    @staticmethod
    def _stage_calls(metrics):
        with obs.session(metrics=metrics, tracing=True):
            run_uplink_ber(0.3, 12.0, repeats=2, num_payload_bits=20, seed=5)
            return _calls(_table())

    def test_stage_calls_identical_with_metrics_on_and_off(self):
        with_metrics = self._stage_calls(True)
        assert with_metrics["uplink.decode"] == 2
        assert with_metrics == self._stage_calls(False)

    def test_disabled_hot_path_instruments_are_shared_singletons(self):
        # Every accessor the hot paths call resolves to the same
        # preallocated object while observability is off.
        assert obs.counter("uplink.decodes") is NULL_METRIC
        assert obs.timeseries("uplink.decode.latency_s") is NULL_METRIC
        assert obs.timeseries("a") is obs.timeseries("b")

    def test_pipeline_output_unchanged_by_full_observability(self):
        baseline = run_uplink_ber(
            0.3, 12.0, repeats=2, num_payload_bits=20, seed=9
        )
        with obs.session(metrics=True, tracing=True):
            observed = run_uplink_ber(
                0.3, 12.0, repeats=2, num_payload_bits=20, seed=9
            )
        assert observed.errors == baseline.errors
        assert observed.total_bits == baseline.total_bits
