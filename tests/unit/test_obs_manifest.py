"""Unit tests for run manifests and JSON export helpers."""

import json
import math

import numpy as np
import pytest

from repro import __version__, obs
from repro.errors import ConfigurationError
from repro.obs.manifest import SCHEMA_VERSION, _safe_filename, build_manifest
from repro.sim.calibration import DEFAULTS


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = obs.jsonable({"a": np.float64(1.5), "b": np.arange(3)})
        assert out == {"a": 1.5, "b": [0, 1, 2]}
        json.dumps(out)

    def test_non_finite_floats_become_ieee_strings(self):
        assert obs.jsonable(float("nan")) == "NaN"
        assert obs.jsonable(np.inf) == "Infinity"
        assert obs.jsonable(-np.inf) == "-Infinity"
        assert obs.jsonable([1.0, float("inf")]) == [1.0, "Infinity"]

    def test_non_finite_round_trip(self, tmp_path):
        path = str(tmp_path / "nf.json")
        obs.write_json(path, {"sep": float("nan"), "vals": [np.inf, -np.inf]})
        back = obs.read_json(path)
        assert math.isnan(back["sep"])
        assert back["vals"] == [float("inf"), float("-inf")]
        # Plain strings that merely *look* numeric survive untouched.
        obs.write_json(path, {"note": "NaN is encoded", "name": "Infinity"})
        back = obs.read_json(path)
        assert back["name"] == float("inf")  # exact spelling decodes
        assert back["note"] == "NaN is encoded"

    def test_sets_tuples_and_fallback_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert obs.jsonable((1, 2)) == [1, 2]
        assert sorted(obs.jsonable({3, 4})) == [3, 4]
        assert obs.jsonable(Odd()) == "<odd>"

    def test_non_string_dict_keys_coerced(self):
        assert obs.jsonable({1: "a"}) == {"1": "a"}


class TestJsonFiles:
    def test_write_creates_parents_and_round_trips(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.json"
        obs.write_json(str(path), {"x": np.int64(7)})
        assert obs.read_json(str(path)) == {"x": 7}


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        m = obs.RunManifest(
            name="uplink_ber",
            seed=7,
            params={"tag_coupling": 14},
            config={"distance_m": 0.4},
            results={"ber": 1e-3},
        )
        path = m.write(str(tmp_path / "m.json"))
        back = obs.load_manifest(path)
        assert back.name == "uplink_ber"
        assert back.seed == 7
        assert back.params == {"tag_coupling": 14}
        assert back.config == {"distance_m": 0.4}
        assert back.results == {"ber": 1e-3}
        assert back.version == __version__
        assert back.schema_version == SCHEMA_VERSION
        assert back.created_utc  # auto-stamped

    def test_from_dict_ignores_unknown_keys(self):
        m = obs.RunManifest.from_dict({"name": "x", "seed": 1, "bogus": True})
        assert m.name == "x" and m.seed == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            obs.RunManifest(name="")

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            obs.load_manifest(str(path))


class TestBuildManifest:
    def test_captures_metrics_and_spans_when_enabled(self):
        with obs.session():
            obs.counter("c").inc(3)
            with obs.span("stage"):
                pass
            m = build_manifest("run", seed=5, params=DEFAULTS)
        assert m.metrics["c"]["value"] == 3.0
        assert [s["name"] for s in m.spans] == ["stage"]
        assert m.params["tag_coupling"] == DEFAULTS.tag_coupling
        assert m.seed == 5

    def test_profile_is_the_stage_table_when_tracing(self):
        with obs.session(metrics=False):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            m = build_manifest("run")
            table = obs.get_tracer().aggregate()
        assert m.profile == table
        assert {name: s["calls"] for name, s in m.profile.items()} == {
            "outer": 1, "inner": 1,
        }

    def test_no_profile_without_tracing(self):
        with obs.session(metrics=True, tracing=False):
            with obs.span("stage"):
                pass
            m = build_manifest("run")
        assert m.spans == [] and m.profile == {}

    def test_disabled_captures_nothing(self):
        m = build_manifest("run")
        assert m.metrics == {} and m.spans == []

    def test_params_must_be_dataclass_or_dict(self):
        with pytest.raises(ConfigurationError):
            build_manifest("run", params=[1, 2])

    def test_git_sha_present_in_checkout(self):
        sha = obs.git_sha()
        assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)


class TestRecordRun:
    def test_noop_without_manifest_dir(self):
        assert obs.record_run("anything") is None

    def test_writes_into_configured_dir(self, tmp_path):
        with obs.session(manifest_dir=str(tmp_path)):
            obs.counter("bits").inc(10)
            path = obs.record_run(
                "my run/with:odd chars", seed=2, results={"ber": 0.0}
            )
        assert path is not None
        loaded = obs.load_manifest(path)
        assert loaded.seed == 2
        assert loaded.metrics["bits"]["value"] == 10.0
        assert "/" not in path[len(str(tmp_path)) + 1:]

    def test_safe_filename(self):
        assert _safe_filename("a b/c:d") == "a_b_c_d"
