"""Integration: one report entry point for every artifact kind.

``obs-report`` recognises an artifact by its schema tag, and
``perf-report``, ``fleet-report`` and ``forensics`` are its aliases, so
every report name renders every kind: a run manifest, a telemetry
stream, a fleet health artifact, a forensics record file and a soak
document.  Each rendering must equal that kind's own renderer.
"""

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest

from repro import obs
from repro.cli import EXIT_CONFIG_ERROR, EXIT_DECODE_FAILURE, EXIT_OK, main
from repro.obs.fleet.report import render_fleet_artifact, render_fleet_block
from repro.obs.forensics import crash_flush, read_jsonl, summarize
from repro.obs.forensics.report import render_forensics
from repro.obs.manifest import RunManifest
from repro.obs.report import render_manifest, render_telemetry
from repro.obs.soak.report import render_soak_text
from repro.serve.telemetry import read_telemetry

NAMES = ("obs-report", "perf-report", "fleet-report", "forensics")
KINDS = ("manifest", "telemetry", "fleet", "forensics", "soak")


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == EXIT_OK, argv
    return out.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The five artifact kinds, plus a ``serve --json`` report."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = {kind: str(root / name) for kind, name in (
        ("manifest", "run.json"), ("forensics", "rec.jsonl"),
        ("telemetry", "tele.jsonl"), ("fleet", "health.json"),
        ("soak", "soak.json"), ("serve_report", "serve.json"),
    )}
    try:
        _quiet_main([
            "uplink-ber", "--distance", "0.3", "--pkts-per-bit", "8",
            "--repeats", "2", "--seed", "11",
            "--faults", "outage:duty=0.35,burst=0.3",
            "--record", paths["forensics"],
            "--metrics-out", paths["manifest"],
        ])
        report = _quiet_main([
            "serve", "--duration", "4", "--offered-load", "6",
            "--tags", "8", "--payload", "8", "--pkts-per-bit", "6",
            "--seed", "3", "--telemetry-out", paths["telemetry"],
            "--health-out", paths["fleet"], "--json",
        ])
        Path(paths["serve_report"]).write_text(report)
        _quiet_main([
            "soak", "--no-history", "--scenarios", "geom_csi_030cm",
            "--trial-scale", "0.3", "--out", paths["soak"],
        ])
    finally:
        obs.disable()
        obs.reset()
    return paths


def _direct_render(kind, path):
    """The kind's own renderer, called without the dispatcher."""
    if kind == "manifest":
        return render_manifest(obs.load_manifest(path).to_dict())
    if kind == "telemetry":
        return render_telemetry(*read_telemetry(path))
    if kind == "fleet":
        return render_fleet_artifact(obs.read_json(path))
    if kind == "forensics":
        header, records = read_jsonl(path)
        return render_forensics(summarize(records), header=header)
    return render_soak_text(obs.read_json(path))


def _expected_keys(kind, path):
    if kind == "telemetry":
        return {"header", "snapshots", "final"}
    if kind == "forensics":
        return {"header", "summary"}
    doc = obs.read_json(path)
    if kind == "manifest":
        return set(RunManifest.from_dict(doc).to_dict())
    return set(doc)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", NAMES)
def test_every_name_renders_every_kind(artifacts, capsys, name, kind):
    code = main([name, artifacts[kind]])
    assert code == EXIT_OK
    assert capsys.readouterr().out == \
        _direct_render(kind, artifacts[kind]) + "\n"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", NAMES)
def test_json_payload_per_kind(artifacts, capsys, name, kind):
    code = main([name, artifacts[kind], "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload.pop("command") == name
    assert set(payload) == _expected_keys(kind, artifacts[kind])
    if kind == "forensics":
        assert "margins" not in payload["summary"]


def test_fleet_report_on_a_stream_keeps_the_fleet_section(
    artifacts, capsys
):
    path = artifacts["telemetry"]
    header, snapshots, final = read_telemetry(path)
    code = main(["fleet-report", path, "--top", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == render_telemetry(header, snapshots, final, top=1) + "\n"
    # The whole stream's transitions spliced onto the last fleet block:
    # what fleet-report printed for a stream before it became an alias.
    fleet = dict(snapshots[-1]["fleet"])
    fleet["transitions"] = [
        tr for snap in snapshots
        for tr in (snap.get("fleet") or {}).get("transitions") or []
    ]
    assert fleet["outcomes"]
    assert render_fleet_block(fleet, top=1) in out


def test_dir_picks_the_newest_json(artifacts, capsys, tmp_path):
    shutil.copy(artifacts["manifest"], tmp_path / "run.json")
    code = main(["obs-report", "--dir", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == \
        _direct_render("manifest", artifacts["manifest"]) + "\n"


@pytest.mark.parametrize("foreign", ["empty", "serve_report", "bench"])
def test_foreign_files_exit_3_with_one_error_line(
    artifacts, capsys, tmp_path, foreign
):
    if foreign == "empty":
        path = tmp_path / "empty.json"
        path.write_text("")
    elif foreign == "bench":
        # A benchmark result: named JSON with metrics but no schema key.
        path = tmp_path / "BENCH_uplink_csi_near.json"
        path.write_text(json.dumps({
            "name": "uplink_csi_near", "commit": "0" * 40,
            "git_dirty": False, "hostname": "host",
            "timestamp": "2026-01-01T00:00:00+00:00",
            "metrics": {"wall_s": 0.65, "ber": 0.0009},
        }))
    else:
        path = artifacts[foreign]
    code = main(["obs-report", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not a run manifest" in lines[0]


def test_manifest_labels_a_wrapped_series_as_windowed(tmp_path, capsys):
    path = str(tmp_path / "run.json")
    with obs.session(tracing=False):
        series = obs.timeseries("uplink.ber.window", capacity=4)
        for i in range(10):
            series.sample(i / 10)
        obs.build_manifest("windowed").write(path)
    code = main(["obs-report", path])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "last 4 of 10: min=0.6 max=0.9 " in out
    assert "count=10" not in out


def test_missing_path_names_the_artifact(tmp_path):
    path = str(tmp_path / "nope.json")
    with pytest.raises(SystemExit) as exc:
        main(["forensics", path])
    assert str(exc.value) == f"no such artifact: {path}"


@pytest.mark.parametrize("name", NAMES)
def test_record_on_the_input_leaves_it_untouched(
    artifacts, capsys, tmp_path, name
):
    path = tmp_path / "run.json"
    shutil.copy(artifacts["manifest"], path)
    before = path.read_bytes()
    code = main([name, str(path), "--record", str(path)])
    assert code == EXIT_OK
    assert path.read_bytes() == before
    assert not crash_flush.armed()


def test_aborted_decode_reports_its_error_bits(tmp_path, capsys):
    # A starved decode aborts before slicing: its one record counts 90
    # errors without per-bit entries, and the report charges them all
    # to the frame's root cause.
    path = str(tmp_path / "rec.jsonl")
    code = main([
        "uplink-ber", "--distance", "0.3", "--pkts-per-bit", "0.1",
        "--repeats", "1", "--record", path,
    ])
    assert code == EXIT_DECODE_FAILURE
    capsys.readouterr()
    assert main(["obs-report", path]) == EXIT_OK
    text = capsys.readouterr().out
    assert re.search(r"^error bits +90 *$", text, re.M), text
    assert re.search(r"^unknown +90 +1 +100\.0% *$", text, re.M), text
