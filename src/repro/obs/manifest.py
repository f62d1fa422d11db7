"""Run manifests: the reproducibility record of one experiment run.

A manifest captures everything needed to re-run and cross-check an
experiment: the driver name and configuration, the effective RNG seed,
the calibrated physical parameters, the git revision of the code, a
snapshot of every metric the run emitted, and the recorded span trees.

Drivers call :func:`record_run` at the end of a run; it is a no-op
unless a manifest directory is configured (``obs.configure(
manifest_dir=...)`` or the CLI's ``--metrics-out``), so the simulation
hot path never pays for it.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.errors import ConfigurationError
from repro.obs import state
from repro.obs.export import jsonable, read_json, write_json

#: Manifest schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

_git_sha_cache: Dict[str, Optional[str]] = {}


def git_sha(short: bool = False) -> Optional[str]:
    """The repository HEAD revision, or None outside a git checkout.

    Cached per process; tolerant of missing git binaries and installed
    (non-checkout) deployments.
    """
    key = "short" if short else "full"
    if key not in _git_sha_cache:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = ["git", "-C", here, "rev-parse"]
        if short:
            cmd.append("--short")
        cmd.append("HEAD")
        try:
            out = subprocess.run(
                cmd, capture_output=True, text=True, timeout=5, check=False
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _git_sha_cache[key] = sha if sha else None
    return _git_sha_cache[key]


def git_dirty() -> Optional[bool]:
    """Whether the checkout has uncommitted changes; None outside git.

    Deliberately *not* cached: the working tree can change within a
    process lifetime (a soak run that edits files between scenarios
    should not report a stale clean bit).
    """
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", here, "status", "--porcelain"],
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def hostname() -> str:
    """Short hostname of the machine producing this artifact."""
    import socket

    try:
        return socket.gethostname().split(".")[0]
    except OSError:
        return "unknown"


@dataclass
class RunManifest:
    """The reproducible record of one experiment run.

    Attributes:
        name: driver name (``uplink_ber``, ``downlink_ber``, ...).
        created_utc: ISO-8601 creation time.
        seed: effective RNG seed of the run (None when the caller
            supplied a live generator whose seed is unknown).
        params: calibrated physical parameters (dict form).
        config: driver arguments (distances, rates, modes, ...).
        results: headline outputs (BER, error counts, ...).
        git_sha: code revision, when available.
        git_dirty: True when the checkout had uncommitted changes.
        hostname: short hostname of the producing machine.
        version: package version.
        metrics: metric snapshot at capture time.
        spans: recorded span trees at capture time.
        profile: the tracer's stage table (``{stage: {calls, total_s,
            self_s, max_s}}``) when tracing was enabled.
        forensics: flight-recorder attribution summary (counts by
            root-cause label, error budget, worst packets) when decode
            recording was enabled; the full per-packet records live in
            the ``--record`` JSONL artifact, not here.
        extra: free-form additions (the CLI stores fired SLO alerts
            under ``extra["alerts"]``).
    """

    name: str
    created_utc: str = ""
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    git_sha: Optional[str] = None
    git_dirty: Optional[bool] = None
    hostname: str = ""
    version: str = __version__
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    profile: Dict[str, Any] = field(default_factory=dict)
    forensics: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("manifest name must be non-empty")
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()

    def to_dict(self) -> Dict[str, Any]:
        return jsonable(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def write(self, path: str) -> str:
        """Write the manifest as JSON; returns the path."""
        return write_json(path, self.to_dict())


def load_manifest(path: str) -> RunManifest:
    """Read a manifest back from JSON."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} does not contain a manifest object")
    return RunManifest.from_dict(data)


def _params_dict(params: Any) -> Dict[str, Any]:
    if params is None:
        return {}
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        return dataclasses.asdict(params)
    if isinstance(params, dict):
        return dict(params)
    raise ConfigurationError(
        f"params must be a dataclass or dict, got {type(params).__name__}"
    )


def build_manifest(
    name: str,
    seed: Optional[int] = None,
    params: Any = None,
    config: Optional[Dict[str, Any]] = None,
    results: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """Assemble a manifest from the current observability state.

    Captures the global registry snapshot (when metrics are on), and
    the recorded span trees and the stage table (when tracing is on).
    """
    metrics: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    profile: Dict[str, Any] = {}
    forensics_summary: Dict[str, Any] = {}
    if state.metrics_enabled():
        from repro.obs import caches

        caches.publish()
        metrics = state.get_registry().snapshot()
    if state.tracing_enabled():
        spans = state.get_tracer().to_dicts()
        profile = state.get_tracer().aggregate()
    if state.recording_enabled():
        from repro.obs.forensics import summarize

        recorder = state.get_recorder()
        forensics_summary = {
            "policy": recorder.policy,
            "capacity": recorder.capacity,
            "seen": recorder.seen,
            "errors_seen": recorder.errors_seen,
            "dropped": recorder.dropped,
            **summarize(recorder.records),
        }
        forensics_summary.pop("margins", None)
    return RunManifest(
        name=name,
        seed=seed,
        params=_params_dict(params),
        config=dict(config or {}),
        results=dict(results or {}),
        git_sha=git_sha(),
        git_dirty=git_dirty(),
        hostname=hostname(),
        metrics=metrics,
        spans=spans,
        profile=profile,
        forensics=forensics_summary,
        extra=dict(extra or {}),
    )


def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def record_run(
    name: str,
    seed: Optional[int] = None,
    params: Any = None,
    config: Optional[Dict[str, Any]] = None,
    results: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Auto-write a run manifest when a manifest directory is configured.

    Returns the written path, or None when manifests are not being
    collected (the default — this is the cheap early-out the drivers
    rely on).
    """
    directory = state.manifest_dir()
    if directory is None:
        return None
    manifest = build_manifest(
        name, seed=seed, params=params, config=config, results=results, extra=extra
    )
    path = os.path.join(directory, f"{_safe_filename(name)}.json")
    return manifest.write(path)
