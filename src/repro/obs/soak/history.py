"""Cross-run telemetry history: append-only JSONL + trend detection.

Every soak run appends one record per scenario to
``benchmarks/history/<scenario>.jsonl`` — keyed by commit, timestamp,
host, and trial scale.  The store is append-only on purpose: history
is evidence, and rewriting it would defeat the point.

:func:`detect_trends` runs a windowed EWMA over each scenario's
history with direction-aware tolerances: a metric only flags when the
newest record moves past the smoothed baseline in its *bad*
direction.  Records from dirty checkouts or mismatched trial
scales are excluded from the baseline window, and wall-clock metrics
are additionally only compared across records from the same host.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.manifest import git_dirty, git_sha, hostname

#: History record schema version.
HISTORY_SCHEMA_VERSION = 1

#: Direction semantics for regression checks.
HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"

#: Default store location, relative to the repo root.
DEFAULT_HISTORY_SUBDIR = os.path.join("benchmarks", "history")

#: Per-metric trend semantics: direction + relative/absolute slack.
#: BER and goodput are deterministic given the seed, so their bands are
#: tight; per-trial latency is wall-clock and gets a wide band.
TREND_SPECS: Dict[str, Dict[str, Any]] = {
    "ber": {"direction": LOWER_BETTER, "rtol": 0.25, "atol": 0.002,
            "wall_clock": False},
    "throughput_bps": {"direction": HIGHER_BETTER, "rtol": 0.10,
                       "atol": 0.0, "wall_clock": False},
    "latency_s": {"direction": LOWER_BETTER, "rtol": 1.0, "atol": 0.01,
                  "wall_clock": True},
}

#: EWMA smoothing factor and the minimum baseline window size.
EWMA_ALPHA = 0.3
MIN_HISTORY = 3


def repo_root(start: Optional[str] = None) -> str:
    """Nearest ancestor holding ``pyproject.toml`` (fallback: cwd)."""
    here = os.path.abspath(start or os.getcwd())
    probe = here
    while True:
        if os.path.exists(os.path.join(probe, "pyproject.toml")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return here
        probe = parent


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def default_history_dir() -> str:
    return os.path.join(repo_root(), DEFAULT_HISTORY_SUBDIR)


def make_record(
    scenario: str,
    metrics: Dict[str, float],
    seed: int = 0,
    trial_scale: float = 1.0,
    passed: bool = True,
    dominant_label: Optional[str] = None,
    frames_by_label: Optional[Dict[str, int]] = None,
    run_id: str = "",
    alerts: int = 0,
) -> Dict[str, Any]:
    """One history datapoint (JSON-safe)."""
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "scenario": scenario,
        "run_id": run_id,
        "commit": git_sha(),
        "git_dirty": git_dirty(),
        "hostname": hostname(),
        "timestamp": utc_timestamp(),
        "seed": int(seed),
        "trial_scale": float(trial_scale),
        "metrics": {k: float(v) for k, v in metrics.items()},
        "passed": bool(passed),
        "dominant_label": dominant_label,
        "frames_by_label": dict(frames_by_label or {}),
        "alerts": int(alerts),
    }


class HistoryStore:
    """Append-only per-scenario JSONL files under one directory."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_history_dir()

    def path_for(self, scenario: str) -> str:
        safe = scenario.replace(os.sep, "_")
        return os.path.join(self.directory, f"{safe}.jsonl")

    def append(self, record: Dict[str, Any]) -> str:
        """Append one record; returns the file path written."""
        scenario = record.get("scenario")
        if not scenario:
            raise ConfigurationError(
                "history record must carry a scenario name"
            )
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(scenario)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    def load(self, scenario: str) -> List[Dict[str, Any]]:
        """All records for one scenario, oldest first.

        Corrupt lines are skipped (a crashed append must not poison the
        whole store) but counted — see :meth:`load_with_errors`.
        """
        records, _ = self.load_with_errors(scenario)
        return records

    def load_with_errors(self, scenario: str):
        path = self.path_for(scenario)
        records: List[Dict[str, Any]] = []
        bad = 0
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    except ValueError:
                        bad += 1
                        continue
                    if isinstance(obj, dict):
                        records.append(obj)
                    else:
                        bad += 1
        except OSError:
            return [], 0
        return records, bad

    def scenarios(self) -> List[str]:
        """Scenario names with at least one stored record."""
        try:
            names = [
                f[: -len(".jsonl")]
                for f in os.listdir(self.directory)
                if f.endswith(".jsonl")
            ]
        except OSError:
            return []
        return sorted(names)


@dataclass(frozen=True)
class TrendFlag:
    """One detected regression in a scenario's metric history."""

    scenario: str
    metric: str
    direction: str
    ewma: float
    measured: float
    limit: float
    window: int
    dominant_label: Optional[str]
    timestamp: str = ""

    @property
    def delta_fraction(self) -> Optional[float]:
        if self.ewma == 0:
            return None
        return (self.measured - self.ewma) / abs(self.ewma)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "metric": self.metric,
            "direction": self.direction,
            "ewma": self.ewma,
            "measured": self.measured,
            "limit": self.limit,
            "window": self.window,
            "dominant_label": self.dominant_label,
            "timestamp": self.timestamp,
        }


def _ewma(values: Sequence[float], alpha: float) -> float:
    acc = float(values[0])
    for v in values[1:]:
        acc = alpha * float(v) + (1.0 - alpha) * acc
    return acc


def detect_trends(
    records: Sequence[Dict[str, Any]],
    specs: Optional[Dict[str, Dict[str, Any]]] = None,
    alpha: float = EWMA_ALPHA,
    min_history: int = MIN_HISTORY,
) -> List[TrendFlag]:
    """Flag metrics whose newest record breaks the EWMA tolerance band.

    The newest record is judged against an EWMA over the *comparable*
    prior records: same ``trial_scale``, clean checkout
    (``git_dirty`` is not True), and — for wall-clock metrics — the
    same host.  Fewer than ``min_history`` comparable points means no
    verdict (never flag on thin evidence).
    """
    if specs is None:
        specs = TREND_SPECS
    if len(records) < 2:
        return []
    latest = records[-1]
    latest_metrics = latest.get("metrics") or {}
    scenario = str(latest.get("scenario", ""))
    baseline = [
        r for r in records[:-1]
        if r.get("trial_scale") == latest.get("trial_scale")
        and r.get("git_dirty") is not True
    ]
    flags: List[TrendFlag] = []
    for metric, spec in specs.items():
        if metric not in latest_metrics:
            continue
        window = baseline
        if spec.get("wall_clock"):
            window = [
                r for r in baseline
                if r.get("hostname") == latest.get("hostname")
            ]
        values = [
            float((r.get("metrics") or {})[metric])
            for r in window
            if metric in (r.get("metrics") or {})
        ]
        if len(values) < min_history:
            continue
        ewma = _ewma(values, alpha)
        measured = float(latest_metrics[metric])
        rtol = float(spec.get("rtol", 0.10))
        atol = float(spec.get("atol", 0.0))
        if spec["direction"] == HIGHER_BETTER:
            limit = ewma * (1.0 - rtol) - atol
            regressed = measured < limit
        else:
            limit = ewma * (1.0 + rtol) + atol
            regressed = measured > limit
        if regressed:
            flags.append(TrendFlag(
                scenario=scenario,
                metric=metric,
                direction=spec["direction"],
                ewma=ewma,
                measured=measured,
                limit=limit,
                window=len(values),
                dominant_label=latest.get("dominant_label"),
                timestamp=str(latest.get("timestamp", "")),
            ))
    return flags


def check_store(
    store: HistoryStore,
    scenarios: Optional[Sequence[str]] = None,
) -> List[TrendFlag]:
    """Run trend detection over every (or the named) scenario history."""
    names = list(scenarios) if scenarios else store.scenarios()
    flags: List[TrendFlag] = []
    for name in names:
        flags.extend(detect_trends(store.load(name)))
    return flags


def corrupt_line_counts(
    store: HistoryStore,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Per-scenario corrupt JSONL line counts (non-zero entries only).

    A crashed append leaves a torn trailing line; :meth:`HistoryStore
    .load` silently skips it so trend detection keeps working, but the
    damage must still be visible — a store quietly losing records is a
    store whose evidence cannot be trusted.
    """
    names = list(scenarios) if scenarios else store.scenarios()
    counts: Dict[str, int] = {}
    for name in names:
        _, bad = store.load_with_errors(name)
        if bad:
            counts[name] = bad
    return counts
