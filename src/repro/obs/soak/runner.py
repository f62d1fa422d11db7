"""The continuous-soak harness: corpus in, history + report doc out.

:func:`run_soak` executes a scenario selection through
:func:`repro.scenarios.run_scenario` (which fans trials over the
parallel engine), appends one history record per scenario to the
:class:`~repro.obs.soak.history.HistoryStore`, runs trend detection
over the updated histories, and assembles a JSON-safe soak document
that :mod:`repro.obs.soak.report` renders to markdown and that
``repro obs-report`` recognizes by its ``soak_schema_version`` key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.manifest import git_dirty, git_sha, hostname
from repro.obs.soak.history import (
    HistoryStore,
    TrendFlag,
    detect_trends,
    make_record,
    utc_timestamp,
)
from repro.scenarios.registry import ScenarioRegistry, builtin_registry
from repro.scenarios.runner import ScenarioResult, run_scenario

#: Soak document schema version (the ``soak_schema_version`` key is
#: also the fingerprint ``obs-report`` uses to recognize the artifact).
SOAK_SCHEMA_VERSION = 1


@dataclass
class SoakOutcome:
    """Everything one soak run produced."""

    run_id: str
    results: List[ScenarioResult] = field(default_factory=list)
    flags: List[TrendFlag] = field(default_factory=list)
    history_paths: List[str] = field(default_factory=list)
    seed: int = 0
    trial_scale: float = 1.0
    workers: int = 1
    wall_s: float = 0.0
    timestamp: str = ""

    @property
    def passed(self) -> List[ScenarioResult]:
        return [r for r in self.results if r.passed]

    @property
    def failed(self) -> List[ScenarioResult]:
        return [r for r in self.results if not r.passed]

    def to_document(self) -> Dict[str, Any]:
        """The JSON soak report document (``soak_schema_version`` keyed)."""
        return {
            "soak_schema_version": SOAK_SCHEMA_VERSION,
            "run_id": self.run_id,
            "commit": git_sha(),
            "git_dirty": git_dirty(),
            "hostname": hostname(),
            "timestamp": self.timestamp,
            "seed": self.seed,
            "trial_scale": self.trial_scale,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "summary": {
                "total": len(self.results),
                "passed": len(self.passed),
                "failed": len(self.failed),
                "trend_flags": len(self.flags),
            },
            "scenarios": [r.to_dict() for r in self.results],
            "trend_flags": [f.to_dict() for f in self.flags],
        }


def run_soak(
    registry: Optional[ScenarioRegistry] = None,
    names: Optional[Sequence[str]] = None,
    tag: Optional[str] = None,
    seed: int = 0,
    workers: int = 1,
    trial_scale: float = 1.0,
    history: Optional[HistoryStore] = None,
    manifest_dir: Optional[str] = None,
    record: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> SoakOutcome:
    """Soak the (possibly filtered) corpus and append cross-run history.

    Args:
        registry: scenario source; defaults to the built-in corpus.
        names / tag: selection filters (see ``ScenarioRegistry.select``).
        history: the cross-run store; pass None to skip persistence
            (e.g. a smoke run that must not pollute real history).
        manifest_dir: when set, a per-scenario run manifest is written
            under it.
        record: enable the decode flight recorder (attribution labels).
        progress: callback for per-scenario progress lines.
    """
    registry = registry if registry is not None else builtin_registry()
    scenarios = registry.select(names=names, tag=tag)
    if not scenarios:
        raise ConfigurationError(
            "soak selection matched no scenarios"
        )
    if workers > 1:
        from repro.sim import engine

        engine.warm_pool(workers)
    timestamp = utc_timestamp()
    run_id = f"soak-{timestamp}"
    outcome = SoakOutcome(
        run_id=run_id, seed=seed, trial_scale=trial_scale,
        workers=workers, timestamp=timestamp,
    )
    t0 = time.perf_counter()
    for i, scenario in enumerate(scenarios):
        if progress is not None:
            progress(
                f"soak [{i + 1}/{len(scenarios)}] {scenario.name}"
            )
        result = run_scenario(
            scenario,
            seed=seed,
            workers=workers,
            trial_scale=trial_scale,
            record=record,
            manifest_dir=manifest_dir,
        )
        outcome.results.append(result)
        if history is not None:
            rec = make_record(
                scenario=scenario.name,
                metrics={
                    k: result.metrics[k]
                    for k in ("ber", "throughput_bps", "latency_s", "wall_s")
                    if k in result.metrics
                },
                seed=result.seed,
                trial_scale=trial_scale,
                passed=result.passed,
                dominant_label=result.dominant_label,
                frames_by_label=(
                    result.attribution.get("frames_by_label") or {}
                ),
                run_id=run_id,
                alerts=len(result.alerts),
            )
            outcome.history_paths.append(history.append(rec))
            outcome.flags.extend(detect_trends(history.load(scenario.name)))
    outcome.wall_s = time.perf_counter() - t0
    return outcome
