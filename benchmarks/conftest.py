"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark regenerates one figure of the paper's evaluation and
prints the rows/series the paper reports, plus a paper-vs-measured
summary. Run with::

    pytest benchmarks/ --benchmark-only -s

Each figure test leaves its diagnostic record (wall time, metric
snapshot, the tracer's stage table, git SHA) under
``benchmarks/artifacts/`` (override with ``REPRO_BENCH_ARTIFACTS``).
See docs/observability.md.
"""

import os
import time

import pytest

from repro import obs

#: Where per-figure diagnostic artifacts land; override with
#: REPRO_BENCH_ARTIFACTS.
ARTIFACT_DIR = os.environ.get(
    "REPRO_BENCH_ARTIFACTS",
    os.path.join(os.path.dirname(__file__), "artifacts"),
)

#: Trial workers for the Monte-Carlo figure regenerations; override with
#: REPRO_TRIAL_WORKERS=N (per-trial SeedSequence fan-out keeps the
#: figures bit-identical to serial at any worker count).
TRIAL_WORKERS = max(1, int(os.environ.get("REPRO_TRIAL_WORKERS", "1") or "1"))


def emit(text: str) -> None:
    """Print a benchmark's result block (visible with -s; also kept in
    captured output otherwise)."""
    print("\n" + text + "\n")


@pytest.fixture
def obs_capture(request):
    """Observe one figure test and write its BENCH_*.json artifact.

    Yields the live :class:`~repro.obs.MetricsRegistry` so tests can
    record figure-level results as gauges. On teardown, writes the
    full diagnostic record to ``benchmarks/artifacts/BENCH_<test>.json``.
    """
    with obs.session(metrics=True, tracing=True) as (registry, _):
        start = time.perf_counter()
        yield registry
        wall_s = time.perf_counter() - start
        snapshot = registry.snapshot()
        artifact = {
            "test": request.node.name,
            "wall_s": wall_s,
            "git_sha": obs.git_sha(),
            "metrics": snapshot,
            "spans": obs.get_tracer().aggregate(),
        }
    name = request.node.name.replace("/", "_")
    obs.write_json(os.path.join(ARTIFACT_DIR, f"BENCH_{name}.json"), artifact)


@pytest.fixture
def once(benchmark, obs_capture):
    """Run the experiment exactly once under pytest-benchmark timing.

    Runs inside :func:`obs_capture`, so every figure regeneration gets
    a metrics/trace artifact for free.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
