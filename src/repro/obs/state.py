"""Global observability runtime state.

One process-wide switchboard decides whether the instrumentation
sprinkled through the pipeline does anything: when both metrics and
tracing are off (the default), every instrumentation call is a single
boolean check, so the hot decode paths pay effectively nothing.

The registry and tracer singletons are created lazily so importing
:mod:`repro.obs.state` never pulls in the rest of the package (the
instrumented modules import this module at call sites only).

This layer is deliberately single-threaded, matching the simulators it
observes; nothing here takes locks.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

_metrics_enabled = False
_tracing_enabled = False
_recording_enabled = False
_manifest_dir: Optional[str] = None

_registry = None
_tracer = None
_recorder = None


def metrics_enabled() -> bool:
    """True when metric emission is on."""
    return _metrics_enabled


def tracing_enabled() -> bool:
    """True when span recording is on."""
    return _tracing_enabled


def recording_enabled() -> bool:
    """True when the decode flight recorder is capturing."""
    return _recording_enabled


def enabled() -> bool:
    """True when any instrumentation is on."""
    return _metrics_enabled or _tracing_enabled or _recording_enabled


def manifest_dir() -> Optional[str]:
    """Directory run manifests are auto-written to, or None."""
    return _manifest_dir


def configure(
    metrics: Optional[bool] = None,
    tracing: Optional[bool] = None,
    recording: Optional[bool] = None,
    manifest_dir: Optional[str] = None,
) -> None:
    """Set the global observability switches.

    Args:
        metrics: turn metric emission on/off (None = leave unchanged).
        tracing: turn span recording on/off (None = leave unchanged).
        recording: turn the decode flight recorder on/off (None =
            leave unchanged).
        manifest_dir: when set, every instrumented experiment driver
            writes its run manifest under this directory.
    """
    global _metrics_enabled, _tracing_enabled, _recording_enabled
    global _manifest_dir
    if metrics is not None:
        _metrics_enabled = bool(metrics)
    if tracing is not None:
        _tracing_enabled = bool(tracing)
    if recording is not None:
        _recording_enabled = bool(recording)
    if manifest_dir is not None:
        _manifest_dir = str(manifest_dir)


def enable(metrics: bool = True, tracing: bool = True,
           recording: bool = False) -> None:
    """Turn instrumentation on (metrics + tracing by default)."""
    configure(metrics=metrics, tracing=tracing, recording=recording)


def disable() -> None:
    """Turn all instrumentation off and clear the manifest directory."""
    global _metrics_enabled, _tracing_enabled, _recording_enabled
    global _manifest_dir
    _metrics_enabled = False
    _tracing_enabled = False
    _recording_enabled = False
    _manifest_dir = None


def get_registry():
    """The process-wide :class:`repro.obs.metrics.MetricsRegistry`."""
    global _registry
    if _registry is None:
        from repro.obs.metrics import MetricsRegistry

        _registry = MetricsRegistry()
    return _registry


def get_tracer():
    """The process-wide :class:`repro.obs.tracing.Tracer`."""
    global _tracer
    if _tracer is None:
        from repro.obs.tracing import Tracer

        _tracer = Tracer()
    return _tracer


def get_recorder():
    """The process-wide
    :class:`repro.obs.forensics.recorder.FlightRecorder`."""
    global _recorder
    if _recorder is None:
        from repro.obs.forensics.recorder import FlightRecorder

        _recorder = FlightRecorder()
    return _recorder


def reset() -> None:
    """Clear all collected metrics, spans, stage timings and records
    (switches are untouched)."""
    if _registry is not None:
        _registry.reset()
    if _tracer is not None:
        _tracer.reset()
    if _recorder is not None:
        _recorder.reset()


@contextlib.contextmanager
def session(
    metrics: bool = True,
    tracing: bool = True,
    recording: bool = False,
    manifest_dir: Optional[str] = None,
    fresh: bool = True,
) -> Iterator[Tuple[object, object]]:
    """Temporarily enable instrumentation; restore previous state on exit.

    Used by tests, the benchmark harness, and anything that wants a
    scoped observation window::

        with obs.session() as (registry, tracer):
            run_uplink_ber(...)
            snapshot = registry.snapshot()

    Args:
        metrics: enable metric emission inside the block.
        tracing: enable span recording (and the stage table) inside
            the block.
        recording: enable the decode flight recorder inside the block.
        manifest_dir: auto-write manifests under this directory.
        fresh: clear previously collected data on entry.
    """
    global _metrics_enabled, _tracing_enabled, _recording_enabled
    global _manifest_dir
    saved = (
        _metrics_enabled, _tracing_enabled, _recording_enabled, _manifest_dir,
    )
    _metrics_enabled = metrics
    _tracing_enabled = tracing
    _recording_enabled = recording
    _manifest_dir = str(manifest_dir) if manifest_dir is not None else None
    if fresh:
        reset()
    try:
        yield get_registry(), get_tracer()
    finally:
        (_metrics_enabled, _tracing_enabled, _recording_enabled,
         _manifest_dir) = saved
