"""Trial-execution engine: deterministic parallel Monte-Carlo fan-out.

Every paper figure is a Monte-Carlo sweep, and the trials are
embarrassingly parallel — yet correctness demands that parallelism be
*invisible*: the same seed must produce bit-identical results whether
the sweep runs serially or across N worker processes.  This module
provides both halves of that contract:

**Deterministic decomposition** — :func:`spawn_seeds` fans a root seed
out into per-trial :class:`numpy.random.SeedSequence` children.  The
decomposition depends only on the task parameters (seed + trial count),
never on the worker count, so ``workers=1`` and ``workers=8`` draw the
exact same random streams.  Drivers that accept a caller-supplied
``Generator`` first collapse it to root entropy via
:func:`derive_entropy` (one draw), then fan out the same way.

**Pooled execution** — :func:`run_trials` maps a picklable task
function over a task list.  With ``workers<=1`` (or when process pools
are unavailable on the platform) it runs in-process under the caller's
observability context, byte-for-byte the legacy serial behaviour.
With ``workers>1`` it submits to a cached :class:`ProcessPoolExecutor`;
each worker runs its task under a fresh obs session mirroring the
parent's switches and ships back a lossless payload (counters,
histogram sketch buckets, timeseries rings, span trees, flight
records), which the parent merges in *task order* so the merged registry
matches what a serial run would have recorded (up to the last bit of a
histogram's running total, which is summed per task).

The pool is process-global and cached across calls: pool creation costs
~100ms+ (fork + interpreter bookkeeping), which would swamp short
workloads if paid per sweep.  :func:`warm_pool` lets a caller pay
that cost up front, outside the region it times.
"""

from __future__ import annotations

import atexit
import contextvars
import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro import obs
from repro.obs import state

if TYPE_CHECKING:
    # Process-pool machinery (concurrent.futures plus multiprocessing)
    # loads where a pool is made or its failure caught.
    from concurrent.futures import ProcessPoolExecutor

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def derive_entropy(rng: np.random.Generator) -> int:
    """Collapse a live generator to root entropy for seed fan-out.

    Consumes exactly one draw, so a caller-supplied ``rng`` still
    yields reproducible (and rng-state-dependent) trial streams while
    the per-trial decomposition goes through the same
    :class:`~numpy.random.SeedSequence` fan-out as the seeded path.
    """
    return int(rng.integers(0, 2**63))


def spawn_seeds(entropy: int, n: int) -> List[np.random.SeedSequence]:
    """``n`` statistically independent child seeds of ``entropy``.

    Child ``i`` is a pure function of ``(entropy, i)`` — worker count
    and scheduling order cannot change which stream trial ``i`` sees.
    """
    return np.random.SeedSequence(entropy).spawn(n)


def ensure_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """The cached process pool for ``workers`` processes, or None.

    Returns None when ``workers <= 1`` or the platform cannot provide
    a process pool (callers fall back to serial).  A cached pool with a
    different size is torn down and replaced.
    """
    global _pool, _pool_workers
    if workers <= 1:
        return None
    if _pool is not None and _pool_workers == workers:
        return _pool
    shutdown_pool()
    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, NotImplementedError, ImportError):
        return None
    _pool = pool
    _pool_workers = workers
    return pool


def warm_pool(workers: int) -> bool:
    """Spawn the pool's worker processes up front.

    Keeps fork/startup cost out of whatever runs next: the soak runner
    calls it before fanning out scenarios, and the CI parallel-speedup
    step before timing serial vs pooled ``run_uplink_ber``.  Returns
    True when a pool is ready.
    """
    pool = ensure_pool(workers)
    if pool is None:
        return False
    from concurrent.futures.process import BrokenProcessPool

    try:
        list(pool.map(_noop, range(workers)))
    except BrokenProcessPool:
        shutdown_pool()
        return False
    return True


def shutdown_pool() -> None:
    """Tear down the cached pool (idempotent)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


def _noop(_: int) -> None:
    return None


def _run_task(
    fn: Callable[[Any], Any],
    task: Any,
    capture: Optional[Dict[str, Any]],
) -> Any:
    """Worker-side wrapper: run one task, optionally capturing obs.

    With ``capture`` set, the task runs under a fresh obs session whose
    switches mirror the parent's, and the return value is
    ``(result, payload)`` where payload carries everything the parent
    needs to merge: the metrics registry export, finished span trees
    (which carry the stage timings), and the flight recorder's
    retained records.

    The task also runs in an empty :mod:`contextvars` context.  The pool
    forks lazily, often inside the driver's open span, and each worker
    inherits a copy of that span as its current span; without the empty
    context every task span would nest under that stale copy and never
    reach the worker's tracer.
    """
    if capture is None:
        return fn(task), None
    with state.session(
        metrics=capture["metrics"],
        tracing=capture["tracing"],
        recording=capture["recording"],
        fresh=True,
    ) as (registry, tracer):
        if capture["recording"]:
            state.get_recorder().configure(**capture["recorder"])
        result = contextvars.Context().run(fn, task)
        payload = {
            "metrics": registry.to_payload() if capture["metrics"] else None,
            "spans": tracer.to_dicts() if capture["tracing"] else None,
            "forensics": (
                state.get_recorder().to_payload()
                if capture["recording"] else None
            ),
        }
    return result, payload


def _build_capture() -> Optional[Dict[str, Any]]:
    """Worker obs-capture config mirroring the parent's switches.

    None when no observability is enabled (workers skip the session
    machinery entirely).  With recording on, workers must sample under
    the parent's exact policy for the task-order merge to reproduce
    the serial record sequence.
    """
    capture: Dict[str, Any] = {
        "metrics": state.metrics_enabled(),
        "tracing": state.tracing_enabled(),
        "recording": state.recording_enabled(),
    }
    if not any(capture.values()):
        return None
    if capture["recording"]:
        recorder = state.get_recorder()
        capture["recorder"] = {
            "capacity": recorder.capacity,
            "policy": recorder.policy,
        }
    return capture


def _merge_worker_payload(payload: Dict[str, Any]) -> None:
    """Fold one worker obs payload into the parent session."""
    if payload.get("metrics"):
        state.get_registry().merge_payload(payload["metrics"])
    if payload.get("spans"):
        state.get_tracer().absorb(payload["spans"])
    if payload.get("forensics"):
        state.get_recorder().absorb(payload["forensics"])


def run_trials(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int = 1,
) -> List[Any]:
    """Map ``fn`` over ``tasks``, returning results in task order.

    The serial path (``workers<=1``, pool unavailable, or a broken
    pool) executes in-process under the caller's obs context — span
    nesting and metric values are identical to a plain loop.  The
    parallel path captures each worker's obs into a payload and merges
    payloads in task order, so aggregate observability is preserved:
    histogram bucket counts, and so every percentile, equal the serial
    run's, but a histogram's ``total`` (and mean) is summed per task
    and can differ in the last bit; cross-process span trees lose
    absolute timestamps but keep durations and structure.

    ``fn`` and every task must be picklable (module-level function plus
    plain-data task objects).  Results come back in task order
    regardless of completion order, and any exception a task raises
    propagates to the caller just as it would serially.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    pool = ensure_pool(workers)
    if pool is None:
        return [fn(task) for task in tasks]
    from concurrent.futures.process import BrokenProcessPool

    capture = _build_capture()
    try:
        futures = [
            pool.submit(_run_task, fn, task, capture) for task in tasks
        ]
        outcomes = [f.result() for f in futures]
    except BrokenProcessPool:
        shutdown_pool()
        return [fn(task) for task in tasks]
    results: List[Any] = []
    for result, payload in outcomes:
        if payload is not None:
            _merge_worker_payload(payload)
        results.append(result)
    return results


# -- supervised execution -----------------------------------------------------


def _run_supervised_task(
    fn: Callable[[Any], Any],
    task: Any,
    capture: Optional[Dict[str, Any]],
    action: Optional[str],
    stall_s: float,
) -> Any:
    """Worker-side wrapper honouring a sabotage verdict.

    ``action`` is the fault plan's ruling for this attempt: ``"crash"``
    kills the worker process outright (``os._exit``, no cleanup — the
    whole point is an *unclean* death the parent must detect via the
    broken pool), ``"stall"`` sleeps past the supervisor's wait budget
    before running normally, and None runs the task untouched.
    """
    if action == "crash":
        os._exit(13)
    if action == "stall" and stall_s > 0:
        time.sleep(stall_s)
    return _run_task(fn, task, capture)


def _correlation_of(task: Any) -> Dict[str, Any]:
    """Forensics correlation IDs carried by a task, if any."""
    out: Dict[str, Any] = {}
    for attr in ("run_id", "trial", "seq", "corr_id"):
        value = getattr(task, attr, None)
        if value is not None:
            out[attr] = value
    return out


@dataclass(frozen=True)
class DeadLetter:
    """One task abandoned after exhausting its supervised retry budget.

    Keeps the task itself plus its forensics correlation IDs so the
    caller can re-enqueue, report, or attribute the loss without
    reverse-engineering which trial died.
    """

    index: int
    task: Any
    reason: str            # "worker_crash" | "worker_stall"
    attempts: int
    correlation: Dict[str, Any]


@dataclass
class SupervisionReport:
    """Outcome of one :func:`run_trials_supervised` call."""

    results: List[Any]
    dead_letters: List[DeadLetter] = field(default_factory=list)
    crashes: int = 0
    stalls: int = 0
    restarts: int = 0
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.dead_letters


def _dead_letter(
    report: SupervisionReport, index: int, task: Any, kind: Optional[str],
    attempts: int,
) -> None:
    reason = kind or "worker_crash"
    report.dead_letters.append(DeadLetter(
        index=index,
        task=task,
        reason=reason,
        attempts=attempts,
        correlation=_correlation_of(task),
    ))
    obs.counter("engine.worker.dead_letters").inc()


def _supervise_inline(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    report: SupervisionReport,
    pending: Dict[int, int],
    action_for: Callable[[int, int], Optional[Tuple[str, float]]],
    max_attempts: int,
) -> None:
    """Serial supervised execution over the still-pending tasks.

    Sabotage verdicts are honoured *logically*: a "crash"/"stall"
    attempt is counted and retried without killing the interpreter or
    sleeping, so the attempt/retry/dead-letter trajectory — and hence
    every delivered result — is identical to what the pool path
    converges to for the same plan.
    """
    for index in sorted(pending):
        attempt = pending[index]
        while True:
            if attempt >= max_attempts:
                action = action_for(index, attempt - 1)
                _dead_letter(
                    report, index, tasks[index],
                    f"worker_{action[0]}" if action else "worker_crash",
                    attempt,
                )
                break
            action = action_for(index, attempt)
            if action is None:
                report.results[index] = fn(tasks[index])
                break
            if action[0] == "crash":
                report.crashes += 1
                obs.counter("engine.worker.crashes").inc()
            else:
                report.stalls += 1
                obs.counter("engine.worker.stalls").inc()
            attempt += 1
            report.retries += 1
    pending.clear()


def run_trials_supervised(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int = 1,
    sabotage: Optional[Any] = None,
    keys: Optional[Sequence[int]] = None,
    stall_timeout_s: float = 30.0,
    max_attempts: int = 3,
) -> SupervisionReport:
    """:func:`run_trials` that survives crashed and hung workers.

    Detection: a worker that dies mid-task breaks the whole
    :class:`ProcessPoolExecutor` (``BrokenProcessPool``); the pool is
    torn down, rebuilt, and every unfinished task resubmitted.  A
    worker that exceeds ``stall_timeout_s`` without returning is
    declared hung; its task is retried and the eventual stale result
    discarded.  Each retry re-derives the task's own seed (the task
    carries it — see :func:`spawn_seeds`), so a retried trial draws
    exactly the random stream the lost attempt would have.

    A task that keeps losing its worker is dead-lettered after
    ``max_attempts`` total attempts, with its forensics correlation IDs
    (``run_id``/``trial``/``seq``/``corr_id``) preserved on the
    :class:`DeadLetter` so nothing about the loss is silent.

    Args:
        sabotage: optional :class:`repro.faults.FaultPlan` whose
            ``worker_crash``/``worker_stall`` injectors decide, purely
            from ``(key, attempt)``, which attempts die.  Because the
            verdicts are order-independent, the serial path can honour
            them logically and converge to the identical
            result/dead-letter outcome as a real multi-process run.
        keys: stable per-task sabotage keys (defaults to task indices).
            Callers dispatching in batches pass globally stable keys so
            a task's fate does not depend on batch boundaries.
        stall_timeout_s: per-task wait budget before a worker is
            declared hung.
        max_attempts: total attempts (first try + retries) per task.
    """
    tasks = list(tasks)
    report = SupervisionReport(results=[None] * len(tasks))
    if not tasks:
        return report
    if max_attempts < 1:
        max_attempts = 1
    key_list = list(keys) if keys is not None else list(range(len(tasks)))
    plan = sabotage if (
        sabotage is not None and getattr(sabotage, "has_worker_faults", False)
    ) else None

    def action_for(index: int, attempt: int) -> Optional[Tuple[str, float]]:
        if plan is None:
            return None
        return plan.worker_sabotage(key_list[index], attempt)

    pending: Dict[int, int] = {i: 0 for i in range(len(tasks))}
    pool = ensure_pool(workers)
    if pool is None:
        _supervise_inline(fn, tasks, report, pending, action_for,
                          max_attempts)
        return report
    from concurrent.futures import TimeoutError as FutureTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    capture = _build_capture()
    payloads: Dict[int, Optional[Dict[str, Any]]] = {}
    last_kind: Dict[int, str] = {}
    while pending:
        for index in sorted(pending):
            if pending[index] >= max_attempts:
                _dead_letter(report, index, tasks[index],
                             last_kind.get(index), pending[index])
                del pending[index]
        if not pending:
            break
        pool = ensure_pool(workers)
        if pool is None:
            # The platform can no longer provide a pool: finish
            # serially.
            _supervise_inline(fn, tasks, report, pending, action_for,
                              max_attempts)
            break
        futures = {}
        submitted_kind: Dict[int, Optional[str]] = {}
        broken = False
        for index in sorted(pending):
            action = action_for(index, pending[index])
            kind = action[0] if action else None
            stall_s = action[1] if (action and kind == "stall") else 0.0
            submitted_kind[index] = kind
            try:
                futures[index] = pool.submit(
                    _run_supervised_task, fn, tasks[index], capture,
                    kind, stall_s,
                )
            except (BrokenProcessPool, OSError, RuntimeError):
                # A crasher submitted earlier in this round can kill
                # its worker before we finish submitting; the pool
                # then rejects further work.  Stop submitting and let
                # the normal broken-pool recovery handle the round.
                broken = True
                break
        for index in sorted(futures):
            try:
                result, payload = futures[index].result(
                    timeout=0.05 if broken else stall_timeout_s
                )
            except FutureTimeoutError:
                if broken:
                    continue
                report.stalls += 1
                report.retries += 1
                obs.counter("engine.worker.stalls").inc()
                last_kind[index] = "worker_stall"
                pending[index] += 1
                continue
            except BrokenProcessPool:
                broken = True
                continue
            except OSError:
                broken = True
                continue
            report.results[index] = result
            payloads[index] = payload
            del pending[index]
        if broken:
            shutdown_pool()
            report.restarts += 1
            obs.counter("engine.worker.restarts").inc()
            # Blame the attempts the plan marked as crashers; a
            # genuine (un-injected) pool break blames every
            # unfinished task so the loop always makes progress
            # toward retry-or-dead-letter.
            blamed = [
                index for index in sorted(pending)
                if submitted_kind.get(index) == "crash"
            ] or sorted(pending)
            for index in blamed:
                report.crashes += 1
                obs.counter("engine.worker.crashes").inc()
                last_kind[index] = "worker_crash"
                pending[index] += 1
                report.retries += 1
    for index in sorted(payloads):
        payload = payloads[index]
        if payload is not None:
            _merge_worker_payload(payload)
    return report
