"""Streaming decode gateway: the always-on serving layer.

The paper's gateway "provides the tags with Internet connectivity" as
a continuously running service, not a batch of trials.  This package
wraps the decode pipeline in exactly that shape: a virtual-time event
loop fed by the :mod:`repro.mac.traffic` / :mod:`repro.traces.synthetic`
arrival models, with

- bounded ingress/egress queues and **priority-aware load shedding**
  (newest-lowest-priority first, every shed counted in ``serve.shed``
  with a reason label — nothing is dropped silently);
- **per-request deadline budgets** (:class:`DeadlineBudget`) checked at
  admission and dispatch, so unmeetable requests are abandoned early
  instead of clogging the pipeline;
- **supervised decode workers** via
  :func:`repro.sim.engine.run_trials_supervised` — crashed or hung pool
  workers are detected, restarted, and their in-flight requests retried
  under re-derived deterministic seeds or dead-lettered with forensics
  correlation IDs intact;
- per-tag **circuit breakers** reusing the
  :mod:`repro.net.gateway` breaker state machine; and
- graceful drain plus crash-safe artifact flush (see
  :mod:`repro.obs.forensics.crash_flush`).

Control flow lives entirely in virtual time: arrivals, queueing,
shedding, deadlines, and service completions are a pure function of the
seed, so ``workers=0`` and ``workers=2`` deliver identical payload
sets and the whole overload story is replayable.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.serve.arrivals": ["ARRIVAL_PROFILES", "generate_arrivals"],
    "repro.serve.breaker": ["TagBreaker"],
    "repro.serve.deadline": ["DeadlineBudget"],
    "repro.serve.decode": [
        "ServeBatchTask", "ServeDecodeTask", "decode_batch_task",
    ],
    "repro.serve.gateway": [
        "ServeConfig", "ServeResult", "StreamingDecodeGateway", "run_serve",
    ],
    "repro.serve.lifecycle": ["LifecycleTracker"],
    "repro.serve.queues": ["BoundedPriorityQueue", "ShedEvent"],
    "repro.serve.report": ["ServeReport", "render_serve_text"],
    "repro.serve.request": [
        "PRIORITIES", "SHED_REASONS", "SPAN_REQUEST", "STATUSES",
        "TERMINAL_SPANS", "DecodeRequest", "ServeOutcome",
    ],
    "repro.serve.telemetry": ["TelemetrySnapshotter", "read_telemetry"],
})
