"""The decode flight recorder: a bounded ring buffer of stage records.

One *record* describes one decode attempt (an uplink transmission, a
coded correlation message, a downlink chunk, an ARQ frame) and carries:

* correlation IDs — ``run_id`` (minted by the driver from its name and
  effective seed), ``trial`` (index within the sweep), ``packet``
  (frame/attempt index within the trial);
* a ``stages`` dict — each pipeline stage contributes one entry of
  plain-data diagnostics (conditioning stats, correlation scores, MRC
  weights, per-bit slicer margins, fault evidence, ...);
* the outcome — bit-error count, erroneous bit indices, and a terminal
  ``failure`` exception name when the decode died outright.

Records contain **no wall-clock data** — every field is a deterministic
function of the seeded simulation, which is what makes the
``workers=N == serial`` record-identity contract testable.

Memory is bounded by ``capacity`` with three sampling policies:

* ``"head"`` — keep the first ``capacity`` records (startup captures);
* ``"tail"`` — ring buffer of the most recent ``capacity`` records;
* ``"errors"`` — keep only records with bit errors or a failure, most
  recent ``capacity`` of them (the triage default: healthy decodes
  vastly outnumber interesting ones).

The disabled path follows the metrics layer's null-object contract:
module level :func:`stage`/:func:`begin`/:func:`commit` are a single
boolean check while recording is off, and :data:`NULL_RECORD_CONTEXT`
is the shared no-op context :func:`ensure_record` hands out.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs import state
from repro.obs.export import jsonable

#: Default ring capacity (records, not bytes — a record is a few KB).
DEFAULT_CAPACITY = 256

#: Supported sampling policies.
POLICIES = ("head", "tail", "errors")


class FlightRecorder:
    """Bounded collector of per-decode stage records.

    Like the rest of :mod:`repro.obs` this is deliberately
    single-threaded; nesting (an ARQ frame opening per-attempt decode
    records) goes through an explicit stack, not locks.

    Attributes:
        capacity: maximum retained records.
        policy: one of :data:`POLICIES`.
        records: the retained records (plain dicts, JSON-safe).
        seen: records committed since the last reset (retained or not).
        errors_seen: committed records that carried errors or a failure.
        dropped: committed records the policy declined to retain (or
            evicted from the ring).
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, policy: str = "errors"
    ) -> None:
        self.capacity = DEFAULT_CAPACITY
        self.policy = "errors"
        self.configure(capacity=capacity, policy=policy)
        self.records: List[Dict[str, Any]] = []
        self.seen = 0
        self.errors_seen = 0
        self.dropped = 0
        #: Open (begun, not yet committed) records, innermost last.
        self._stack: List[Dict[str, Any]] = []

    def configure(
        self, capacity: Optional[int] = None, policy: Optional[str] = None
    ) -> None:
        """Adjust capacity/policy (existing records are untouched)."""
        if capacity is not None:
            if int(capacity) < 1:
                raise ConfigurationError("recorder capacity must be >= 1")
            self.capacity = int(capacity)
        if policy is not None:
            if policy not in POLICIES:
                raise ConfigurationError(
                    f"recorder policy must be one of {POLICIES}, got {policy!r}"
                )
            self.policy = policy

    def reset(self) -> None:
        self.records.clear()
        self._stack.clear()
        self.seen = 0
        self.errors_seen = 0
        self.dropped = 0

    # -- capture ---------------------------------------------------------------

    @property
    def open_record(self) -> Optional[Dict[str, Any]]:
        """The innermost open record, or None."""
        return self._stack[-1] if self._stack else None

    def begin(
        self,
        kind: str,
        run_id: str = "",
        trial: int = 0,
        packet: int = 0,
    ) -> Dict[str, Any]:
        """Open a record for one decode attempt.

        Nested ``begin`` calls stack: stage data lands in the innermost
        open record until its :meth:`commit`.
        """
        record: Dict[str, Any] = {
            "kind": str(kind),
            "run_id": str(run_id),
            "trial": int(trial),
            "packet": int(packet),
            "stages": {},
            "errors": 0,
            "error_bits": [],
            "failure": None,
        }
        self._stack.append(record)
        return record

    def stage(self, name: str, **fields: Any) -> None:
        """Attach one stage's diagnostics to the innermost open record.

        Fields are coerced to plain JSON-safe python eagerly (numpy
        arrays become lists) so records pickle cheaply across the
        process pool and compare bit-for-bit between serial and pooled
        runs. Re-staging the same name merges/overwrites fields — an
        ARQ frame's later attempts supersede earlier ones, leaving the
        attempt that decided the frame's fate.
        """
        if not self._stack:
            return
        stages = self._stack[-1]["stages"]
        entry = stages.get(name)
        data = jsonable(fields)
        if entry is None:
            stages[name] = data
        else:
            entry.update(data)

    def commit(
        self,
        errors: int = 0,
        error_bits: Any = (),
        failure: Optional[str] = None,
    ) -> None:
        """Close the innermost open record and apply the sampling policy."""
        if not self._stack:
            return
        record = self._stack.pop()
        record["errors"] = int(errors)
        record["error_bits"] = [int(b) for b in error_bits]
        record["failure"] = failure
        self.seen += 1
        interesting = record["errors"] > 0 or failure is not None
        if interesting:
            self.errors_seen += 1
        if self.policy == "errors" and not interesting:
            self.dropped += 1
            return
        if self.policy == "head" and len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self._retain(record)

    def _retain(self, record: Dict[str, Any]) -> None:
        """Append with ring eviction (head policy never gets here full)."""
        self.records.append(record)
        if len(self.records) > self.capacity:
            del self.records[0]
            self.dropped += 1

    # -- cross-process merge ---------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Lossless export for the engine's worker->parent channel."""
        return {
            "seen": self.seen,
            "errors_seen": self.errors_seen,
            "dropped": self.dropped,
            "records": list(self.records),
        }

    def absorb(self, payload: Dict[str, Any]) -> None:
        """Fold a worker recorder's :meth:`to_payload` into this one.

        The engine merges payloads in task order and each worker's
        retained records are (a prefix-or-filter of) its task's records
        under the same policy, so absorbing reproduces exactly the
        record sequence a serial run would have retained.
        """
        self.seen += int(payload.get("seen", 0))
        self.errors_seen += int(payload.get("errors_seen", 0))
        self.dropped += int(payload.get("dropped", 0))
        for record in payload.get("records", ()):
            if self.policy == "head" and len(self.records) >= self.capacity:
                self.dropped += 1
                continue
            self._retain(record)


# -- module-level capture API (the zero-overhead call sites) -------------------


def begin(kind: str, run_id: str = "", trial: int = 0, packet: int = 0) -> None:
    """Open a record on the live recorder (no-op while recording is off)."""
    if state.recording_enabled():
        state.get_recorder().begin(
            kind, run_id=run_id, trial=trial, packet=packet
        )


def stage(name: str, **fields: Any) -> None:
    """Stage diagnostics into the open record (one boolean check when off)."""
    if state.recording_enabled():
        state.get_recorder().stage(name, **fields)


def commit(
    errors: int = 0, error_bits: Any = (), failure: Optional[str] = None
) -> None:
    """Commit the open record (no-op while recording is off)."""
    if state.recording_enabled():
        state.get_recorder().commit(
            errors=errors, error_bits=error_bits, failure=failure
        )


class _EnsureRecordContext:
    """Live context: owns an ad-hoc record unless one is already open.

    Decoders use this so direct calls (outside a driver that minted
    correlation IDs) still produce records, while driver-opened records
    simply accumulate the decoder's stages.
    """

    __slots__ = ("_kind", "_owned")

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._owned = False

    def __enter__(self) -> "_EnsureRecordContext":
        recorder = state.get_recorder()
        if recorder.open_record is None:
            recorder.begin(self._kind, run_id="adhoc")
            self._owned = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._owned:
            recorder = state.get_recorder()
            if exc is not None:
                recorder.commit(failure=type(exc).__name__)
            elif recorder.open_record is not None:
                recorder.commit()
        return False


class _NullRecordContext:
    __slots__ = ()

    def __enter__(self) -> "_NullRecordContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared disabled-path context (one allocation per process).
NULL_RECORD_CONTEXT = _NullRecordContext()


def ensure_record(kind: str):
    """A record context for a decoder entry point.

    While recording is on: opens an ad-hoc record if none is open
    (committing it on exit, with the exception name as ``failure`` if
    the decode raises); nests silently otherwise. While off: the shared
    no-op context.
    """
    if state.recording_enabled():
        return _EnsureRecordContext(kind)
    return NULL_RECORD_CONTEXT
