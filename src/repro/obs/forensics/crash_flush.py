"""Crash-safe flight-recorder flush: atexit + SIGTERM.

The flight recorder lives in process memory, which is exactly where
evidence dies when a soak run is OOM-killed, a CI job hits its wall
clock, or an operator Ctrl-backslashes a wedged gateway.  Arming
:func:`install_crash_flush` registers one idempotent handler on both
``atexit`` and ``SIGTERM`` that writes whatever the recorder currently
holds to the ``--record`` JSONL path, stamped ``interrupted: true`` in
the header so triage knows the artifact is a partial capture rather
than a completed run.

Contract:

* **Idempotent** — the flush fires at most once no matter how many of
  the registered paths trigger (SIGTERM then atexit, repeated
  installs, explicit :func:`flush_now`).
* **Disarmable** — the normal end-of-run artifact write calls
  :func:`disarm` so a clean exit produces exactly the usual artifact,
  with the prior ``SIGTERM`` disposition restored.
* **Chained** — a previously installed ``SIGTERM`` handler still runs
  after the flush; with no prior handler the default die-by-signal
  disposition is re-raised so exit status stays honest.
* **Best-effort** — flush failures during interpreter teardown are
  swallowed; a crash handler must never mask the original failure.

Beyond the flight recorder, other crash-worthy streams (the serve
telemetry snapshotter) can hook the same atexit/SIGTERM triggers via
:func:`register_aux_flush` — one handler pair serves every armed
stream, and the SIGTERM disposition is only restored once the last
armed party stands down.

Signal registration only works on the main thread; elsewhere the
handler degrades to atexit-only coverage.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import threading
from typing import Any, Callable, Dict, Optional

_lock = threading.Lock()

#: Armed state: {"path": str, "meta": dict}.
_armed: Optional[Dict[str, Any]] = None

#: True once the flush has fired (further triggers are no-ops until
#: the next install re-arms).
_fired = False

#: Auxiliary flush callbacks, keyed by registration name.  Each is
#: called with ``interrupted`` (bool) on atexit/SIGTERM and popped
#: first, so it runs at most once per registration.
_aux: Dict[str, Callable[[bool], None]] = {}

#: True while the atexit/SIGTERM handler pair is installed.
_handlers_on = False

#: Prior SIGTERM handler to chain/restore (None = default or
#: unavailable).
_prev_sigterm: Optional[Any] = None


def _flush(interrupted: bool) -> Optional[str]:
    """Write the recorder's current records; at most once per arm."""
    global _fired
    with _lock:
        if _armed is None or _fired:
            return None
        _fired = True
        path = _armed["path"]
        meta = dict(_armed["meta"])
    try:
        from repro import obs
        from repro.obs.forensics.format import write_recorder

        meta["interrupted"] = interrupted
        return write_recorder(path, obs.get_recorder(), meta)
    except Exception:  # noqa: BLE001 - teardown must not raise
        return None


def _run_aux(interrupted: bool) -> None:
    """Run (and consume) every registered aux flush, best-effort."""
    with _lock:
        callbacks = list(_aux.items())
        _aux.clear()
    for _name, callback in callbacks:
        try:
            callback(interrupted)
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass


def _on_atexit() -> None:
    _flush(interrupted=True)
    _run_aux(interrupted=True)


def _on_sigterm(signum: int, frame: Any) -> None:
    path = _flush(interrupted=True)
    _run_aux(interrupted=True)
    if path is not None:
        try:
            sys.stderr.write(
                f"SIGTERM: partial forensics records flushed to {path}\n"
            )
        except Exception:  # noqa: BLE001
            pass
    prev = _prev_sigterm
    if callable(prev):
        prev(signum, frame)
        return
    # Restore the default disposition and re-raise so the process
    # still dies "killed by SIGTERM" (exit status matters to CI).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _ensure_handlers() -> None:
    """Install the atexit + SIGTERM handler pair once."""
    global _handlers_on, _prev_sigterm
    with _lock:
        if _handlers_on:
            return
        _handlers_on = True
    atexit.register(_on_atexit)
    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        # Not the main thread: atexit still covers normal interpreter
        # shutdown; signals stay with whoever owns them.
        previous = None
    else:
        if previous in (signal.SIG_DFL, signal.SIG_IGN, None):
            previous = None
    with _lock:
        _prev_sigterm = previous


def _maybe_release_handlers() -> None:
    """Remove the handler pair once no stream needs it any more."""
    global _handlers_on, _prev_sigterm
    with _lock:
        if not _handlers_on or _armed is not None or _aux:
            return
        _handlers_on = False
        prev = _prev_sigterm
        _prev_sigterm = None
    atexit.unregister(_on_atexit)
    try:
        current = signal.getsignal(signal.SIGTERM)
        if current is _on_sigterm:
            signal.signal(signal.SIGTERM, prev or signal.SIG_DFL)
    except ValueError:
        pass


def install_crash_flush(
    path: str, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Arm the atexit + SIGTERM flush targeting ``path``.

    Re-installing simply retargets (and re-arms) the existing handler;
    handlers are never stacked.
    """
    global _armed, _fired
    with _lock:
        _armed = {"path": str(path), "meta": dict(meta or {})}
        _fired = False
    _ensure_handlers()


def register_aux_flush(
    name: str, callback: Callable[[bool], None]
) -> None:
    """Register an auxiliary crash-flush callback under ``name``.

    The callback is invoked with ``interrupted=True`` on atexit or
    SIGTERM, at most once per registration (it is consumed when run).
    Re-registering the same name replaces the callback.  Streams that
    close cleanly must call :func:`unregister_aux_flush`.
    """
    with _lock:
        _aux[str(name)] = callback
    _ensure_handlers()


def unregister_aux_flush(name: str) -> None:
    """Remove an aux callback; releases the handlers when it was the
    last armed party.  No-op for unknown names."""
    with _lock:
        _aux.pop(str(name), None)
    _maybe_release_handlers()


def disarm() -> None:
    """Disarm without flushing; restores the prior SIGTERM handler
    (unless aux streams are still registered, which keep it armed).

    Safe to call when not armed (no-op), so every CLI exit path can
    call it unconditionally.
    """
    global _armed, _fired
    with _lock:
        _armed = None
        _fired = False
    _maybe_release_handlers()


def armed() -> bool:
    """True when a crash flush is currently armed (test hook)."""
    with _lock:
        return _armed is not None and not _fired


def flush_now(interrupted: bool = True) -> Optional[str]:
    """Trigger the flush explicitly (test hook); returns the path."""
    return _flush(interrupted=interrupted)
