"""Trace spans: timed, attributed, hierarchical execution records.

The decode pipeline is a tree of stages (a BER run contains trials,
a trial contains conditioning / detection / combining / slicing), and
diagnosing a bad BER point means knowing which stage went weird and
how long it took. A :class:`Span` records wall-time and structured
attributes for one stage; nesting follows the call structure via a
context variable.

Usage — context manager with attributes, or decorator::

    with span("uplink.decode", distance_m=d) as sp:
        ...
        if sp is not None:
            sp.set(selected=list(good))

    @span("uplink.trial")
    def run_trial(...): ...

When tracing is disabled (the default) ``span(...)`` yields ``None``
and costs one attribute lookup plus a boolean check.

The tracer also keeps a per-name stage table (calls, cumulative, self
and slowest time), charged as each wall-clock span closes: the answer
to "where does the time go" that ``--profile`` prints and run
manifests store under ``profile``.
"""

from __future__ import annotations

import contextvars
import functools
import time
from typing import Any, Dict, List, Optional

from repro.obs import state

#: Hard cap on recorded root spans per tracer; past it spans are counted
#: and timed but not stored (keeps week-long sims from exhausting
#: memory).
MAX_SPANS = 100_000

#: The innermost open :class:`span` (its ``_span`` is None when the cap
#: dropped it).
_current: contextvars.ContextVar[Optional["span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One timed pipeline stage.

    Attributes:
        name: dotted stage name (``uplink.decode``).
        attributes: structured key/value diagnostics.
        start_s / end_s: ``perf_counter`` bounds (``end_s`` None while
            open).
        children: nested spans, in start order.
        error: exception class name if the stage raised.
    """

    __slots__ = ("name", "attributes", "start_s", "end_s", "children", "error")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.children: List["Span"] = []
        self.error: Optional[str] = None

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    @classmethod
    def at(
        cls,
        name: str,
        start_s: float,
        end_s: float,
        **attributes: Any,
    ) -> "Span":
        """Build a closed span with explicit bounds.

        For producers that measure on a *virtual* clock (the serve
        loop): the span never passes through ``perf_counter``, so two
        runs making the same control decisions build byte-identical
        span trees regardless of worker count or wall-clock jitter.
        """
        sp = cls(name, attributes)
        sp.start_s = float(start_s)
        sp.end_s = float(end_s)
        return sp

    def add_child(self, child: "Span") -> "Span":
        """Append a nested span; returns the child for chaining."""
        self.children.append(child)
        return child

    def set(self, **attributes: Any) -> "Span":
        """Attach diagnostics to the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (numpy values coerced)."""
        from repro.obs.export import jsonable

        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "attributes": jsonable(self.attributes),
            "error": self.error,
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Collects finished span trees and the per-name stage table."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.roots: List[Span] = []
        self.started = 0
        self.dropped = 0
        #: ``name -> [calls, total_s, self_s, max_s]``.
        self.stages: Dict[str, List[Any]] = {}

    def reset(self) -> None:
        self.roots.clear()
        self.started = 0
        self.dropped = 0
        self.stages.clear()

    def charge(self, name: str, elapsed_s: float, self_s: float) -> None:
        """Add one closed span to the stage table."""
        entry = self.stages.get(name)
        if entry is None:
            self.stages[name] = [1, elapsed_s, self_s, elapsed_s]
            return
        entry[0] += 1
        entry[1] += elapsed_s
        entry[2] += self_s
        if elapsed_s > entry[3]:
            entry[3] = elapsed_s

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [root.to_dict() for root in self.roots]

    def adopt(self, root: Span) -> None:
        """Attach an externally built span tree (see :meth:`Span.at`)
        as a root, honouring the same cap/drop accounting the live
        ``span`` context manager applies.  Its virtual-time bounds stay
        out of the stage table."""
        def count(sp: Span) -> int:
            return 1 + sum(count(c) for c in sp.children)

        self.started += count(root)
        if len(self.roots) >= self.max_spans:
            self.dropped += 1
            return
        self.roots.append(root)

    def absorb(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Graft span trees exported by another tracer onto this one.

        Takes the :meth:`to_dicts` output of a worker-process tracer
        and rebuilds it here, preserving names, nesting, attributes,
        errors, and durations, and charges every rebuilt span to the
        stage table (self time is its duration minus its children's).
        The trees become children of the open span, when there is one,
        so a pooled run records the tree its serial run would, and
        their durations count as that span's child time; otherwise they
        become roots.  Absolute ``perf_counter`` bounds are meaningless
        across processes, so rebuilt spans get ``start_s=0`` and
        ``end_s=duration_s``.
        """
        def rebuild(d: Dict[str, Any]) -> Span:
            sp = Span(d.get("name", "?"), d.get("attributes") or {})
            sp.start_s = 0.0
            duration = d.get("duration_s")
            sp.end_s = float(duration) if duration is not None else 0.0
            sp.error = d.get("error")
            sp.children = [rebuild(c) for c in d.get("children", [])]
            self.started += 1
            self.charge(
                sp.name, sp.end_s,
                max(0.0, sp.end_s - sum(c.end_s for c in sp.children)),
            )
            return sp

        frame = _current.get()
        parent = frame._span if frame is not None else None
        for root_dict in span_dicts:
            root = rebuild(root_dict)
            if frame is not None:
                frame._child_s += root.end_s
            if parent is not None:
                parent.children.append(root)
            elif len(self.roots) >= self.max_spans:
                self.dropped += 1
            else:
                self.roots.append(root)

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """The stage table ``{name: {calls, total_s, self_s, max_s}}``,
        most cumulative time first.

        ``self_s`` is a stage's time outside the spans it opened, and
        never negative.  The table counts spans past the root cap too;
        absorbed worker spans add the time each worker measured, so with
        N workers a stage's ``total_s`` can exceed the run's wall time.
        The span they are grafted under counts them as child time, so
        its ``self_s`` leaves out its wait for the pool; that ``self_s``
        is a lower bound, 0 whenever the workers' summed time exceeds
        the span's wall time.
        """
        ordered = sorted(
            self.stages.items(), key=lambda item: item[1][1], reverse=True
        )
        return {
            name: {"calls": calls, "total_s": total_s,
                   "self_s": self_s, "max_s": max_s}
            for name, (calls, total_s, self_s, max_s) in ordered
        }


def current_span() -> Optional[Span]:
    """The innermost open span, or None (also None when disabled or
    when the root cap dropped it)."""
    frame = _current.get()
    return frame._span if frame is not None else None


class span:
    """Context manager / decorator starting a :class:`Span`.

    As a context manager it yields the live :class:`Span` (or ``None``
    when tracing is disabled — callers attaching attributes must
    guard). As a decorator it wraps the function body in a span named
    after the constructor argument.
    """

    __slots__ = ("name", "attrs", "_span", "_token", "_tracer", "_start",
                 "_child_s")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._span: Optional[Span] = None
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[Span]:
        if not state.tracing_enabled():
            return None
        tracer = state.get_tracer()
        tracer.started += 1
        parent = _current.get()
        if parent is None and len(tracer.roots) < tracer.max_spans:
            sp = Span(self.name, self.attrs)
            tracer.roots.append(sp)
        elif parent is not None and parent._span is not None:
            sp = parent._span.add_child(Span(self.name, self.attrs))
        else:
            # Past the cap: not stored (nor is anything it opens), but
            # still timed into the stage table.
            sp = None
            tracer.dropped += 1
        self._span = sp
        self._tracer = tracer
        self._start = time.perf_counter() if sp is None else sp.start_s
        self._child_s = 0.0
        self._token = _current.set(self)
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is None:
            return False
        end = time.perf_counter()
        sp = self._span
        if sp is not None:
            sp.end_s = end
            if exc_type is not None:
                sp.error = exc_type.__name__
        _current.reset(self._token)
        elapsed = end - self._start
        parent = _current.get()
        if parent is not None:
            parent._child_s += elapsed
        # Absorbed worker time can sum past the span's own wall time.
        self._tracer.charge(self.name, elapsed,
                            max(0.0, elapsed - self._child_s))
        self._span = None
        self._token = None
        self._tracer = None
        return False

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(self.name, **self.attrs):
                return fn(*args, **kwargs)

        return wrapper
