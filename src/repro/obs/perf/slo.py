"""Declarative SLOs over the metrics registry, with typed alerts.

An SLO rule states an *objective* the running system must hold, in a
one-line mini-language::

    uplink.delivery.rate >= 0.99 over 200 frames
    gateway.breaker.open == 0
    uplink.decode.latency_s.p95 <= 0.25 over 50 samples
    uplink.ber.window.mean <= 0.05 over 20 frames ! warn
    gateway.delivery.rate >= 0.8 over 10 frames ! critical quarantine
    serve.request.ok >= 0.99 budget 30d ! critical quarantine

Grammar: ``<metric>[.<stat>] <op> <threshold> [over <N> <unit>]
[budget <duration>] [! <severity> [<action>]]``.  The ``over`` window
applies to time-series metrics (last *N* samples); the unit word
(frames, samples, polls, …) is documentation only.  ``<stat>`` is one
of ``rate, mean, min, max, p50, p95, p99, count, last, value, sum``
and defaults to the metric's natural value (counter/gauge value,
histogram mean, time-series mean).

A ``budget`` clause turns the rule into an *error-budget objective*:
the metric must name a 0/1 good-event time series, the op must be
``>=`` with a target in (0, 1), and the duration (``30d``, ``6h``,
``45s``…) is the budget window.  Budget rules are not point-in-time
checked by :meth:`SloEngine.evaluate`; they are watched continuously
by the engine's :class:`~repro.obs.perf.burnrate.BurnRateEngine`
(multi-window burn rates, Google-SRE style — see that module).

:meth:`SloEngine.evaluate` checks every plain rule against a registry
and emits an :class:`AlertEvent` per *violated* rule (the objective
not holding).  Rules whose metric has no data yet are skipped — an SLO
on ``uplink.delivery`` cannot fail before the first frame.  Consumers:
the CLI (``--slo`` → exit code 4), the gateway (alert-driven
quarantine pre-emption + burn-rate watching), and manifests/reports.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.perf.burnrate import BudgetObjective, BurnRateEngine

#: Duration-unit multipliers for the ``budget`` clause.
DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
                  "w": 604800.0}

#: Comparison operators, objective form: alert when NOT satisfied.
_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">=": lambda v, t: v >= t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    "<": lambda v, t: v < t,
    "==": lambda v, t: v == t,
    "!=": lambda v, t: v != t,
}

#: Stat suffixes resolvable against a metric.
STATS = ("rate", "mean", "min", "max", "p50", "p95", "p99", "count",
         "last", "value", "sum")

#: Recognised severities, mildest first.
SEVERITIES = ("info", "warn", "critical")

_RULE_RE = re.compile(
    r"^\s*(?P<metric>[A-Za-z0-9_.]+)\s*"
    r"(?P<op>>=|<=|==|!=|>|<)\s*"
    r"(?P<threshold>[-+0-9.eE]+)"
    r"(?:\s+over\s+(?P<window>\d+)\s*(?P<unit>[A-Za-z_]*))?"
    r"(?:\s+budget\s+(?P<budget>\d+(?:\.\d+)?)\s*"
    r"(?P<budget_unit>[smhdw]?))?"
    r"(?:\s*!\s*(?P<severity>[A-Za-z]+)(?:\s+(?P<action>[A-Za-z_]+))?)?"
    r"\s*$"
)


@dataclass(frozen=True)
class SloRule:
    """One declarative objective.

    Attributes:
        metric: full metric path, possibly ending in a stat suffix.
        op: comparison the objective must satisfy.
        threshold: objective bound.
        window: sample window for time-series stats (None = whole ring).
        unit: documentation word from the spec ("frames", "samples").
        severity: "info" | "warn" | "critical".
        action: optional consumer hint (e.g. "quarantine" for the
            gateway's pre-emption hook).
        budget_s: error-budget window in seconds; non-None marks this
            as a budget objective handled by the burn-rate engine
            rather than point-in-time evaluation.
    """

    metric: str
    op: str
    threshold: float
    window: Optional[int] = None
    unit: str = "samples"
    severity: str = "critical"
    action: Optional[str] = None
    budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigurationError(f"unknown SLO operator {self.op!r}")
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"SLO severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )
        if self.window is not None and self.window < 1:
            raise ConfigurationError("SLO window must be >= 1")
        if self.budget_s is not None:
            if self.op != ">=":
                raise ConfigurationError(
                    "budget objectives must use >= (a good-event "
                    f"fraction target), got {self.op!r}"
                )
            if not (0.0 < self.threshold < 1.0):
                raise ConfigurationError(
                    "budget objective target must be in (0, 1), got "
                    f"{self.threshold!r}"
                )
            if self.budget_s <= 0:
                raise ConfigurationError("budget window must be positive")

    @property
    def is_budget(self) -> bool:
        return self.budget_s is not None

    def to_objective(self) -> BudgetObjective:
        """The burn-rate objective form of a budget rule."""
        if self.budget_s is None:
            raise ConfigurationError(
                f"rule {self.describe()!r} has no budget clause"
            )
        return BudgetObjective(
            metric=self.metric,
            target=self.threshold,
            budget_s=self.budget_s,
            severity=self.severity,
            action=self.action,
        )

    def satisfied_by(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def describe(self) -> str:
        text = f"{self.metric} {self.op} {self.threshold:g}"
        if self.window is not None:
            text += f" over {self.window} {self.unit}"
        if self.budget_s is not None:
            text += f" budget {self.budget_s:g}s"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "window": self.window,
            "unit": self.unit,
            "severity": self.severity,
            "action": self.action,
            "budget_s": self.budget_s,
        }


@dataclass(frozen=True)
class AlertEvent:
    """One fired alert: a rule observed in violation.

    Attributes:
        rule: the violated rule.
        value: the observed value that broke the objective.
        fired_at_s: ``time.time()`` when the engine evaluated.
        context: evaluation context (e.g. ``{"poll_index": 12}``).
    """

    rule: SloRule
    value: float
    fired_at_s: float = field(default_factory=time.time)
    context: Dict[str, Any] = field(default_factory=dict)

    @property
    def message(self) -> str:
        return (
            f"SLO violated: {self.rule.describe()} "
            f"(observed {self.value:g}) [{self.rule.severity}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule.to_dict(),
            "value": self.value,
            "fired_at_s": self.fired_at_s,
            "message": self.message,
            "context": dict(self.context),
        }


def parse_slo_rule(text: str) -> SloRule:
    """Parse one rule line of the mini-language (see module docstring)."""
    m = _RULE_RE.match(text)
    if m is None:
        raise ConfigurationError(
            f"cannot parse SLO rule {text!r}; expected "
            "'<metric> <op> <value> [over <N> <unit>] [! <severity> "
            "[<action>]]'"
        )
    try:
        threshold = float(m.group("threshold"))
    except ValueError:
        raise ConfigurationError(
            f"bad SLO threshold {m.group('threshold')!r} in {text!r}"
        )
    window = m.group("window")
    severity = (m.group("severity") or "critical").lower()
    if severity not in SEVERITIES:
        raise ConfigurationError(
            f"SLO severity must be one of {SEVERITIES}, got {severity!r}"
        )
    budget_s = None
    if m.group("budget"):
        unit_s = DURATION_UNITS[m.group("budget_unit") or "s"]
        budget_s = float(m.group("budget")) * unit_s
    return SloRule(
        metric=m.group("metric"),
        op=m.group("op"),
        threshold=threshold,
        window=int(window) if window else None,
        unit=m.group("unit") or "samples",
        severity=severity,
        action=m.group("action"),
        budget_s=budget_s,
    )


def parse_slo_spec(spec: str) -> List[SloRule]:
    """Parse a ``;``-separated multi-rule spec (blank rules ignored)."""
    rules = [parse_slo_rule(part) for part in spec.split(";") if part.strip()]
    if not rules:
        raise ConfigurationError("SLO spec contains no rules")
    return rules


def resolve_metric_value(
    registry, metric: str, window: Optional[int] = None
) -> Optional[float]:
    """Look up ``metric`` (with optional stat suffix) in a registry.

    Returns None when the metric does not exist yet or has no data —
    the engine treats that as "not yet evaluable", never as a
    violation.
    """
    name, stat = metric, None
    if metric not in registry:
        head, _, tail = metric.rpartition(".")
        if tail in STATS and head in registry:
            name, stat = head, tail
        else:
            return None
    obj = registry._metrics[name]  # same-package access, kinds are ours
    kind = getattr(obj, "kind", None)
    if kind in ("counter", "gauge"):
        value = obj.value
        if stat not in (None, "value", "last"):
            return None
        return float(value) if value is not None else None
    if kind == "timeseries":
        if stat in (None, "mean", "rate"):
            return obj.stats(window)["mean"]
        if stat == "last":
            return obj.last()
        if stat == "count":
            return float(obj.count)
        value = obj.stats(window).get(stat)
        return float(value) if value is not None else None
    if kind == "quantile_sketch":
        if obj.count == 0:
            return None
        if stat in (None, "mean"):
            return obj.mean
        if stat == "count":
            return float(obj.count)
        if stat == "sum":
            return obj.total
        if stat == "min":
            return obj.min
        if stat == "max":
            return obj.max
        if stat in ("p50", "p95", "p99"):
            return obj.percentile(float(stat[1:]))
        return None
    return None


class SloEngine:
    """Evaluates a rule set against a registry, accumulating alerts.

    Budget rules (``budget`` clause) are split out at construction
    into :attr:`burn`, a :class:`BurnRateEngine` the owner drives on
    its own cadence (the serve loop evaluates it every telemetry
    tick); :meth:`evaluate` only point-in-time checks the plain rules.

    Attributes:
        rules: every parsed rule, budget rules included.
        alerts: every point-in-time alert fired over the lifetime.
        burn: burn-rate engine over the budget rules (empty rule sets
            get an engine with no objectives — safe to drive always).
    """

    def __init__(self, rules: List[SloRule]) -> None:
        self.rules = list(rules)
        self.alerts: List[AlertEvent] = []
        self.burn = BurnRateEngine(
            [rule.to_objective() for rule in self.rules if rule.is_budget]
        )

    @classmethod
    def from_spec(cls, spec: str) -> "SloEngine":
        return cls(parse_slo_spec(spec))

    def evaluate(
        self,
        registry=None,
        context: Optional[Dict[str, Any]] = None,
    ) -> List[AlertEvent]:
        """Check every rule; returns (and records) this pass's alerts.

        Args:
            registry: metrics registry; defaults to the global one.
            context: attached to each fired alert (poll index, run
                name, ...).
        """
        if registry is None:
            from repro.obs import state

            registry = state.get_registry()
        fired: List[AlertEvent] = []
        for rule in self.rules:
            if rule.is_budget:
                continue
            value = resolve_metric_value(registry, rule.metric, rule.window)
            if value is None:
                continue
            if not rule.satisfied_by(value):
                event = AlertEvent(
                    rule=rule, value=float(value), context=dict(context or {})
                )
                fired.append(event)
                from repro import obs

                obs.counter("slo.alerts.fired").inc()
        self.alerts.extend(fired)
        return fired

    @property
    def violated(self) -> bool:
        return bool(self.alerts)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [a.to_dict() for a in self.alerts]
