"""Declarative scenario corpus for the Wi-Fi backscatter reproduction.

A *scenario* is a declarative description of one operating condition
from the paper — geometry, helper-traffic regime, channel mode, fault
plan, and the expected performance envelope — that can be validated,
serialized, enumerated (``repro scenarios``), and executed through the
parallel simulation engine (``repro soak``).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.scenarios.corpus": ["builtin_scenarios"],
    "repro.scenarios.registry": ["ScenarioRegistry", "builtin_registry"],
    "repro.scenarios.runner": [
        "EnvelopeVerdict", "ScenarioResult", "run_scenario",
    ],
    "repro.scenarios.schema": [
        "CHANNEL_MODES", "SCHEMA_VERSION", "TRAFFIC_REGIMES", "Channel",
        "Envelope", "Geometry", "Mobility", "Scenario", "Serve", "Traffic",
        "TrialConfig", "scenarios_from_json",
    ],
})
