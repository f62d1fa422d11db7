"""Fault injection: seeded chaos for the Wi-Fi Backscatter pipeline.

See :mod:`repro.faults.base` for the framework contract,
:mod:`repro.faults.injectors` for the fault classes, and
:mod:`repro.faults.spec` for the CLI ``--faults`` mini-language::

    from repro.faults import parse_fault_spec

    plan = parse_fault_spec("outage:duty=0.1,burst=0.05;nan:prob=0.01")
    run_uplink_ber(0.4, 10, seed=7, faults=plan)
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.faults.base": ["BurstState", "FaultInjector", "FaultPlan"],
    "repro.faults.injectors": [
        "AgcJump", "CsiDropout", "HelperOutage", "InterferenceBurst",
        "NanCorruption", "ReaderClockDrift", "TagBrownout", "WorkerCrash",
        "WorkerStall",
    ],
    "repro.faults.spec": [
        "INJECTOR_TYPES", "format_fault_plan", "parse_fault_spec",
    ],
})
