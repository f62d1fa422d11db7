"""One benchmark round in a fresh interpreter; ``run.py`` spawns it.

Usage: ``python bench/child.py '<json spec>'`` with keys ``workload``,
``seed``, ``round``, ``budget_s``, ``traced`` and ``t_spawn`` (the
parent's ``time.monotonic()`` just before the spawn).  Prints one JSON
object on stdout.  Exit code 3 means an in-run correctness check failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import tracer
import workloads


def main(argv) -> int:
    spec = json.loads(argv[1])
    workload = workloads.make(spec["workload"])
    workload.warm_up(
        workloads.op_seed(spec["seed"], spec["round"], workloads.WARM_UP_INDEX)
    )
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp and
    # this reading share one clock.
    setup_s = time.monotonic() - spec["t_spawn"]
    active = None
    missing = []
    if spec["traced"]:
        active = tracer.Tracer()
        _, missing = tracer.install(active)
    try:
        ops = workloads.run_round(
            workload, spec["seed"], spec["round"], spec["budget_s"], active
        )
    except workloads.CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        return 3
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": ops,
        "layers": active.aggregate() if active is not None else {},
        "missing_layers": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
