"""Outside-in benchmark of the Wi-Fi Backscatter reproduction.

Usage::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out PATH]

``--trace 0`` runs the timed rounds and reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced round per workload and
reports the per-layer table; without ``--trace`` both run.  Every metric
is printed with its name and unit; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  JSON goes to
a file only with ``--out``.  Exits 1 when an in-run correctness check
fails and 2 when the checkout has no ``src/repro``.

Each round is a fresh ``bench/child.py`` process pinned to one BLAS
thread; this parent process is sequential.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import metrics
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Timed rounds per workload; the workload order alternates by round.
ROUNDS = 6
#: The traced round replays timed round 0's guaranteed ops.
TRACE_ROUND = 0
#: Wall-clock cap per workload, under the 180 s a one-workload run may
#: take.
RUN_LIMIT_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, rnd: int, budget_s: float,
              traced: bool, deadline: float) -> dict:
    """Spawn one round and return its parsed result."""
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    spec = {"workload": workload, "seed": seed, "round": rnd,
            "budget_s": budget_s, "traced": traced,
            "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} round {rnd} ran past the run's "
                         f"time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise ChildError(f"{workload} round {rnd} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_timed(names: List[str], seed: int, seconds: float,
              deadline: float) -> Dict[str, List[dict]]:
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    for rnd in range(ROUNDS):
        order = names if rnd % 2 == 0 else names[::-1]
        for name in order:
            rounds[name].append(
                run_child(name, seed, rnd, seconds / ROUNDS, False, deadline)
            )
    return rounds


def measure(name: str, timed_runs: List[dict], traced: bool, seed: int,
            deadline: float) -> Tuple[dict, List[str]]:
    """One workload's result document and its failed checks."""
    spec = metrics.SPECS[name]
    problems = [r["check_failed"] for r in timed_runs if "check_failed" in r]
    runs = [r for r in timed_runs if "check_failed" not in r]
    result: Dict[str, object] = {}
    if runs:
        result["end_to_end"] = metrics.end_to_end(spec, runs)
        result["diagnostics"] = metrics.diagnostics(spec, runs)
    if traced:
        # The same ops untraced, then traced, each in a fresh child.
        plain = run_child(name, seed, TRACE_ROUND, 0.0, False, deadline)
        layered = (plain if "check_failed" in plain else
                   run_child(name, seed, TRACE_ROUND, 0.0, True, deadline))
        if "check_failed" in layered:
            problems.append(layered["check_failed"])
        else:
            runs += [plain, layered]
            result["per_layer"] = trace_metrics(spec, plain, layered)
            result["layers"] = layered["layers"]
            result["missing_layers"] = layered["missing_layers"]
    result["rounds"] = runs
    for key in ("diagnostics", "per_layer"):
        ber = result.get(key, {}).get("ber", 0.0)
        if ber > spec.max_ber:
            problems.append(f"{name}: ber {ber:.4f} is above the "
                            f"{spec.max_ber} a working decoder stays under")
    return result, problems


def trace_metrics(spec: metrics.WorkloadSpec, plain: dict,
                  traced: dict) -> Dict[str, float]:
    out = tracer.layer_metrics(traced["layers"], spec.entry)
    out.update(metrics.diagnostics(spec, [plain]))
    # Both rounds run the same ops in the same order: the median of the
    # per-op ratios, each round scaled by its own kernel, keeps host
    # drift between the two rounds out of the overhead.
    plain_ops, traced_ops = (
        metrics.at_nominal_speed([r])[0]["ops"] for r in (plain, traced)
    )
    out["trace_overhead"] = statistics.median(
        t["seconds"] / p["seconds"] for p, t in zip(plain_ops, traced_ops)
    ) - 1.0
    return out


# -- output -------------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_metrics(title: str, values: Dict[str, float],
                  table: List[metrics.Metric]) -> None:
    print(f"  {title}")
    for m in table:
        if m.name in values:
            print(f"    {m.name:<44} {_fmt(values[m.name]):>14} {m.unit}")


def print_result(name: str, result: dict, seed: int) -> None:
    spec = metrics.SPECS[name]
    print(f"== {name} ({spec.unit}; {len(result['rounds'])} rounds, "
          f"seed {seed})")
    for key, title, table in (
        ("end_to_end", "end-to-end (times scaled to the nominal host)",
         metrics.END_TO_END),
        ("diagnostics", "diagnostics", metrics.DIAGNOSTICS),
        ("per_layer", "traced-run diagnostics", metrics.DIAGNOSTICS),
    ):
        if key in result:
            print_metrics(title, result[key], table)
    if "layers" in result:
        print_layers(spec.entry, result["layers"])
        if result["missing_layers"]:
            print(f"  missing_layers: {result['missing_layers']}")


def print_layers(entry: str, layers: Dict[str, Dict[str, float]]) -> None:
    base = layers.get(entry, {}).get("total_s", 0.0) or 1.0
    print(f"  layer self time (share of {entry}, {base:.3f} s)")
    for layer, self_s in tracer.layer_rollup(layers).items():
        print(f"    {layer:<12} {self_s:10.4f} s {100 * self_s / base:6.1f}%")
    rows = sorted(
        (p for p in tracer.WRAP_POINTS if p.name in layers),
        key=lambda p: -layers[p.name].get("self_s", 0.0),
    )
    print(f"    {'wrap point':<52} {'calls':>8} {'self_s':>10} {'share':>7}")
    for p in rows:
        row = layers[p.name]
        self_s = row.get("self_s")
        cells = (f"{self_s:10.4f} {100 * self_s / base:6.1f}%"
                 if self_s is not None else f"{'-':>10} {'-':>7}")
        print(f"    {p.name:<52} {row['calls']:>8} {cells}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=list(metrics.SPECS), metavar="NAME",
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="time budget of the timed rounds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result JSON here")
    args = parser.parse_args(argv)
    # A terminated run unwinds through subprocess.run, which kills
    # and reaps the running round.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    names = list(dict.fromkeys(args.workload or metrics.SPECS))
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    timed = args.trace in (None, 0)
    traced = args.trace in (None, 1)

    doc = {"seed": args.seed, "seconds": args.seconds, "rounds": ROUNDS,
           "workloads": {}}
    problems: List[str] = []
    try:
        timed_rounds = (run_timed(names, args.seed, args.seconds, deadline)
                        if timed else {})
        for name in names:
            doc["workloads"][name], found = measure(
                name, timed_rounds.get(name, []), traced, args.seed, deadline
            )
            problems += found
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reported = ((list(metrics.END_TO_END) if timed else [])
                + (metrics.per_layer_metrics() if traced else []))
    final: Dict[str, Dict[str, object]] = {}
    for name, result in doc["workloads"].items():
        print_result(name, result, args.seed)
        values = {**result.get("end_to_end", {}),
                  **result.get("per_layer", {})}
        prefix = f"{name}." if len(names) > 1 else ""
        for m in reported:
            if m.name in values:
                final[prefix + m.name] = {"value": values[m.name],
                                          "unit": m.unit}
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    doc["correct"] = not problems
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    ops = [op for result in doc["workloads"].values()
           for r in result["rounds"] for op in r["ops"]]
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(op["failed"] for op in ops),
                      "metrics": final}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
