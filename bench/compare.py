"""Compare result files of two commits, metric by metric.

Usage::

    python3 bench/compare.py --parent p1.json p2.json ... \\
                             --change c1.json c2.json ...

Each file is a ``bench/run.py --out`` result.  Run both commits with the
same seeds and ``--seconds``, alternating which side runs first; files
pair up in the order given.  For every workload and end-to-end metric
(plus the deterministic ones, whose bound is zero) it prints each side's
median and quartiles and one verdict:

* improved   -- the change wins >= 9/10 of pairs (ties count for
  neither) and the median gap exceeds the parent's interquartile range;
* regressed  -- the change's median is worse by more than the bound;
* unresolved -- either side's spread exceeds the bound, unless every
  change run beats every parent run;
* unchanged  -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import metrics


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = metrics.quartiles(parent)
    c_med = metrics.quartiles(change)[1]
    gap = sign * (c_med - p_med)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        return "improved"
    if gap < 0 and (p_med == 0 or -gap / abs(p_med) > bound):
        return "regressed"
    spread = max(metrics.relative_spread(parent),
                 metrics.relative_spread(change))
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load(paths: Sequence[Path]) -> List[dict]:
    return [json.loads(Path(p).read_text())["workloads"] for p in paths]


def series(docs: List[dict], workload: str, group: str,
           name: str) -> List[float]:
    return [doc[workload][group][name] for doc in docs
            if name in doc.get(workload, {}).get(group, {})]


def rows(parent: List[dict], change: List[dict]) -> List[Dict[str, object]]:
    table = [("end_to_end", m) for m in metrics.END_TO_END]
    table += [("diagnostics", m) for m in metrics.DETERMINISTIC]
    out = []
    for workload in metrics.SPECS:
        for group, m in table:
            p = series(parent, workload, group, m.name)
            c = series(change, workload, group, m.name)
            if not p or not c:
                continue
            out.append({
                "workload": workload, "metric": m.name, "unit": m.unit,
                "parent": metrics.quartiles(p), "change": metrics.quartiles(c),
                "verdict": verdict(p, c, m.better, m.bound),
            })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.parent) < 2 or len(args.change) < 2:
        parser.error("give at least two result files per side")
    table = rows(load(args.parent), load(args.change))
    print(f"{'workload':<14} {'metric':<16} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'delta':>8}  verdict")
    for row in table:
        p, c = row["parent"], row["change"]
        delta = (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0
        cells = ["/".join(f"{v:.4g}" for v in q) for q in (p, c)]
        print(f"{row['workload']:<14} {row['metric']:<16} {cells[0]:>30} "
              f"{cells[1]:>30} {delta:+8.1%}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
