"""Command-line interface: run Wi-Fi Backscatter experiments directly.

Examples::

    python -m repro uplink-ber --distance 0.4 --pkts-per-bit 30
    python -m repro downlink-ber --distance 2.0 --rate 20000
    python -m repro correlation --distance 1.6 --length 20
    python -m repro rate-plan --helper-pps 3070
    python -m repro power-budget
    python -m repro calibration
    python -m repro obs-report /tmp/run.json # render any artifact
    python -m repro scenarios                # enumerate the corpus
    python -m repro soak --corpus builtin    # soak it, append history
    python -m repro history --check          # gate on cross-run trends

Every experiment subcommand also accepts the observability flags::

    --json                 machine-readable output instead of the table
    --trace                record + print the pipeline span tree
    --metrics-out PATH     write a run manifest (seed, calibrated
                           params, git SHA, metrics, spans) to PATH
    --obs-dir DIR          auto-write per-driver run manifests under DIR

and a fault-injection spec (see :mod:`repro.faults`)::

    --faults "outage:duty=0.1,burst=0.1;nan:prob=0.01"

performance telemetry flags::

    --profile              print the per-stage time table (self vs.
                           cumulative time of every span)
    --slo SPEC             declarative SLO rules checked after the run,
                           e.g. 'uplink.delivery.rate >= 0.99 over 200
                           frames ! critical'; violations exit 4

``obs-report`` renders any artifact by its schema (run manifest,
telemetry stream, fleet health, forensics records, soak document);
``perf-report``, ``fleet-report`` and ``forensics`` are its aliases.

Exit codes: 0 success, 2 decode/link failure, 3 configuration error
(bad arguments, malformed --faults/--slo spec, invalid scenario), 4 SLO
violation or strict-soak envelope miss, 5 cross-run trend regression
(``history --check``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import __version__, obs
from repro.analysis.ber import CorrelationRangeModel, DownlinkDetectionModel
from repro.analysis.report import format_table
from repro.errors import ConfigurationError, ReproError

#: Exit codes distinguishing why a run died (satellite: scripting needs
#: to tell "the link failed under these faults" from "bad invocation").
EXIT_OK = 0
EXIT_DECODE_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_SLO_VIOLATION = 4
EXIT_TREND_REGRESSION = 5

#: Subcommands whose drivers actually consume a fault plan.
FAULT_AWARE_COMMANDS = frozenset(
    {"uplink-ber", "downlink-ber", "correlation", "arq", "serve"}
)


def _resolve_faults(args: argparse.Namespace):
    """Parse ``--faults`` into a plan (None when the flag is unused)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.faults import parse_fault_spec

    return parse_fault_spec(spec, base_seed=getattr(args, "seed", None))


@dataclass
class CommandOutput:
    """One subcommand's result in both human and machine form.

    Attributes:
        title: table heading.
        rows: ``[label, display value]`` pairs for the ASCII table.
        data: JSON-ready payload for ``--json`` (raw values, not the
            display strings).
        headers: table column headers.
    """

    title: str
    rows: List[List[object]]
    data: Dict[str, Any] = field(default_factory=dict)
    headers: List[str] = field(default_factory=lambda: ["quantity", "value"])

    def to_table(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def _cmd_uplink_ber(args: argparse.Namespace) -> CommandOutput:
    from repro.sim.link import run_uplink_ber

    faults = _resolve_faults(args)
    result = run_uplink_ber(
        args.distance,
        args.pkts_per_bit,
        mode=args.mode,
        repeats=args.repeats,
        seed=args.seed,
        faults=faults,
        workers=args.workers,
    )
    lo, hi = result.confidence_interval()
    rows = [
        ["tag-reader distance", f"{args.distance} m"],
        ["packets per bit", args.pkts_per_bit],
        ["mode", args.mode],
        ["bits", result.total_bits],
        ["bit errors", result.errors],
        ["BER", result.ber],
        ["95% CI", f"[{lo:.2e}, {hi:.2e}]"],
        ["note", "floor value (no errors seen)" if result.is_floor else ""],
    ]
    if faults is not None:
        rows.insert(3, ["faults", args.faults])
    data = {
        "distance_m": args.distance,
        "packets_per_bit": args.pkts_per_bit,
        "mode": args.mode,
        "seed": args.seed,
        "faults": faults.describe() if faults is not None else None,
        **result.to_dict(),
    }
    return CommandOutput(
        title="uplink BER (Fig 10 style measurement)", rows=rows, data=data
    )


def _cmd_arq(args: argparse.Namespace) -> CommandOutput:
    from repro.core.protocol import BackoffPolicy
    from repro.sim.link import run_arq_uplink

    faults = _resolve_faults(args)
    result = run_arq_uplink(
        args.distance,
        num_frames=args.frames,
        payload_len=args.payload,
        bit_rate_bps=args.rate,
        packets_per_bit=args.pkts_per_bit,
        max_attempts=args.max_attempts,
        backoff=BackoffPolicy(initial_s=args.backoff_initial),
        faults=faults,
        degrade_after=args.degrade_after,
        seed=args.seed,
        workers=args.workers,
    )
    rows = [
        ["tag-reader distance", f"{args.distance} m"],
        ["frames", result.frames],
        ["delivered", result.delivered],
        ["delivery ratio", f"{result.delivery_ratio:.4f}"],
        ["payload-correct", result.correct],
        ["mean attempts/frame", f"{result.mean_attempts:.2f}"],
        ["degraded frames", result.degraded_frames],
        ["session span", f"{result.elapsed_s:.1f} s (virtual)"],
    ]
    if faults is not None:
        rows.insert(1, ["faults", args.faults])
    data = {
        "distance_m": args.distance,
        "seed": args.seed,
        "faults": faults.describe() if faults is not None else None,
        **result.to_dict(),
    }
    return CommandOutput(
        title="resilient ARQ uplink session", rows=rows, data=data
    )


def _cmd_serve(args: argparse.Namespace):
    """Run the resilient streaming decode gateway for a bounded spell."""
    from repro.serve import ServeConfig, render_serve_text, run_serve

    config = ServeConfig(
        duration_s=args.duration,
        offered_load_rps=args.offered_load,
        burst_load_rps=args.burst_load,
        burst_start_s=args.burst_start,
        burst_end_s=args.burst_end,
        deadline_ms=args.deadline_ms,
        queue_capacity=args.queue_capacity,
        batch=args.batch,
        batch_max=args.batch_max,
        batch_window_s=args.batch_window,
        workers=args.workers,
        n_tags=args.tags,
        payload_bits=args.payload,
        tag_to_reader_m=args.distance,
        packets_per_bit=args.pkts_per_bit,
        mode=args.mode,
        bit_rate_bps=args.rate,
        arrival_profile=args.arrivals,
        stall_timeout_s=args.stall_timeout,
        max_attempts=args.max_attempts,
        telemetry_cadence_s=args.telemetry_cadence,
        budget_target=args.budget_target,
        budget_window_s=args.budget_window,
        fleet_capacity=args.fleet_tags,
        fleet_top_k=args.fleet_top_k,
        fleet_anomaly_z=args.fleet_z,
        outlier_tags=tuple(args.outlier_tag or ()),
        outlier_distance_m=args.outlier_distance,
    )
    result = run_serve(
        config, faults=_resolve_faults(args), seed=args.seed,
        telemetry_out=args.telemetry_out,
        health_out=args.health_out,
    )
    report = result.report
    return CommandOutput(
        title="", rows=[], data=report.to_dict()
    ), render_serve_text(report)


def _cmd_downlink_ber(args: argparse.Namespace) -> CommandOutput:
    from repro.core.downlink_encoder import bit_duration_for_rate
    from repro.sim.link import run_downlink_ber

    bit_s = bit_duration_for_rate(args.rate)
    result = run_downlink_ber(
        args.distance, bit_s, num_bits=args.bits, seed=args.seed,
        faults=_resolve_faults(args), workers=args.workers,
    )
    model = DownlinkDetectionModel()
    range_m = model.range_at_ber(bit_s)
    rows = [
        ["reader-tag distance", f"{args.distance} m"],
        ["bit rate", f"{args.rate:.0f} bps"],
        ["bits", result.total_bits],
        ["BER", result.ber],
        ["range at BER 1e-2", f"{range_m:.2f} m"],
    ]
    data = {
        "distance_m": args.distance,
        "bit_rate_bps": args.rate,
        "seed": args.seed,
        "range_at_ber_1e2_m": range_m,
        **result.to_dict(),
    }
    return CommandOutput(
        title="downlink BER (Fig 17 style measurement)", rows=rows, data=data
    )


def _cmd_correlation(args: argparse.Namespace) -> CommandOutput:
    model = CorrelationRangeModel()
    model_ber = model.ber(args.distance, args.length)
    required_l = model.required_code_length(args.distance)
    rows = [
        ["distance", f"{args.distance} m"],
        ["code length L", args.length],
        ["model BER", model_ber],
        ["required L at this distance", required_l],
    ]
    data = {
        "distance_m": args.distance,
        "code_length": args.length,
        "model_ber": model_ber,
        "required_code_length": required_l,
        "seed": args.seed,
    }
    if args.simulate:
        from repro.sim.link import run_correlation_trial

        trial = run_correlation_trial(
            args.distance,
            args.length,
            num_bits=16,
            packets_per_chip=5.0,
            seed=args.seed,
            faults=_resolve_faults(args),
            workers=args.workers,
        )
        rows.append(["simulated errors", f"{trial.errors}/16"])
        data["simulated_errors"] = trial.errors
        data["simulated_bits"] = 16
    return CommandOutput(
        title="long-range coded uplink (Fig 20 style)", rows=rows, data=data
    )


def _cmd_rate_plan(args: argparse.Namespace) -> CommandOutput:
    from repro.core.rate_adaptation import UplinkRatePlanner

    planner = UplinkRatePlanner(
        packets_per_bit=args.pkts_per_bit, safety_factor=args.safety
    )
    plan = planner.plan(args.helper_pps)
    rows = [
        ["helper rate", f"{plan.helper_rate_pps:.0f} pkts/s"],
        ["M (packets per bit wanted)", args.pkts_per_bit],
        ["planned tag rate", f"{plan.bit_rate_bps:.0f} bps"],
        ["expected packets per bit", f"{plan.packets_per_bit:.1f}"],
    ]
    data = {
        "helper_rate_pps": plan.helper_rate_pps,
        "packets_per_bit_wanted": args.pkts_per_bit,
        "bit_rate_bps": plan.bit_rate_bps,
        "packets_per_bit": plan.packets_per_bit,
    }
    return CommandOutput(
        title="N/M uplink rate plan (sent in the query packet, §5)",
        rows=rows,
        data=data,
    )


def _cmd_power_budget(args: argparse.Namespace) -> CommandOutput:
    from repro.tag.harvester import (
        EnergyHarvester,
        power_budget_summary,
        wifi_power_density_w_m2,
    )

    budget = power_budget_summary()
    harvester = EnergyHarvester()
    density = wifi_power_density_w_m2(40e-3, args.distance)
    harvest = harvester.harvest_rate_w(density)
    continuous = budget["receiver_circuit_w"] + budget["transmit_circuit_w"]
    verdict = "self-sustaining" if harvest >= continuous else "needs duty cycling"
    rows = [[k, f"{v * 1e6:.2f} uW"] for k, v in budget.items()]
    rows.append(
        [f"harvest at {args.distance} m from a 16 dBm Wi-Fi source",
         f"{harvest * 1e6:.2f} uW"]
    )
    rows.append(["verdict", verdict])
    data = {
        **{k: v for k, v in budget.items()},
        "distance_m": args.distance,
        "harvest_w": harvest,
        "continuous_draw_w": continuous,
        "verdict": verdict,
    }
    return CommandOutput(title="tag power budget (§6)", rows=rows, data=data)


def _cmd_calibration(args: argparse.Namespace) -> CommandOutput:
    from dataclasses import asdict

    from repro.sim.calibration import DEFAULTS

    params = asdict(DEFAULTS)
    return CommandOutput(
        title="calibrated simulation parameters (see EXPERIMENTS.md)",
        rows=[[k, v] for k, v in params.items()],
        data=params,
        headers=["parameter", "value"],
    )


def _write_forensics_artifact(args: argparse.Namespace) -> Optional[str]:
    """Flush the flight recorder to the --record JSONL path.

    This is the *clean* flush; it stands down the crash-flush handler
    so an orderly exit doesn't rewrite the artifact as "interrupted".
    """
    from repro.obs.forensics import disarm_crash_flush, write_recorder

    path = getattr(args, "record", None)
    if path is None:
        return None
    disarm_crash_flush()
    return write_recorder(path, obs.get_recorder(), {
        "name": args.command,
        "seed": getattr(args, "seed", None),
    })


def _cmd_report(args: argparse.Namespace):
    """Render any artifact (see :func:`repro.obs.report.render_artifact`);
    ``--dir`` picks the newest ``.json`` in a directory."""
    from repro.obs.report import render_artifact

    path = args.path
    if path is None and args.dir is not None:
        candidates = sorted(
            (os.path.join(args.dir, n) for n in os.listdir(args.dir)
             if n.endswith(".json")),
            key=os.path.getmtime,
        )
        if not candidates:
            raise SystemExit(f"no .json artifacts under {args.dir}")
        path = candidates[-1]
    if path is None:
        raise SystemExit(f"{args.command} needs an artifact path or --dir")
    try:
        data, text = render_artifact(
            path, top=args.top, markdown=args.markdown
        )
    except FileNotFoundError:
        raise SystemExit(f"no such artifact: {path}")
    # The report is pre-rendered text, not a quantity/value table.
    return CommandOutput(title="", rows=[], data=data), text


def _cmd_scenarios(args: argparse.Namespace):
    """Enumerate (or show one of) the scenario corpus without running."""
    from repro.scenarios import builtin_registry

    registry = builtin_registry()
    if args.file:
        registry.load_file(args.file)
    if args.show:
        scenario = registry.get(args.show)
        data = scenario.to_dict()
        return CommandOutput(title="", rows=[], data=data), obs.dumps(data)
    scenarios = registry.select(tag=args.tag)
    rows = [
        [
            s.name,
            s.channel.mode,
            s.traffic.regime,
            f"{s.geometry.tag_to_reader_m:g}",
            "yes" if s.geometry.mobility else "-",
            s.faults or "-",
            ",".join(s.tags) or "-",
        ]
        for s in scenarios
    ]
    rendered = format_table(
        ["scenario", "mode", "regime", "dist (m)", "mobile", "faults",
         "tags"],
        rows,
        title=f"scenario corpus ({len(scenarios)} scenario(s))",
    )
    data = {
        "count": len(scenarios),
        "scenarios": [s.to_dict() for s in scenarios],
    }
    return CommandOutput(title="", rows=[], data=data), rendered


def _cmd_soak(args: argparse.Namespace):
    """Soak the scenario corpus; append cross-run history + report."""
    from repro.obs import soak as soakmod
    from repro.scenarios import builtin_registry

    registry = builtin_registry()
    if args.file:
        registry.load_file(args.file)
    history = None
    if not args.no_history:
        history = soakmod.HistoryStore(args.history_dir)
    trial_scale = args.trial_scale
    if args.quick:
        trial_scale = min(trial_scale, 0.5)
    outcome = soakmod.run_soak(
        registry=registry,
        names=args.scenarios or None,
        tag=args.tag,
        seed=args.seed,
        workers=args.workers,
        trial_scale=trial_scale,
        history=history,
        manifest_dir=args.obs_dir,
        record=True,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    doc = outcome.to_document()
    if args.report == "-":
        rendered = soakmod.render_soak_markdown(doc)
    else:
        rendered = soakmod.render_soak_text(doc)
    notes = []
    if args.report and args.report != "-":
        directory = os.path.dirname(os.path.abspath(args.report))
        os.makedirs(directory, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(soakmod.render_soak_markdown(doc))
        notes.append(f"markdown report written to {args.report}")
    if args.out:
        obs.write_json(args.out, doc)
        notes.append(f"soak document written to {args.out}")
    if history is not None:
        notes.append(
            f"history: {len(outcome.history_paths)} record(s) appended "
            f"under {history.directory}"
        )
    if notes:
        rendered += "\n\n" + "\n".join(notes)
    data = dict(doc)
    if args.strict and outcome.failed:
        data["strict_failed"] = True
    return CommandOutput(title="", rows=[], data=data), rendered


def _cmd_history(args: argparse.Namespace):
    """Inspect the cross-run history store; optionally gate on trends."""
    from repro.obs import soak as soakmod

    store = soakmod.HistoryStore(args.dir)
    corrupt = soakmod.corrupt_line_counts(
        store, scenarios=args.scenario or None
    )
    for name, bad in sorted(corrupt.items()):
        print(
            f"warning: {bad} corrupt line(s) skipped in history for "
            f"{name!r} (torn append?)",
            file=sys.stderr,
        )
    if args.check:
        flags = soakmod.check_store(store, scenarios=args.scenario or None)
        if flags:
            rows = [
                [f.scenario, f.metric, f"{f.ewma:.4g}",
                 f"{f.measured:.4g}", f"{f.limit:.4g}", f.window,
                 f.dominant_label or "-"]
                for f in flags
            ]
            rendered = format_table(
                ["scenario", "metric", "ewma", "measured", "limit",
                 "window", "root cause"],
                rows,
                title=f"cross-run trend regressions ({len(flags)})",
            )
        else:
            rendered = (
                "no cross-run trend regressions "
                f"({len(store.scenarios())} scenario histories checked)"
            )
        if corrupt:
            total_bad = sum(corrupt.values())
            rendered += (
                f"\n!! {total_bad} corrupt history line(s) skipped: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(corrupt.items())
                )
            )
        data = {
            "flags": [f.to_dict() for f in flags],
            "regressed": bool(flags),
            "corrupt_lines": corrupt,
        }
        return CommandOutput(title="", rows=[], data=data), rendered
    if args.scenario:
        sections = []
        payload: Dict[str, Any] = {}
        for name in args.scenario:
            records, bad = store.load_with_errors(name)
            if not records:
                raise ConfigurationError(
                    f"no history for scenario {name!r} under "
                    f"{store.directory}; known: {store.scenarios()}"
                )
            sections.append(
                soakmod.render_history_text(
                    name, records, limit=args.limit, corrupt=bad
                )
            )
            payload[name] = records[-args.limit:] if args.limit else records
        return CommandOutput(
            title="", rows=[],
            data={"histories": payload, "corrupt_lines": corrupt},
        ), "\n\n".join(sections)
    names = store.scenarios()
    rows = []
    for name in names:
        records, bad = store.load_with_errors(name)
        last = records[-1] if records else {}
        rows.append([
            name,
            len(records),
            str(last.get("timestamp", "-"))[:19],
            "pass" if last.get("passed") else "FAIL",
            last.get("dominant_label") or "-",
            bad or "-",
        ])
    rendered = format_table(
        ["scenario", "records", "latest", "verdict", "root cause",
         "corrupt"],
        rows,
        title=f"history store: {store.directory}",
    ) if rows else f"history store {store.directory} is empty"
    data = {
        "directory": store.directory,
        "scenarios": names,
        "corrupt_lines": corrupt,
    }
    return CommandOutput(title="", rows=[], data=data), rendered


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wi-Fi Backscatter (SIGCOMM 2014) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)

    # Observability + output-format flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    common.add_argument("--trace", action="store_true",
                        help="record and print the pipeline span tree")
    common.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write a run manifest (JSON) to PATH")
    common.add_argument("--obs-dir", metavar="DIR", default=None,
                        help="auto-write per-driver run manifests under DIR")
    common.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault-injection spec, e.g. "
             "'outage:duty=0.1,burst=0.1;nan:prob=0.01' "
             "(see repro.faults; ignored by commands without a link)")
    common.add_argument(
        "--profile", action="store_true",
        help="print the per-stage time table (self vs. cumulative "
             "time of every span)")
    common.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="SLO rules evaluated after the run, e.g. "
             "'uplink.delivery.rate >= 0.99 over 200 frames ! critical'; "
             "fired alerts exit with code 4")
    common.add_argument(
        "--record", metavar="PATH", default=None,
        help="enable the decode flight recorder and write per-packet "
             "forensics records (JSONL) to PATH; inspect with "
             "'repro forensics PATH'")
    common.add_argument(
        "--record-policy", choices=("head", "tail", "errors"),
        default="errors",
        help="which records the recorder retains: first N, last N, or "
             "only erroneous/failed packets (default: errors)")
    common.add_argument(
        "--record-capacity", type=int, default=None, metavar="N",
        help="flight-recorder ring capacity (default 256)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("uplink-ber", parents=[common],
                       help="Fig 10 style uplink BER point")
    p.add_argument("--distance", type=float, default=0.3, help="tag-reader m")
    p.add_argument("--pkts-per-bit", type=float, default=30.0)
    p.add_argument("--mode", choices=("csi", "rssi"), default="csi")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="fan trials over N processes (bit-identical to "
                        "serial; see docs/performance.md)")
    p.set_defaults(func=_cmd_uplink_ber)

    p = sub.add_parser("arq", parents=[common],
                       help="resilient ARQ uplink session (retries + backoff)")
    p.add_argument("--distance", type=float, default=0.3, help="tag-reader m")
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--payload", type=int, default=16, help="payload bits/frame")
    p.add_argument("--rate", type=float, default=100.0, help="uplink bps")
    p.add_argument("--pkts-per-bit", type=float, default=30.0)
    p.add_argument("--max-attempts", type=int, default=5)
    p.add_argument("--backoff-initial", type=float, default=0.05,
                   help="first retry delay, seconds")
    p.add_argument("--degrade-after", type=int, default=None,
                   help="failed attempts before the correlation rung")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="shard frames over N processes (statistically "
                        "equivalent to serial, not bit-identical)")
    p.set_defaults(func=_cmd_arq)

    p = sub.add_parser("serve", parents=[common],
                       help="streaming decode gateway: bounded queues, "
                            "deadline budgets, supervised workers")
    p.add_argument("--duration", type=float, default=30.0,
                   help="virtual run length, seconds")
    p.add_argument("--offered-load", type=float, default=4.0,
                   help="steady arrival rate, requests/s")
    p.add_argument("--burst-load", type=float, default=None,
                   help="overload burst arrival rate, requests/s "
                        "(superimposed over [--burst-start, --burst-end))")
    p.add_argument("--burst-start", type=float, default=0.0)
    p.add_argument("--burst-end", type=float, default=0.0)
    p.add_argument("--deadline-ms", type=float, default=4000.0,
                   help="per-request latency budget, milliseconds")
    p.add_argument("--queue-capacity", type=int, default=32,
                   help="bounded ingress queue depth (overflow sheds "
                        "newest-lowest-priority first)")
    p.add_argument("--batch", type=int, default=4,
                   help="requests dispatched per decode round")
    p.add_argument("--batch-max", type=int, default=None,
                   help="enable micro-batching: dispatch up to this many "
                        "queued requests as one supervised task whose "
                        "members decode one by one "
                        "(unset = per-request dispatch)")
    p.add_argument("--batch-window", type=float, default=0.0,
                   help="virtual seconds to hold a forming micro-batch "
                        "for further arrivals (requires --batch-max)")
    p.add_argument("--arrivals",
                   choices=("cbr", "poisson", "bursty", "office"),
                   default="poisson", help="arrival process")
    p.add_argument("--tags", type=int, default=8,
                   help="distinct tag addresses behind the gateway")
    p.add_argument("--payload", type=int, default=16,
                   help="payload bits per request")
    p.add_argument("--distance", type=float, default=0.3,
                   help="tag-reader m")
    p.add_argument("--pkts-per-bit", type=float, default=8.0)
    p.add_argument("--mode", choices=("csi", "rssi"), default="csi")
    p.add_argument("--rate", type=float, default=100.0,
                   help="uplink bps (sets per-request decode airtime)")
    p.add_argument("--stall-timeout", type=float, default=0.35,
                   help="seconds before a hung worker counts as stalled")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="supervised retries before dead-lettering")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0,
                   help="decode worker processes (0 = inline; delivered "
                        "payloads identical either way)")
    p.add_argument("--telemetry-out", default=None, metavar="PATH",
                   help="write periodic health snapshots to this JSONL "
                        "stream (crash-flush armed; inspect with "
                        "'repro obs-report')")
    p.add_argument("--telemetry-cadence", type=float, default=1.0,
                   help="virtual seconds between telemetry snapshots")
    p.add_argument("--budget-target", type=float, default=0.99,
                   help="delivered-fraction objective for the error "
                        "budget (strictly between 0 and 1)")
    p.add_argument("--budget-window", type=float, default=3600.0,
                   help="error-budget window, virtual seconds (burn "
                        "windows are derived from it)")
    p.add_argument("--fleet-tags", type=int, default=64,
                   help="tags tracked individually by the bounded fleet "
                        "health registry; overflow evicts LRU into an "
                        "aggregate 'other' bucket")
    p.add_argument("--fleet-top-k", type=int, default=8,
                   help="offender-board size (top-K tags by shed/"
                        "failure/error-bits/latency)")
    p.add_argument("--fleet-z", type=float, default=3.0,
                   help="robust z-score threshold for flagging a tag "
                        "anomalous against the fleet distribution")
    p.add_argument("--health-out", default=None, metavar="PATH",
                   help="write the end-of-run fleet health artifact "
                        "(repro.fleet/1) to PATH (inspect with "
                        "'repro fleet-report')")
    p.add_argument("--outlier-tag", type=int, action="append",
                   default=None, metavar="TAG",
                   help="sabotage this tag address: its requests decode "
                        "at --outlier-distance (repeatable)")
    p.add_argument("--outlier-distance", type=float, default=None,
                   help="tag-reader distance (m) for --outlier-tag "
                        "requests")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("downlink-ber", parents=[common],
                       help="Fig 17 style downlink BER point")
    p.add_argument("--distance", type=float, default=2.0)
    p.add_argument("--rate", type=float, default=20e3, help="bps (<= 25000)")
    p.add_argument("--bits", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="fan bit chunks over N processes (bit-identical "
                        "to serial)")
    p.set_defaults(func=_cmd_downlink_ber)

    p = sub.add_parser("correlation", parents=[common],
                       help="Fig 20 style coded-uplink point")
    p.add_argument("--distance", type=float, default=1.6)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--simulate", action="store_true",
                   help="also run the Monte-Carlo decoder")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="run the --simulate trial in a worker process "
                        "(bit-identical to serial)")
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("rate-plan", parents=[common],
                       help="compute the N/M rate plan")
    p.add_argument("--helper-pps", type=float, required=True)
    p.add_argument("--pkts-per-bit", type=float, default=3.0)
    p.add_argument("--safety", type=float, default=1.0)
    p.set_defaults(func=_cmd_rate_plan)

    p = sub.add_parser("power-budget", parents=[common],
                       help="tag power/harvest summary")
    p.add_argument("--distance", type=float, default=0.3048,
                   help="meters from a Wi-Fi source (default: one foot)")
    p.set_defaults(func=_cmd_power_budget)

    p = sub.add_parser("calibration", parents=[common],
                       help="show calibrated parameters")
    p.set_defaults(func=_cmd_calibration)

    p = sub.add_parser("obs-report", parents=[common],
                       aliases=["perf-report", "fleet-report", "forensics"],
                       help="render an artifact: a run manifest, telemetry "
                            "stream, fleet health artifact, forensics "
                            "records or soak document (recognised by its "
                            "schema)")
    p.add_argument("path", nargs="?", default=None,
                   help="artifact path (JSON or JSONL)")
    p.add_argument("--dir", default=None,
                   help="pick the newest .json artifact in this directory")
    p.add_argument("--markdown", action="store_true",
                   help="render soak documents as markdown instead of a "
                        "terminal table")
    p.add_argument("--top", type=int, default=None,
                   help="rows per offender board (default: all tracked)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("scenarios", parents=[common],
                       help="enumerate the scenario corpus without running")
    p.add_argument("--tag", default=None,
                   help="only scenarios carrying this tag")
    p.add_argument("--file", default=None,
                   help="merge user scenarios from a JSON file")
    p.add_argument("--show", metavar="NAME", default=None,
                   help="print one scenario's full definition as JSON")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("soak", parents=[common],
                       help="run the scenario corpus and append cross-run "
                            "history")
    p.add_argument("--corpus", choices=("builtin",), default="builtin",
                   help="scenario corpus to soak (default: builtin)")
    p.add_argument("--scenarios", nargs="*", default=None,
                   help="subset of scenario names to run")
    p.add_argument("--tag", default=None,
                   help="only scenarios carrying this tag")
    p.add_argument("--file", default=None,
                   help="merge user scenarios from a JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel trial workers (bit-identical to serial)")
    p.add_argument("--trial-scale", type=float, default=1.0,
                   help="scale every scenario's trial counts (smoke runs)")
    p.add_argument("--quick", action="store_true",
                   help="shorthand for --trial-scale 0.5")
    p.add_argument("--history-dir", default=None,
                   help="history store directory "
                        "(default: <repo>/benchmarks/history)")
    p.add_argument("--no-history", action="store_true",
                   help="do not append to the cross-run history store")
    p.add_argument("--report", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="render the markdown soak report (to PATH, or to "
                        "stdout when no PATH is given)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON soak document to PATH (readable "
                        "with 'repro obs-report')")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when any scenario misses its envelope")
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser("history", parents=[common],
                       help="inspect the cross-run telemetry history")
    p.add_argument("scenario", nargs="*", default=None,
                   help="scenario name(s) to show (default: list all)")
    p.add_argument("--dir", default=None,
                   help="history store directory "
                        "(default: <repo>/benchmarks/history)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="show only the newest N records")
    p.add_argument("--check", action="store_true",
                   help="run EWMA trend detection; regressions exit 5")
    p.set_defaults(func=_cmd_history)
    return parser


def _write_cli_manifest(
    args: argparse.Namespace,
    output: CommandOutput,
    alerts: Optional[List[Any]] = None,
) -> str:
    """Build + write the run manifest for one CLI invocation."""
    from repro.sim.calibration import DEFAULTS

    skip = {"func", "command", "json", "trace", "metrics_out", "obs_dir"}
    if args.command not in FAULT_AWARE_COMMANDS:
        skip = skip | {"faults"}
    config = {
        k: v for k, v in vars(args).items() if k not in skip and v is not None
    }
    extra = {"alerts": [a.to_dict() for a in alerts]} if alerts else None
    manifest = obs.build_manifest(
        args.command,
        seed=getattr(args, "seed", None),
        params=DEFAULTS,
        config=config,
        results=output.data,
        extra=extra,
    )
    return manifest.write(args.metrics_out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if (
        getattr(args, "faults", None)
        and args.command not in FAULT_AWARE_COMMANDS
    ):
        print(
            f"warning: --faults has no effect on '{args.command}'",
            file=sys.stderr,
        )

    trace = getattr(args, "trace", False)
    metrics_out = getattr(args, "metrics_out", None)
    obs_dir = getattr(args, "obs_dir", None)
    print_profile = getattr(args, "profile", False)
    slo_spec = getattr(args, "slo", None)
    slo_engine = None
    if slo_spec:
        from repro.obs.perf.slo import SloEngine

        try:
            slo_engine = SloEngine.from_spec(slo_spec)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    record_out = getattr(args, "record", None)
    recording = record_out is not None and args.func is not _cmd_report
    observing = (
        trace or metrics_out is not None or obs_dir is not None
        or print_profile or slo_engine is not None or recording
    )
    if observing:
        obs.configure(
            metrics=True, tracing=True, recording=recording,
            manifest_dir=obs_dir,
        )
        obs.reset()
        if recording:
            try:
                obs.get_recorder().configure(
                    capacity=getattr(args, "record_capacity", None),
                    policy=getattr(args, "record_policy", None),
                )
            except ConfigurationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                obs.disable()
                return EXIT_CONFIG_ERROR
            # Partial JSONL must survive a SIGTERM'd or interrupted
            # run; the clean flush at the end disarms this.
            from repro.obs.forensics import install_crash_flush

            install_crash_flush(record_out, meta={
                "name": args.command,
                "seed": getattr(args, "seed", None),
            })

    try:
        result = args.func(args)
    except ConfigurationError as exc:
        # Bad invocation (including a malformed --faults spec): the
        # run never happened, so scripts must not read it as a link
        # failure.
        print(f"error: {exc}", file=sys.stderr)
        if recording:
            from repro.obs.forensics import disarm_crash_flush

            disarm_crash_flush()
        if observing:
            obs.disable()
        return EXIT_CONFIG_ERROR
    except ReproError as exc:
        # The experiment ran and the link/decode failed (e.g. faults
        # severe enough to kill every trial).  The flight recorder's
        # records are most valuable exactly here, so flush them first.
        print(f"decode failure: {exc}", file=sys.stderr)
        if recording:
            path = _write_forensics_artifact(args)
            if path:
                print(f"forensics records written to {path}",
                      file=sys.stderr)
        if observing:
            obs.disable()
        return EXIT_DECODE_FAILURE
    rendered: Optional[str] = None
    if isinstance(result, tuple):
        result, rendered = result

    alerts: List[Any] = []
    if slo_engine is not None:
        alerts = slo_engine.evaluate(context={"command": args.command})

    if getattr(args, "json", False):
        payload = {"command": args.command, **result.data}
        if slo_engine is not None:
            payload["alerts"] = [a.to_dict() for a in alerts]
        print(obs.dumps(payload))
    elif rendered is not None:
        print(rendered)
    else:
        print(result.to_table())

    # Diagnostics (alerts, perf, trace) go to stderr under --json so
    # stdout stays machine-readable.
    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    if alerts:
        from repro.obs.perf.report import render_alerts

        print("\n" + render_alerts([a.to_dict() for a in alerts]), file=out)
    if metrics_out is not None:
        path = _write_cli_manifest(args, result, alerts=alerts)
        print(f"\nrun manifest written to {path}", file=out)
    if recording:
        path = _write_forensics_artifact(args)
        if path:
            recorder = obs.get_recorder()
            print(
                f"\nforensics records written to {path} "
                f"({len(recorder.records)} records, "
                f"{recorder.seen} packets seen)",
                file=out,
            )
    if print_profile:
        from repro.obs.perf.report import render_profile

        print("\n" + render_profile(obs.get_tracer().aggregate()), file=out)
    if trace:
        from repro.obs.report import render_span_tree

        tree = render_span_tree(obs.get_tracer().to_dicts())
        if tree:
            print("\ntrace\n" + tree, file=out)
    if observing:
        obs.disable()
    if alerts:
        return EXIT_SLO_VIOLATION
    if args.command == "soak" and result.data.get("strict_failed"):
        return EXIT_SLO_VIOLATION
    if args.command == "history" and result.data.get("regressed"):
        return EXIT_TREND_REGRESSION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
