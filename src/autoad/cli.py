"""Command-line entry points: register, run, status, eval, alerts, bench."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import evaluation as ev
from .bench import BenchConfig, run_benchmark
from .errors import AutoAdError, InvalidSpec
from .optimizer import MIN_BUDGET
from .orchestrator import Engine, JobSpec


def _engine(args) -> Engine:
    return Engine(args.data_dir, tune_budget=args.tune_budget, seed=args.seed)


def cmd_register(args) -> int:
    try:
        data = json.loads(Path(args.spec).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidSpec(f"cannot read job spec {args.spec}: {exc}") from None
    spec = JobSpec.from_dict(data)
    with _engine(args) as engine:
        job_id = engine.register_job(spec)
    print(f"registered job {job_id} (metric {spec.metric_id})")
    return 0


def cmd_run(args) -> int:
    with _engine(args) as engine:
        if args.until <= engine.now:
            print(f"clock already at {engine.now}, nothing to do")
            return 0
        engine.advance_clock(args.until - engine.now)
    print(f"advanced clock to {engine.now}")
    for row in engine.status():
        print(
            f"  {row['metric_id']}: health={row['health']} method={row['method']} "
            f"retunes={row['tune_generation']} scored_through={row['last_scored']}"
        )
    return 0


def cmd_status(args) -> int:
    with _engine(args) as engine:
        rows = engine.status()
    if not rows:
        print("no jobs registered")
        return 0
    header = f"{'job':<16} {'metric':<24} {'health':<6} {'method':<11} {'retunes':<7} scored"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['job_id']:<16} {row['metric_id']:<24} {row['health']:<6} "
            f"{row['method']:<11} {row['tune_generation']:<7} {row['last_scored']}"
        )
    return 0


def cmd_eval(args) -> int:
    with _engine(args) as engine:
        if args.metric not in {s.metric_id for s in engine.jobs()}:
            print(f"unknown metric {args.metric!r}", file=sys.stderr)
            return 2
        snapshots = engine.run_evaluation_cycle(engine.now)
    snap = snapshots[args.metric]
    print(json.dumps(snap.to_dict(), indent=1, sort_keys=True))
    if args.emit_curves:
        # the curves the evaluation just judged the metric by
        curves = engine.last_curves[args.metric]
        if curves is None:
            print("no curves to emit: too few stable scores, or the evaluation failed", file=sys.stderr)
            return 3
        mv, em = curves
        with open(args.emit_curves, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["curve", "x", "value"])
            for a, v in mv:
                writer.writerow(["mv", repr(a), repr(v)])
            for t, v in em:
                writer.writerow(["em", repr(t), repr(v)])
        print(f"curves written to {args.emit_curves}")
    return 0


def cmd_alerts(args) -> int:
    with _engine(args) as engine:
        specs = [s for s in engine.jobs() if args.metric in (None, s.metric_id)]
        if args.metric is not None and not specs:
            print(f"unknown metric {args.metric!r}", file=sys.stderr)
            return 2
        print("".join(line + "\n" for spec in specs for line in engine.alerts(spec)), end="")
    return 0


def cmd_bench(args) -> int:
    from .reference_values import NAB_DATA_PATHS

    datasets = args.datasets.split(",") if args.datasets else tuple(NAB_DATA_PATHS)
    freqs = [args.freq] if args.freq else ("hourly", "daily")
    config = BenchConfig(
        out_dir=args.out,
        nab_dir=args.nab_dir,
        datasets=datasets,
        freqs=freqs,
        agg=args.agg,
        seed=args.seed,
        include_fixtures=args.fixtures,
        timing=args.timing,
        tune_budget=args.tune_budget,
    )
    report = run_benchmark(config)
    done = [r for r in report.auc_rows if r["status"] == "ok"]
    print(f"benchmark complete: {len(done)} dataset runs, {len(set(report.missing))} missing")
    for row in done:
        print(
            f"  {row['dataset']} ({row['freq']}): auc={row['auc']} retunes={row['retunes']} "
            f"(reference auc {row['reference_auc']})"
        )
    print(f"reports under {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="autoad", description="Self-tuning time-series anomaly detection")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tune-budget", type=int, default=20)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="register a job from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--data-dir", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("run", help="advance the simulated clock")
    p.add_argument("--until", type=int, required=True)
    p.add_argument("--data-dir", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("status", help="print the G/Y/R health table")
    p.add_argument("--data-dir", required=True)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("eval", help="evaluate one metric and optionally emit curves")
    p.add_argument("--metric", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--emit-curves")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("alerts", help="print the alerts of the committed score rows")
    p.add_argument("--metric", help="one metric's alerts; all metrics' by default")
    p.add_argument("--data-dir", required=True)
    p.set_defaults(func=cmd_alerts)

    p = sub.add_parser("bench", help="run the NAB benchmark harness")
    p.add_argument("--nab-dir")
    p.add_argument("--datasets", help="comma-separated dataset names")
    p.add_argument("--freq", choices=["hourly", "daily"])
    p.add_argument("--agg", choices=["mean", "sum"], default="mean")
    p.add_argument("--out", required=True)
    p.add_argument("--fixtures", action="store_true", help="include synthetic fixture datasets")
    p.add_argument("--timing", action="store_true", help="run the training timing harness")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one command; a library error, or a data directory that does not
    exist for a command other than ``register``, is reported on one line,
    status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tune_budget < MIN_BUDGET:
        parser.error(f"--tune-budget must be at least {MIN_BUDGET}")
    # only register makes a data directory, so a mistyped path is no empty store
    if args.command in ("run", "status", "eval", "alerts") and not Path(args.data_dir).is_dir():
        print(f"{parser.prog}: error: no data directory {args.data_dir}; register a job there first",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except AutoAdError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
