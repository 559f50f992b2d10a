"""Benchmark launcher: one workload, one fresh process, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-stream --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same work with spans around each layer's public functions and reports
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name
every metric with its unit.  Full results (machine note, digests,
checks) go to ``.perfbench/results/``; traced runs also write their
spans to ``.perfbench/spans/``.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet-stream", "fleet-batch", "train-retune", "fleet-gaps")
EXTRA_SETUPS = 2  # set-up-only processes per run; setup_s is the median with the main one
RUN_TIMEOUT_S = 170  # the whole run, extra set-ups included, ends within this
OUT_DIR = ".perfbench"


def machine_note() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, root: Path, deadline: float, setup_only: bool) -> dict:
    """Run the workload in a fresh interpreter; return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at), "--out-dir", str(root / OUT_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="autoad benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "autoad" / "__init__.py").is_file():
        sys.stderr.write("perfbench: src/autoad not found; run from the root of an autoad checkout\n")
        return 2
    # the metric names and units the result must carry
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    note = machine_note()
    try:
        setups = [spawn(args, root, deadline, setup_only=True)["setup"] for _ in range(EXTRA_SETUPS)]
        result = spawn(args, root, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    note.update(result.pop("versions"))
    setups.append(result["setup"])

    e2e = dict(result["e2e"])
    e2e["setup_s"] = statistics.median(ref for _, ref in setups)
    e2e["peak_rss_mb"] = result["peak_rss_mb"]
    correct = all(result["checks"].values())

    print(f"machine: {json.dumps(note, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    print(f"  wall time (this core ran at {1 / result['probe_scale']:.3g}x the reference time):")
    for name, (value, unit) in result["wall_metrics"].items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  {'setup_s':<24} {statistics.median(wall for wall, _ in setups):>14.6g} s")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  output digest {result['digest']}")

    values = result["layers"] if args.trace else e2e
    print("  per-layer, at reference speed:" if args.trace else
          f"  end-to-end, at reference speed (setup_s is the median of {len(setups)} set-ups):")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name:<56} {metric['value']:>14.6g} {metric['unit']}")

    results_dir = root / OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "machine": note, "setups": setups,
              "correct": correct, "metrics": metrics, **result}
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
