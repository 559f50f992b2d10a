#!/usr/bin/env python3
"""Demo: a mid-stream regime change drives health G -> R -> retune -> G.

Runs two copies of the same seasonal series, one with its mean tripled at
the midpoint, through the orchestrator and prints the health trace and
final status table.
"""

import tempfile

import numpy as np

from autoad.orchestrator import Engine, JobSpec, series_to_doc
from autoad.series import TimeSeries


def make_series(shift: bool, n: int = 480, seed: int = 0) -> TimeSeries:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = 10 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n)
    if shift:
        values[n // 2 :] *= 3.0
    return TimeSeries.from_values(values, step=3600)


def main() -> int:
    with tempfile.TemporaryDirectory() as root, Engine(root, tune_budget=12, seed=1) as engine:
        for label, shift in (("drifted", True), ("stationary", False)):
            engine.register_job(
                JobSpec(
                    job_id=f"job-{label}",
                    metric_id=label,
                    source={"inline": series_to_doc(make_series(shift))},
                    train_every=48,
                    score_every=1,
                    model_ttl=96,
                )
            )
        traces = {label: [] for label in ("drifted", "stationary")}
        for _ in range(10):
            engine.advance_clock(48)
            for row in engine.status():
                if row["health"] != "-":  # "-": not evaluated yet
                    traces[row["metric_id"]].append((engine.now, row["health"]))
        for label, trace in traces.items():
            print(f"{label}: retunes={engine.tune_generation(label)}")
            print("  " + " ".join(f"t{t}:{h}" for t, h in trace))
        print()
        for row in engine.status():
            print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
