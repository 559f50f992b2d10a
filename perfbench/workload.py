"""One benchmark workload, run in a fresh process by ``perfbench/run.py``.

    python3 perfbench/workload.py --workload fleet-stream --seed 0 --seconds 25 \
        --trace 0 --spawned-at <time.monotonic() of the launcher> --out-dir .perfbench

Prints one JSON object as its last line of standard output.  The
launcher pins the BLAS/OpenMP pools to one thread before this process
starts; the assignments below repeat that before numpy is imported.

Fleet workloads drive ``Engine(workers=1)`` in a closed loop: one
``advance_clock(1)`` call per tick, the next only after the previous one
returned.  ``train-retune`` repeats the paper's training-runtime
experiment: ``tune`` + ``profile`` + ``default_config`` +
``fit_structural`` on simulated series, with no engine and no store.

Times are taken twice: as wall time, and rescaled to a reference
machine speed by short probes run between operations (see
:class:`Timer`).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import autoad  # noqa: E402
from autoad import bench, optimizer  # noqa: E402
from autoad.orchestrator import series_to_doc  # noqa: E402
from autoad.series import TimeSeries, write_csv  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402

# -- machine-speed probes --------------------------------------------------------

PROBE_EVERY_S = 0.05  # probe at least this often between operations
# run.py starts this process in the checkout root, where .perfbench/ lives
PROBE_FILE = os.path.join(".perfbench", f"probe-{os.getpid()}")


def cpu_kernel() -> int:
    """Interpreter and JSON work, like the fit and search layers."""
    doc = {"values": [i * 0.5 for i in range(200)], "name": "probe"}
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    for _ in range(3):
        json.loads(json.dumps(doc))
    return acc


def store_kernel() -> int:
    """The CPU kernel plus a small file round trip, like the store.

    Tiny store-bound ticks slow down more under host load than
    interpreter work does; this kernel tracks them, the CPU kernel
    tracks trainings.
    """
    acc = cpu_kernel()
    with open(PROBE_FILE, "w") as fh:
        fh.write("x" * 2000)
    with open(PROBE_FILE) as fh:
        acc += len(fh.read())
    return acc + os.stat(".perfbench").st_mode


# (kernel, its time on an idle core of the reference machine, exponent).
# Host load slows a kind of work by about the kernel's slow-down to the
# exponent.  Fitted on a 2-vCPU VM from runs at a median probe slow-down
# of about 1.3x and of 2.3x: trainings followed the CPU kernel fully,
# fleet ticks followed the store kernel to the power 0.5 to 0.7 (a full
# correction moved the fleet-batch p99 by 24% between the two), and
# set-up followed the CPU kernel to the power 0.5.
TRAIN_PROBE = (cpu_kernel, 0.0005, 1.0)
TICK_PROBE = (store_kernel, 0.00075, 0.6)
SETUP_PROBE = (cpu_kernel, 0.0005, 0.5)


def probe_s(probe) -> float:
    """Mean time of three kernel runs: how fast this core runs right now."""
    kernel = probe[0]
    start = time.perf_counter()
    for _ in range(3):
        kernel()
    return (time.perf_counter() - start) / 3


def speed_scale(probe, seconds: float) -> float:
    """Factor from wall time to reference-speed time, given a probe time."""
    _, idle_s, exponent = probe
    return (idle_s / seconds) ** exponent


# -- workload definitions ------------------------------------------------------

FLEET = {
    "fleet-stream": {"score_every": 1, "inline": True, "gap": False},
    "fleet-batch": {"score_every": 48, "inline": False, "gap": False},
    "fleet-gaps": {"score_every": 48, "inline": False, "gap": True},
}
FLEET_FIXTURE_SEED = 0  # the in-repo fixtures, as the fixture report replays them
ENGINE_SEED = 0
DAY_S = 86_400
TRAIN_EVERY = 48
MODEL_TTL = 96
FIRST_TRAINING = max(30, 2 * TRAIN_EVERY)  # the engine's documented warm-up
TUNE_BUDGET = 16
N_MC = 4000
GAP_LENGTH = 6

TRAIN_LENGTHS = (1000, 2000, 3000)
TRAIN_SERIES_SEEDS = (0, 1)  # the fixed set of simulated series
TRAIN_BUDGET = 12


def now() -> float:
    return time.perf_counter()


class Timer:
    """Operation times, as wall time and rescaled to reference speed.

    Other tenants of a shared host slow this core down by up to half for
    seconds at a time.  A probe runs between operations at least every
    ``PROBE_EVERY_S``; the operations since the previous probe are
    rescaled by the probe kernel's idle-core time over the mean of the
    two probes around them, to the power of the probe's exponent.
    Failed operations sort after every successful one.
    """

    def __init__(self, probe):
        self.probe = probe
        self.wall: list[tuple[bool, float]] = []
        self.ref: list[tuple[bool, float]] = []
        self._pending: list[tuple[bool, float]] = []
        self._last_probe = probe_s(probe)
        self._last_at = now()

    def add(self, failed: bool, seconds: float) -> None:
        self._pending.append((failed, seconds))
        if now() - self._last_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        probe = probe_s(self.probe)
        scale = speed_scale(self.probe, (probe + self._last_probe) / 2)
        self.wall.extend(self._pending)
        self.ref.extend((failed, s * scale) for failed, s in self._pending)
        self._pending = []
        self._last_probe = probe
        self._last_at = now()

    @property
    def count(self) -> int:
        return len(self.wall)

    @property
    def failed(self) -> int:
        return sum(1 for f, _ in self.wall if f)

    def total(self, ref: bool = True) -> float:
        return sum(s for _, s in (self.ref if ref else self.wall))

    def scale(self) -> float:
        """Mean rescaling factor over the run."""
        return self.total(ref=True) / self.total(ref=False)


def setup_seconds(spawned_at: float) -> tuple[float, float]:
    """(wall, reference-speed) seconds from process spawn to now.

    Set-up ends with file writes that slow the store kernel's first
    calls, so set-up is rescaled by the CPU kernel, median of three.
    """
    wall = time.monotonic() - spawned_at
    return wall, wall * speed_scale(SETUP_PROBE, statistics.median(probe_s(SETUP_PROBE) for _ in range(3)))


def per_op(timers: list, ref: bool) -> list:
    """Each operation's median time over the passes (the same operations in
    the same order); an operation counts as failed if it failed in any pass."""
    runs = [t.ref if ref else t.wall for t in timers]
    return [(any(r[i][0] for r in runs), statistics.median(r[i][1] for r in runs))
            for i in range(len(runs[0]))]


def quantile(samples: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of (failed, seconds) pairs.

    A beta-weighted mean of the order statistics around rank q*n: the
    same quantile as the nearest-rank one, with far less run-to-run
    spread than a single order statistic.  Failures sort last.
    """
    values = np.array([s for _, s in sorted(samples)])
    n = values.size
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), values))


def proc_io() -> dict:
    """Bytes read and written and write calls of this process (zeros where unreadable)."""
    out = {"rchar": 0, "wchar": 0, "syscw": 0}
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in out:
                    out[key] = int(value)
    except OSError:
        pass
    return out


def add_io(total: dict, before: dict) -> None:
    for key, value in proc_io().items():
        total[key] += value - before[key]


# -- fleet ---------------------------------------------------------------------


def fleet_inputs(seed: int, gap: bool) -> dict:
    """The two hourly in-repo fixtures, started ``seed`` days later.

    The shift changes every timestamp the program reads and writes but
    none of the values, so each seed gives the same detector work.  With
    ``gap``, a seeded six-point outage (a run of missing values) lands in
    one metric after its first training.
    """
    shift = DAY_S * seed
    inputs = {}
    for name, lbs in sorted(bench.fixture_datasets(FLEET_FIXTURE_SEED).items()):
        hourly = bench.aggregate_labeled(lbs, "hourly")
        inputs[name] = dataclasses.replace(
            hourly,
            series=dataclasses.replace(hourly.series, start_epoch=hourly.series.start_epoch + shift),
            anomaly_windows=tuple((a + shift, b + shift) for a, b in hourly.anomaly_windows),
        )
    if gap:
        rng = np.random.default_rng(seed)
        name = sorted(inputs)[int(rng.integers(len(inputs)))]
        lbs = inputs[name]
        start = int(rng.integers(FIRST_TRAINING + TRAIN_EVERY, len(lbs.series) - 2 * TRAIN_EVERY))
        values = lbs.series.values.copy()
        values[start:start + GAP_LENGTH] = np.nan
        inputs[name] = dataclasses.replace(lbs, series=lbs.series.with_values(values))
    return inputs


def start_replay(root: Path, kind: dict, seed: int):
    """Inputs, CSV files, a fresh ``Engine`` and its registered jobs."""
    inputs = fleet_inputs(seed, kind["gap"])
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    engine = autoad.Engine(root / "store", tune_budget=TUNE_BUDGET, workers=1,
                           seed=ENGINE_SEED, n_mc=N_MC)
    for name, lbs in inputs.items():
        if kind["inline"]:
            source = {"inline": series_to_doc(lbs.series)}
        else:
            path = root / f"{name}.csv"
            write_csv(lbs.series, path)
            source = str(path)
        engine.register_job(autoad.JobSpec(
            job_id=name, metric_id=name, source=source, train_every=TRAIN_EVERY,
            score_every=kind["score_every"], model_ttl=MODEL_TTL,
        ))
    return engine, inputs


def run_ticks(engine, n_ticks: int, timer: Timer, tracer=None, op_prefix="", io=None) -> None:
    """Closed loop of ``advance_clock(1)`` calls.

    With ``io``, the process's I/O counters are added up around each
    call, so the probes' file round trips stay out of them.
    """
    for i in range(n_ticks):
        before = proc_io() if io is not None else None
        start = now()
        ok = True
        try:
            if tracer is None:
                engine.advance_clock(1)
            else:
                with tracer.span("orchestrator.advance_clock", f"{op_prefix}{i + 1}"):
                    engine.advance_clock(1)
        except Exception:  # noqa: BLE001 - a failed tick is counted, the loop goes on
            ok = False
        elapsed = now() - start
        if io is not None:
            add_io(io, before)
        timer.add(not ok, elapsed)
    timer.flush()


def inspect_replay(root: Path, inputs: dict) -> dict:
    """Output checks, digest, coverage and AUC of one replay's store."""
    scores_dir = root / "store" / "scores"
    digest = hashlib.sha256()
    checks = {"probabilities_in_unit_interval": True, "timestamps_increasing": True}
    rows = expected = 0
    probs, labels = [], []
    for name, lbs in inputs.items():
        path = scores_dir / f"{name}.csv"
        if path.exists():
            digest.update(name.encode() + b"\0" + path.read_bytes())
        records = bench.read_score_csv(path)
        stamps = [r["timestamp"] for r in records]
        p = np.array([r["probability"] for r in records], dtype=float)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            checks["probabilities_in_unit_interval"] = False
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            checks["timestamps_increasing"] = False
        rows += len(records)
        expected += int(np.count_nonzero(~np.isnan(lbs.series.values[FIRST_TRAINING:])))
        if records:
            pr, lb = bench.align_labels(lbs, records)
            probs.append(pr)
            labels.append(lb)
    probs = np.concatenate(probs) if probs else np.zeros(0)
    labels = np.concatenate(labels) if labels else np.zeros(0)
    auc = bench.auc(probs, labels) if 0 < labels.sum() < labels.size else float("nan")
    size = sum(f.stat().st_size for f in (root / "store").rglob("*") if f.is_file())
    return {"digest": digest.hexdigest(), "checks": checks, "rows": rows,
            "expected": expected, "auc": auc, "dir_bytes": size}


def run_passes(seconds: float, run_pass) -> list:
    """Whole passes while the next one should end within ``seconds``; at least one."""
    begin = now()
    passes = []
    while True:
        start = now()
        passes.append(run_pass(len(passes)))
        if now() - begin + (now() - start) > seconds:
            return passes


def fleet_run(args, out_dir: Path) -> dict:
    kind = FLEET[args.workload]
    work = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    first = start_replay(work / "replay", kind, args.seed)
    setup = setup_seconds(args.spawned_at)
    if args.setup_only:
        shutil.rmtree(work)
        return {"setup": setup}
    inputs = first[1]
    n_metrics = len(inputs)
    n_ticks = len(next(iter(inputs.values())).series)
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    io = {"rchar": 0, "wchar": 0, "syscw": 0}

    def one_pass(k: int) -> dict:
        # one full replay of the fleet; traced runs replay it again with spans on
        engine, inputs = first if k == 0 else start_replay(work / "replay", kind, args.seed)
        timer = Timer(TICK_PROBE)
        run_ticks(engine, n_ticks, timer, io=io)
        info = inspect_replay(work / "replay", inputs)
        untraced.append(timer)
        if tracer is not None:
            engine, inputs = start_replay(work / "replay", kind, args.seed)
            again = Timer(TICK_PROBE)
            tracer.install()
            try:
                run_ticks(engine, n_ticks, again, tracer, op_prefix=f"p{k}.t")
            finally:
                tracer.uninstall()
            traced.append(again)
            info["checks"]["traced_replay_identical"] = (
                inspect_replay(work / "replay", inputs)["digest"] == info["digest"])
        return info

    passes = run_passes(args.seconds, one_pass)
    checks: dict = {}
    for info in passes:
        for name, ok in info["checks"].items():
            checks[name] = checks.get(name, True) and ok
        checks["passes_identical"] = checks.get("passes_identical", True) and (
            info["digest"] == passes[0]["digest"])
    if args.workload == "fleet-stream" and not args.trace:
        # the batch cadence must write byte-identical score rows
        batch = FLEET["fleet-batch"]
        engine, inputs = start_replay(work / "batch", batch, args.seed)
        run_ticks(engine, n_ticks, Timer(TICK_PROBE))
        checks["stream_batch_digests_equal"] = (
            inspect_replay(work / "batch", inputs)["digest"] == passes[0]["digest"])

    ticks = sum(t.count for t in untraced)
    failed = sum(t.failed for t in untraced)
    rows = sum(p["rows"] for p in passes)
    expected = sum(p["expected"] for p in passes)

    wall, ref = (per_op(untraced, False), per_op(untraced, True))
    named = {
        "tick_ms_p50": (quantile(wall, 0.50) * 1e3, "ms"),
        "tick_ms_p99": (quantile(wall, 0.99) * 1e3, "ms"),
        "metric_ticks_per_s": (n_metrics * len(wall) / sum(t for _, t in wall), "1/s"),
        "scored_share": (rows / expected if expected else 0.0, "share"),
        "auc": (passes[0]["auc"], "auc"),
        "fail_share": (failed / ticks, "share"),
    }
    result = {
        "attempted": ticks,
        "failed": failed,
        "passes": len(passes),
        "checks": checks,
        "digest": passes[0]["digest"],
        "setup": setup,
        "wall_metrics": named,
        "probe_scale": statistics.median(t.scale() for t in untraced),
        "e2e": {
            "ok_share": 1.0 - failed / ticks,
            "op_ms_p50": quantile(ref, 0.50) * 1e3,
            "op_ms_tail": quantile(ref, 0.99) * 1e3,
            "work_per_s": n_metrics * len(ref) / sum(t for _, t in ref),
            "coverage": rows / expected if expected else 0.0,
        },
        "store": {
            "read_bytes_per_tick": io["rchar"] / ticks,
            "write_bytes_per_tick": io["wchar"] / ticks,
            "write_calls_per_tick": io["syscw"] / ticks,
            "dir_bytes": float(passes[0]["dir_bytes"]),
        },
    }
    if tracer is not None:
        finish_trace(result, tracer, ticks, len(passes), untraced, traced, out_dir, args)
    shutil.rmtree(work, ignore_errors=True)
    return result


def finish_trace(result, tracer, ops, units, untraced: list, traced: list, out_dir, args) -> None:
    """Per-layer metrics and the tracing overhead, from identical untraced and traced work."""
    base = sum(t.total() for t in untraced)
    spent = sum(t.total() for t in traced)
    scale = statistics.median(t.scale() for t in traced)
    layers = layer_metrics(tracer, ops, units, result["store"], scale)
    layers["trace.overhead_ms_per_op"] = (spent - base) * 1e3 / ops
    layers["trace.overhead_share"] = spent / base - 1.0
    result["layers"] = layers
    result["spans"] = write_spans(tracer, out_dir, args)


# -- train-retune ----------------------------------------------------------------


def simulated_series(length: int, seed: int) -> TimeSeries:
    """Hourly seasonal series with a slow random walk and white noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = (
        20
        + 5 * np.sin(2 * math.pi * t / 24)
        + np.cumsum(rng.normal(0, 0.05, length))
        + rng.normal(0, 1.0, length)
    )
    return TimeSeries.from_values(values)


def training_schedule(seed: int) -> list[tuple[int, int]]:
    """Every (length, series seed) pair of the fixed set, in a seeded order."""
    pool = [(length, s) for s in TRAIN_SERIES_SEEDS for length in TRAIN_LENGTHS]
    order = np.random.default_rng(seed).permutation(len(pool))
    return [pool[i] for i in order]


def train_once(series: TimeSeries, tune_seed: int):
    """One training: a tuning trigger, then profile, default config and fit."""
    result = autoad.tune(series, budget=TRAIN_BUDGET, alpha=0.5, seed=tune_seed)
    prof = autoad.profile(series)
    config = optimizer.default_config(prof, len(series))
    autoad.fit_structural(series, prof, config)
    return result


def train_run(args, out_dir: Path) -> dict:
    schedule = training_schedule(args.seed)
    series = {key: simulated_series(*key) for key in schedule}
    setup = setup_seconds(args.spawned_at)
    if args.setup_only:
        return {"setup": setup}
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # first-call costs would otherwise land on the untraced side only
        train_once(series[schedule[0]], tune_seed=schedule[0][1])
    outcomes: dict = {}
    reproduced = True
    best_costs: list = []
    io = {"rchar": 0, "wchar": 0, "syscw": 0}
    untraced, traced = [], []

    def train(key, timer: Timer, op_id=None):
        nonlocal reproduced
        start = now()
        result = None
        try:
            if op_id is None:
                result = train_once(series[key], tune_seed=key[1])
            else:
                with tracer.span("training", op_id):
                    result = train_once(series[key], tune_seed=key[1])
        except Exception:  # noqa: BLE001 - a failed training is counted, the loop goes on
            pass
        timer.add(result is None, now() - start)
        if result is not None:
            seen = (result.best_config.to_dict(), result.best_cost)
            reproduced = reproduced and outcomes.setdefault(key, seen) == seen
        return result

    def one_pass(k: int) -> dict:
        # every training of the pool once; traced runs follow each training
        # with the same training, spans on, so both see the same host load
        timer = Timer(TRAIN_PROBE)
        again = Timer(TRAIN_PROBE)
        trials = finite = 0
        for j, key in enumerate(schedule):
            before = proc_io()
            result = train(key, timer)
            add_io(io, before)
            if result is not None:
                if k == 0:
                    best_costs.append(result.best_cost)
                trials += len(result.trials)
                finite += sum(1 for _, c in result.trials if math.isfinite(c))
            if tracer is not None:
                tracer.install()
                try:
                    train(key, again, op_id=f"p{k}.j{j}")
                finally:
                    tracer.uninstall()
        timer.flush()
        untraced.append(timer)
        if tracer is not None:
            again.flush()
            traced.append(again)
        return {"trials": trials, "finite": finite}

    passes = run_passes(args.seconds, one_pass)
    if len(passes) == 1 and tracer is None:
        # no training came round twice: repeat the first one, untimed
        train(schedule[0], Timer(TRAIN_PROBE))

    done = sum(t.count for t in untraced)
    failed = sum(t.failed for t in untraced)
    trials = sum(p["trials"] for p in passes)
    finite = sum(p["finite"] for p in passes)
    checks = {
        "best_configs_reproduce": reproduced,
        "best_costs_finite": all(math.isfinite(c) for c in best_costs),
    }

    wall, ref = (per_op(untraced, False), per_op(untraced, True))
    named = {
        "train_s_p50": (quantile(wall, 0.50), "s"),
        "train_s_p90": (quantile(wall, 0.90), "s"),
        "tune_best_cost": (float(np.mean(best_costs)) if best_costs else float("nan"), "cost"),
        "fail_share": (failed / done, "share"),
    }
    result = {
        "attempted": done,
        "failed": failed,
        "passes": len(passes),
        "checks": checks,
        "digest": hashlib.sha256(json.dumps(sorted(
            (f"{k[0]}-{k[1]}", v[0], v[1]) for k, v in outcomes.items())).encode()).hexdigest(),
        "setup": setup,
        "wall_metrics": named,
        "probe_scale": statistics.median(t.scale() for t in untraced),
        "e2e": {
            "ok_share": 1.0 - failed / done,
            "op_ms_p50": quantile(ref, 0.50) * 1e3,
            "op_ms_tail": quantile(ref, 0.90) * 1e3,
            "work_per_s": len(ref) / sum(t for _, t in ref),
            "coverage": finite / trials if trials else 0.0,
        },
        "store": {
            "read_bytes_per_tick": io["rchar"] / done,
            "write_bytes_per_tick": io["wchar"] / done,
            "write_calls_per_tick": io["syscw"] / done,
            "dir_bytes": 0.0,
        },
    }
    if tracer is not None:
        finish_trace(result, tracer, done, done, untraced, traced, out_dir, args)
    return result


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(tracer: Tracer, ops: int, units: float, store: dict, scale: float) -> dict:
    """Per-layer numbers of the traced operations.

    ``ops`` are traced ticks (fleet) or trainings (train-retune); counts
    are per ``unit``, a 1440-tick replay (fleet) or one training.  Span
    times are rescaled to reference speed by the traced run's mean
    ``scale``.
    """
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0, "note_sum": 0.0}

    def row(name):
        return summary.get(name, zero)

    def per_call(name, unit_s, key="total_s"):
        r = row(name)
        return r[key] * scale / unit_s / r["calls"] if r["calls"] else 0.0

    def calls(name):
        return row(name)["calls"] / units

    def share(name, key):
        r = row(name)
        return r[key] / r["calls"] if r["calls"] else 0.0

    ms, us = 1e-3, 1e-6
    run_filter = row("filtering.run_filter")
    out = {
        "orchestrator.run_scoring_cycle.self_ms_per_tick":
            row("orchestrator.run_scoring_cycle")["self_s"] * scale / ms / ops,
        "orchestrator.jobs.calls_per_tick": row("orchestrator.jobs")["calls"] / ops,
        "orchestrator.jobs.ms_per_tick": row("orchestrator.jobs")["total_s"] * scale / ms / ops,
        "store.read_bytes_per_tick": store["read_bytes_per_tick"],
        "store.write_bytes_per_tick": store["write_bytes_per_tick"],
        "store.write_calls_per_tick": store["write_calls_per_tick"],
        "store.dir_bytes": store["dir_bytes"],
        "orchestrator.run_training_cycle.self_ms_per_cycle":
            per_call("orchestrator.run_training_cycle", ms, "self_s"),
        "orchestrator.run_evaluation_cycle.self_ms_per_cycle":
            per_call("orchestrator.run_evaluation_cycle", ms, "self_s"),
        "optimizer.tune.calls": calls("optimizer.tune"),
        "optimizer.tune.ms_per_call": per_call("optimizer.tune", ms),
        "optimizer.tune.best_cost": share("optimizer.tune", "note_sum"),
        "optimizer.prepare_labeled.ms_per_call": per_call("optimizer.prepare_labeled", ms),
        "optimizer.cost.calls": calls("optimizer.cost"),
        "optimizer.cost.self_ms_per_call": per_call("optimizer.cost", ms, "self_s"),
        "optimizer.cost.inf_share": share("optimizer.cost", "note_sum"),
        "structural.fit_structural.calls": calls("structural.fit_structural"),
        "structural.fit_structural.ms_per_call": per_call("structural.fit_structural", ms),
        "structural.fit_structural.fail_share": share("structural.fit_structural", "failed"),
        "filtering.fit_filtering.calls": calls("filtering.fit_filtering"),
        "filtering.fit_filtering.ms_per_call": per_call("filtering.fit_filtering", ms),
        "filtering.run_filter.points": run_filter["note_sum"] / units,
        "filtering.run_filter.us_per_point": (run_filter["total_s"] * scale / us / run_filter["note_sum"]
                                              if run_filter["note_sum"] else 0.0),
        "filtering.score_step.calls": calls("filtering.score_step"),
        "filtering.score_step.us_per_call": per_call("filtering.score_step", us),
        "structural.forecast.calls": calls("structural.forecast"),
        "structural.forecast.ms_per_call": per_call("structural.forecast", ms),
        "profiling.profile.calls": calls("profiling.profile"),
        "profiling.profile.ms_per_call": per_call("profiling.profile", ms),
        "evaluation.mv_curve.ms_per_call": per_call("evaluation.mv_curve", ms),
        "evaluation.em_curve.ms_per_call": per_call("evaluation.em_curve", ms),
        "series.read_csv.ms_per_call": per_call("series.read_csv", ms),
        "series.smooth.ms_per_call": per_call("series.smooth", ms),
        "series.impute.ms_per_call": per_call("series.impute", ms),
    }
    layer_self: dict[str, float] = {}
    for name, r in summary.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + r["self_s"]
    for layer in ("orchestrator", "optimizer", "structural", "filtering", "profiling",
                  "evaluation", "series"):
        out[f"{layer}.self_ms_per_op"] = layer_self.get(layer, 0.0) * scale / ms / ops
    return out


def write_spans(tracer: Tracer, out_dir: Path, args) -> str:
    spans_dir = out_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    return str(path)


# -- entry point --------------------------------------------------------------------


def versions() -> dict:
    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = "{name} {version}".format(**config["Build Dependencies"]["blas"])
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*FLEET, "train-retune"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    Path(PROBE_FILE).parent.mkdir(exist_ok=True)
    probe_s(TICK_PROBE)  # the first call creates the probe file and runs cold
    run = fleet_run if args.workload in FLEET else train_run
    try:
        result = run(args, out_dir)
    finally:
        os.remove(PROBE_FILE)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
