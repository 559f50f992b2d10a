"""NAB benchmark harness: replay, classification and forecasting metrics.

Drives the orchestrator sequentially over labeled benchmark series
(train rarely, score every step, let red health trigger retunes), scores
the resulting probabilities against the anomaly windows with rank-based
AUC, evaluates rolling-origin forecasts over non-anomalous regions, and
times the training path on simulated series.  Published figures from
:mod:`autoad.reference_values` are emitted beside every reproduced
number.  Missing dataset files produce a partial report, never a crash.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from . import reference_values as ref
from .errors import (
    IncompatibleFrequency,
    LengthMismatch,
    MissingData,
    SingleClass,
    UnknownDataset,
)
from .optimizer import default_config, tune
from .orchestrator import Engine, JobSpec, series_to_doc
from .profiling import profile as profile_series
from .series import TimeSeries, _parse_timestamp, aggregate, impute, read_csv
from .structural import fit_structural, forecast

REPLAY_TRAIN_EVERY = {"hourly": 48, "daily": 14}
FORECAST_HORIZON = {"hourly": 24, "daily": 7}


@dataclass(frozen=True)
class LabeledBenchSeries:
    name: str
    series: TimeSeries
    anomaly_windows: tuple[tuple[int, int], ...]
    point_labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.point_labels, dtype=np.int8)
        labels.setflags(write=False)
        object.__setattr__(self, "point_labels", labels)
        if labels.size != len(self.series):
            raise ValueError("labels must align with the series grid")


def _merge_windows(windows) -> tuple[tuple[int, int], ...]:
    spans = sorted((int(a), int(b)) for a, b in windows)
    merged: list[list[int]] = []
    for a, b in spans:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def labels_from_windows(ts: TimeSeries, windows) -> np.ndarray:
    labels = np.zeros(len(ts), dtype=np.int8)
    stamps = ts.timestamps
    for start, end in windows:
        labels[(stamps >= start) & (stamps <= end)] = 1
    return labels


def load_nab(data_csv_path, windows_json_path) -> LabeledBenchSeries:
    """Load one NAB data file plus its combined anomaly windows.

    The series is materialized on its uniform grid with gaps imputed;
    point labels mark membership in any (merged) anomaly window.
    """
    data_path = Path(data_csv_path)
    if not data_path.exists():
        raise MissingData(f"data file not found: {data_path}")
    windows_path = Path(windows_json_path)
    if not windows_path.exists():
        raise MissingData(f"windows file not found: {windows_path}")

    series = read_csv(data_path)
    series = impute(series, max_gap_fraction=1.0)

    doc = json.loads(windows_path.read_text())
    key = None
    for candidate in doc:
        if Path(candidate).name == data_path.name:
            key = candidate
            break
    if key is None:
        raise UnknownDataset(f"{data_path.name} not present in {windows_path.name}")
    windows = _merge_windows(
        (_parse_timestamp(a), _parse_timestamp(b)) for a, b in doc[key]
    )
    return LabeledBenchSeries(
        name=data_path.stem,
        series=series,
        anomaly_windows=windows,
        point_labels=labels_from_windows(series, windows),
    )


def aggregate_labeled(
    lbs: LabeledBenchSeries, target: str, agg: str = "mean"
) -> LabeledBenchSeries:
    """Aggregate values per the core transform; a coarse bucket is anomalous
    iff any source point inside it is."""
    coarse = aggregate(lbs.series, target, agg=agg)
    k = coarse.step // lbs.series.step
    n_buckets = len(coarse)
    trimmed = lbs.point_labels[: n_buckets * k].reshape(n_buckets, k)
    labels = (trimmed.max(axis=1) > 0).astype(np.int8)
    return LabeledBenchSeries(
        name=lbs.name,
        series=coarse,
        anomaly_windows=lbs.anomaly_windows,
        point_labels=labels,
    )


# -- replay -----------------------------------------------------------------


def replay(lbs: LabeledBenchSeries, tune_budget: int = 16, seed: int = 0) -> tuple[list[dict], int]:
    """Drive the orchestrator over the series; returns (score records, retunes).

    Training fires every 48 steps for hourly grids and every 14 for daily
    ones; every step is scored once a model exists.  Retunes are counted
    from the tune generation reached by the end of the replay.
    """
    freq = lbs.series.freq_label
    train_every = REPLAY_TRAIN_EVERY.get(freq, 48)
    spec = JobSpec(
        job_id=f"bench-{lbs.name}-{freq}",
        metric_id=f"{lbs.name}-{freq}",
        source={"inline": series_to_doc(lbs.series)},
        train_every=train_every,
        score_every=1,
        model_ttl=2 * train_every,
    )
    with tempfile.TemporaryDirectory() as root:
        engine = Engine(root, tune_budget=tune_budget, seed=seed)
        engine.register_job(spec)
        engine.advance_clock(len(lbs.series))
        records = read_score_csv(Path(root) / "scores" / f"{spec.metric_id}.csv")
        return records, engine.tune_generation(spec.metric_id)


def read_score_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                {
                    "metric_id": row["metric_id"],
                    "timestamp": int(row["timestamp"]),
                    "observed": float(row["observed"]),
                    "expected": float(row["expected"]),
                    "probability": float(row["probability"]),
                    "is_anomaly": int(row["is_anomaly"]),
                    "model_id": row["model_id"],
                }
            )
    return out


def align_labels(lbs: LabeledBenchSeries, records: Sequence[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Probability/label pairs for the replayed (post-warmup) timestamps."""
    start = lbs.series.start_epoch
    step = lbs.series.step
    probs, labels = [], []
    for rec in records:
        idx = (rec["timestamp"] - start) // step
        probs.append(rec["probability"])
        labels.append(int(lbs.point_labels[idx]))
    return np.asarray(probs, dtype=float), np.asarray(labels, dtype=np.int8)


# -- metrics -----------------------------------------------------------------


def auc(probabilities, labels) -> float:
    """Rank-based AUC (Mann-Whitney with average-rank tie correction)."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels)
    if p.size != y.size:
        raise LengthMismatch(f"{p.size} probabilities vs {y.size} labels")
    pos = y == 1
    n1 = int(pos.sum())
    n0 = p.size - n1
    if n1 == 0 or n0 == 0:
        raise SingleClass("AUC needs both classes present")
    ranks = rankdata(p)
    u = float(ranks[pos].sum()) - n1 * (n1 + 1) / 2.0
    return u / (n1 * n0)


def roc_points(probabilities, labels) -> list[tuple[float, float]]:
    """(fpr, tpr) pairs swept over the distinct probability thresholds."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels)
    pos = int((y == 1).sum())
    neg = y.size - pos
    if pos == 0 or neg == 0:
        raise SingleClass("ROC needs both classes present")
    order = np.argsort(-p, kind="stable")
    sorted_p = p[order]
    sorted_y = y[order]
    tps = np.cumsum(sorted_y == 1)
    fps = np.cumsum(sorted_y == 0)
    distinct = np.nonzero(np.diff(sorted_p))[0]
    idx = np.concatenate([distinct, [y.size - 1]])
    points = [(0.0, 0.0)]
    points.extend((fps[i] / neg, tps[i] / pos) for i in idx)
    return points


def forecast_metrics(pred, actual) -> tuple[float, float]:
    """(MDAPE %, RMSE); MDAPE denominators are epsilon-floored."""
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.size != a.size:
        raise LengthMismatch(f"{p.size} predictions vs {a.size} actuals")
    if p.size == 0:
        raise LengthMismatch("need at least one pair")
    ape = np.abs(p - a) / np.maximum(np.abs(a), 1e-8)
    mdape = float(np.median(ape) * 100.0)
    rmse = float(np.sqrt(np.mean((p - a) ** 2)))
    return mdape, rmse


def rolling_origin_forecast(
    lbs: LabeledBenchSeries, horizon: int, warmup: int, every: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Forecast `horizon` steps from successive origins; keep pairs whose
    target points are non-anomalous."""
    series = lbs.series
    labels = lbs.point_labels
    n = len(series)
    if every is None:
        every = horizon
    preds, actuals = [], []
    for origin in range(warmup, n - horizon + 1, every):
        data = series.with_values(series.values[:origin])
        prof = profile_series(data)
        config = default_config(prof, origin)
        if config.method != "structural":
            continue
        try:
            model = fit_structural(data, prof, config)
        except Exception:  # noqa: BLE001 - skip origins the model cannot support
            continue
        fc = forecast(model, horizon)
        for h in range(horizon):
            idx = origin + h
            if labels[idx] == 0:
                preds.append(fc[h][0])
                actuals.append(float(series.values[idx]))
    return np.asarray(preds), np.asarray(actuals)


# -- fixtures ---------------------------------------------------------------------


def fixture_datasets(seed: int = 0) -> dict[str, LabeledBenchSeries]:
    """Two deterministic NAB-shaped synthetic datasets (5-minute grid).

    Sixty days long so that both hourly and daily replays get scored
    regions containing anomalous and normal points.
    """
    out = {}
    rng = np.random.default_rng(seed)
    n = 12 * 24 * 60
    t = np.arange(n)
    start = 1_400_000_000
    step = 300

    daily = 50 + 10 * np.sin(2 * math.pi * t / (12 * 24)) + rng.normal(0, 1.0, n)
    w1 = (start + 20 * 86400, start + 20 * 86400 + 6 * 3600)
    w2 = (start + 45 * 86400, start + 45 * 86400 + 12 * 3600)
    for a, b in (w1, w2):
        i0 = (a - start) // step
        i1 = (b - start) // step + 1
        daily[i0:i1] += 25.0
    series = TimeSeries.from_values(daily, step=step, start_epoch=start)
    windows = _merge_windows([w1, w2])
    out["fixture_seasonal_spikes"] = LabeledBenchSeries(
        name="fixture_seasonal_spikes",
        series=series,
        anomaly_windows=windows,
        point_labels=labels_from_windows(series, windows),
    )

    level = np.cumsum(rng.normal(0, 0.3, n)) + 20 + rng.normal(0, 0.5, n)
    w3 = (start + 48 * 86400, start + 48 * 86400 + 18 * 3600)
    i0 = (w3[0] - start) // step
    i1 = (w3[1] - start) // step + 1
    level[i0:i1] -= 15.0
    series2 = TimeSeries.from_values(level, step=step, start_epoch=start)
    windows2 = _merge_windows([w3])
    out["fixture_drifting_dip"] = LabeledBenchSeries(
        name="fixture_drifting_dip",
        series=series2,
        anomaly_windows=windows2,
        point_labels=labels_from_windows(series2, windows2),
    )
    return out


# -- timing harness ----------------------------------------------------------------


def _simulated_training_series(length: int, seed: int) -> TimeSeries:
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = (
        20
        + 5 * np.sin(2 * math.pi * t / 24)
        + np.cumsum(rng.normal(0, 0.05, length))
        + rng.normal(0, 1.0, length)
    )
    return TimeSeries.from_values(values)


def time_training(
    lengths=(1000, 2000, 3000),
    triggers=(0, 1, 2, 3),
    tune_budget: int = 12,
    seed: int = 0,
) -> list[dict]:
    """Wall-clock seconds for profile+prepare+fit with k tuning triggers first."""
    rows = []
    for length in lengths:
        series = _simulated_training_series(length, seed)
        for k in triggers:
            t0 = time.perf_counter()
            for j in range(k):
                tune(series, budget=tune_budget, alpha=0.5, seed=seed + j)
            prof = profile_series(series)
            config = default_config(prof, length)
            fit_structural(series, prof, config)
            elapsed = time.perf_counter() - t0
            rows.append(
                {
                    "length": length,
                    "triggers": k,
                    "seconds": round(elapsed, 3),
                    "reference_seconds": ref.AUTOAD_RUNTIME[length][k]
                    if length in ref.AUTOAD_RUNTIME
                    else "",
                }
            )
    return rows


# -- full benchmark -------------------------------------------------------------------


@dataclass
class BenchConfig:
    out_dir: str
    nab_dir: Optional[str] = None
    datasets: Sequence[str] = tuple(ref.NAB_DATA_PATHS)
    freqs: Sequence[str] = ("hourly", "daily")
    agg: str = "mean"
    seed: int = 0
    include_fixtures: bool = False
    timing: bool = False
    tune_budget: int = 16


@dataclass
class BenchReport:
    auc_rows: list = field(default_factory=list)
    forecast_rows: list = field(default_factory=list)
    runtime_rows: list = field(default_factory=list)
    roc: list = field(default_factory=list)
    missing: list = field(default_factory=list)


def _bench_one(lbs: LabeledBenchSeries, freq: str, config: BenchConfig):
    train_every = REPLAY_TRAIN_EVERY[freq]
    warmup = max(30, 2 * train_every)
    records, retunes = replay(lbs, tune_budget=config.tune_budget, seed=config.seed)
    probs, labels = align_labels(lbs, records)
    auc_value = auc(probs, labels) if labels.sum() and labels.sum() < labels.size else float("nan")
    preds, actuals = rolling_origin_forecast(lbs, FORECAST_HORIZON[freq], warmup)
    if preds.size:
        mdape, rmse = forecast_metrics(preds, actuals)
    else:
        mdape, rmse = float("nan"), float("nan")
    return auc_value, retunes, mdape, rmse, probs, labels


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Produce auc/forecast/roc (and optionally runtime) report CSVs."""
    report = BenchReport()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks: list[tuple[str, Optional[LabeledBenchSeries]]] = []
    if config.include_fixtures:
        for name, lbs in fixture_datasets(config.seed).items():
            tasks.append((name, lbs))
    windows_path = (
        Path(config.nab_dir) / ref.NAB_WINDOWS_FILE if config.nab_dir else None
    )
    for name in config.datasets:
        if name not in ref.NAB_DATA_PATHS:
            raise UnknownDataset(name)
        if config.nab_dir is None:
            tasks.append((name, None))
            continue
        data_path = Path(config.nab_dir) / ref.NAB_DATA_PATHS[name]
        try:
            tasks.append((name, load_nab(data_path, windows_path)))
        except MissingData:
            tasks.append((name, None))

    pooled_probs: list[np.ndarray] = []
    pooled_labels: list[np.ndarray] = []
    for name, base in tasks:
        for freq in config.freqs:
            if base is None:
                report.missing.append(name)
                status = "missing"
                auc_cols = {"n_points": "", "auc": "", "retunes": ""}
                forecast_cols = {"mdape_pct": "", "rmse": ""}
            else:
                try:
                    lbs = aggregate_labeled(base, freq, agg=config.agg)
                except IncompatibleFrequency:
                    report.missing.append(f"{name}:{freq}")
                    continue
                auc_value, retunes, mdape, rmse, probs, labels = _bench_one(lbs, freq, config)
                pooled_probs.append(probs)
                pooled_labels.append(labels)
                status = "ok"
                auc_cols = {
                    "n_points": len(lbs.series),
                    "auc": round(auc_value, 5) if math.isfinite(auc_value) else "",
                    "retunes": retunes,
                }
                forecast_cols = {
                    "mdape_pct": round(mdape, 3) if math.isfinite(mdape) else "",
                    "rmse": round(rmse, 3) if math.isfinite(rmse) else "",
                }
            ref_fc = ref.AUTOAD_FORECAST.get(name, {}).get(freq, ("", ""))
            row = {"dataset": name, "freq": freq, "status": status}
            report.auc_rows.append({
                **row,
                **auc_cols,
                "reference_auc": ref.AUTOAD_AUC.get(name, {}).get(freq, ""),
                "reference_retunes": ref.AUTOAD_RETUNES.get(name, {}).get(freq, ""),
                "reference_prophet_auc": ref.PROPHET_AUC.get(name, {}).get(freq, ""),
                "reference_luminol_auc": ref.LUMINOL_AUC.get(name, {}).get(freq, ""),
                "reference_adtk_auc": ref.ADTK_AUC.get(name, {}).get(freq, ""),
            })
            report.forecast_rows.append({
                **row,
                **forecast_cols,
                "reference_mdape_pct": ref_fc[0],
                "reference_rmse": ref_fc[1],
                "reference_prophet_mdape_pct": ref.PROPHET_FORECAST.get(name, {}).get(freq, ("", ""))[0],
                "reference_auto_arima_mdape_pct": ref.AUTO_ARIMA_FORECAST.get(name, {}).get(freq, ("", ""))[0],
            })

    if pooled_probs:
        all_p = np.concatenate(pooled_probs)
        all_y = np.concatenate(pooled_labels)
        if 0 < all_y.sum() < all_y.size:
            report.roc = roc_points(all_p, all_y)

    if config.timing:
        report.runtime_rows = time_training(seed=config.seed)
        hardware = f"{platform.machine()} {platform.processor() or 'unknown-cpu'}"
        for row in report.runtime_rows:
            row["hardware"] = hardware

    _write_report_csvs(report, out_dir)
    return report


def _write_rows(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})


def _write_report_csvs(report: BenchReport, out_dir: Path) -> None:
    _write_rows(
        out_dir / "auc.csv",
        report.auc_rows,
        [
            "dataset", "freq", "status", "n_points", "auc", "retunes",
            "reference_auc", "reference_retunes", "reference_prophet_auc",
            "reference_luminol_auc", "reference_adtk_auc",
        ],
    )
    _write_rows(
        out_dir / "forecast.csv",
        report.forecast_rows,
        [
            "dataset", "freq", "status", "mdape_pct", "rmse",
            "reference_mdape_pct", "reference_rmse",
            "reference_prophet_mdape_pct", "reference_auto_arima_mdape_pct",
        ],
    )
    with open(out_dir / "roc_points.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in report.roc:
            writer.writerow([repr(float(fpr)), repr(float(tpr))])
    if report.runtime_rows:
        _write_rows(
            out_dir / "runtime.csv",
            report.runtime_rows,
            ["length", "triggers", "seconds", "reference_seconds", "hardware"],
        )
