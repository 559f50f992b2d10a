import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoad.errors import RateTooHigh
from autoad.optimizer import (
    FilteringParams,
    LabeledSeries,
    ModelConfig,
    StructuralParams,
    cost,
    cross_entropy,
    default_config,
    inject_synthetic_anomalies,
    mape,
    prepare_labeled,
    random_search,
    tune,
)
from autoad.profiling import DataProfile
from autoad.series import TimeSeries

from .conftest import seasonal_ar_series

ts_of = TimeSeries.from_values


class TestModelConfig:
    def test_exactly_one_branch_active(self):
        with pytest.raises(ValueError):
            ModelConfig(
                method="structural",
                structural_params=StructuralParams(),
                filtering_params=FilteringParams(),
            )

    def test_defaults_fill_active_branch(self):
        cfg = ModelConfig(method="filtering")
        assert cfg.filtering_params is not None
        assert cfg.structural_params is None

    def test_round_trip(self):
        cfg = ModelConfig(
            method="structural",
            truncate_at=120,
            max_missing_fraction=0.1,
            log_scale=True,
            structural_params=StructuralParams(p=2, q=1, l=1),
            decision_threshold=0.9,
        )
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(decision_threshold=1.0)


class TestInjection:
    def test_count_and_determinism(self, rng):
        ts = ts_of(rng.normal(10, 1, 1000))
        a = inject_synthetic_anomalies(ts, rate=0.02, seed=5)
        b = inject_synthetic_anomalies(ts, rate=0.02, seed=5)
        assert int(a.labels.sum()) == 20
        assert np.array_equal(a.series.values, b.series.values)
        assert a.injected == b.injected

    def test_labels_match_injected_indices(self, rng):
        ts = ts_of(rng.normal(0, 1, 400))
        lab = inject_synthetic_anomalies(ts, rate=0.05, seed=2)
        marked = {i for i, _ in lab.injected}
        assert marked == set(np.nonzero(lab.labels)[0])

    def test_zero_rate_is_identity(self, rng):
        ts = ts_of(rng.normal(0, 1, 100))
        lab = inject_synthetic_anomalies(ts, rate=0.0, seed=1)
        assert not lab.labels.any()
        assert np.array_equal(lab.series.values, ts.values)

    def test_warmup_points_never_perturbed(self, rng):
        ts = ts_of(rng.normal(0, 1, 200))
        lab = inject_synthetic_anomalies(ts, rate=0.1, seed=3)
        assert not lab.labels[:10].any()

    def test_constant_series_floored_scale(self):
        ts = ts_of(np.full(100, 10.0))
        lab = inject_synthetic_anomalies(ts, rate=0.05, seed=1)
        injected = np.nonzero(lab.labels)[0]
        assert np.all(lab.series.values[injected] != 10.0)

    def test_rate_too_high(self, rng):
        ts = ts_of(rng.normal(0, 1, 100))
        with pytest.raises(RateTooHigh):
            inject_synthetic_anomalies(ts, rate=0.2, seed=0)

    @given(rate=st.floats(0.001, 0.1), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_count_is_ceil_rate_n(self, rate, seed):
        rng = np.random.default_rng(0)
        ts = ts_of(rng.normal(0, 1, 300))
        lab = inject_synthetic_anomalies(ts, rate=rate, seed=seed)
        assert int(lab.labels.sum()) == math.ceil(rate * 300)


class TestCost:
    def test_constant_half_scorer_is_ln2(self):
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 0])
        ce = cross_entropy(np.full(8, 0.5), labels)
        assert abs(ce - math.log(2)) < 1e-12

    def test_perfect_scorer_near_zero(self):
        labels = np.array([0, 1, 0, 1])
        ce = cross_entropy(labels.astype(float), labels)
        assert ce < 1e-5

    @given(
        probs=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50),
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=50),
    )
    def test_cross_entropy_non_negative(self, probs, bits):
        n = min(len(probs), len(bits))
        assert cross_entropy(np.array(probs[:n]), np.array(bits[:n])) >= 0.0

    def test_mape_fraction(self):
        assert mape(np.array([1.1, 2.2]), np.array([1.0, 2.0])) == pytest.approx(0.1)

    def test_filtering_cost_ignores_alpha(self):
        task = seasonal_ar_series()
        labeled, prof = prepare_labeled(task, seed=2)
        cfg = ModelConfig(method="filtering")
        costs = {cost(cfg, labeled, a, profile=prof) for a in (0.0, 0.5, 1.0)}
        assert len(costs) == 1

    def test_structural_cost_affine_in_alpha(self):
        task = seasonal_ar_series()
        labeled, prof = prepare_labeled(task, seed=2)
        cfg = ModelConfig(method="structural", structural_params=StructuralParams(1, 0, 1))
        c0 = cost(cfg, labeled, 0.0, profile=prof)
        c1 = cost(cfg, labeled, 1.0, profile=prof)
        c_half = cost(cfg, labeled, 0.5, profile=prof)
        assert c_half == pytest.approx((c0 + c1) / 2, rel=1e-9)

    def test_missing_gate_returns_infinite(self):
        task = seasonal_ar_series()
        labeled, _ = prepare_labeled(task, seed=2)
        prof = DataProfile(missing_fraction=0.4)
        cfg = ModelConfig(method="filtering", max_missing_fraction=0.1)
        assert cost(cfg, labeled, 0.5, profile=prof) == math.inf

    @pytest.mark.parametrize("index", [50, 190])
    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(method="filtering"),
            ModelConfig(method="structural", structural_params=StructuralParams(1, 1, 1)),
        ],
        ids=["filtering", "structural"],
    )
    def test_missing_value_is_infinite(self, cfg, index):
        # index 50 lies in the training part, 190 in the holdout
        labeled, prof = prepare_labeled(seasonal_ar_series(n=200), seed=2)
        values = labeled.series.values.copy()
        values[index] = np.nan
        gappy = LabeledSeries(labeled.series.with_values(values), labeled.labels, labeled.injected)
        assert math.isfinite(cost(cfg, labeled, 0.5, profile=prof))
        assert cost(cfg, gappy, 0.5, profile=prof) == math.inf
        # a gap that truncation cuts away leaves the cost as without it
        values[index] = labeled.series.values[index]
        values[5] = np.nan
        early = LabeledSeries(labeled.series.with_values(values), labeled.labels, labeled.injected)
        cut = replace(cfg, truncate_at=20)
        assert cost(cut, early, 0.5, profile=prof) == cost(cut, labeled, 0.5, profile=prof)

    def test_truncation_too_tight_is_infinite(self):
        task = seasonal_ar_series(n=100)
        labeled, prof = prepare_labeled(task, seed=2)
        cfg = ModelConfig(method="filtering", truncate_at=90)
        assert cost(cfg, labeled, 0.5, profile=prof) == math.inf

    def test_invalid_alpha_rejected(self):
        task = seasonal_ar_series(n=100)
        labeled, prof = prepare_labeled(task, seed=2)
        with pytest.raises(ValueError):
            cost(ModelConfig(method="filtering"), labeled, 1.5, profile=prof)


class TestTune:
    def test_trials_length_and_best(self):
        task = seasonal_ar_series()
        result = tune(task, budget=12, alpha=0.5, seed=0)
        assert len(result.trials) == 12
        finite = [c for _, c in result.trials if math.isfinite(c)]
        assert result.best_cost == min(c for _, c in result.trials)
        if finite:
            assert math.isfinite(result.best_cost)

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            tune(seasonal_ar_series(), budget=5)

    def test_deterministic_given_seed(self):
        task = seasonal_ar_series(n=300)
        a = tune(task, budget=12, alpha=0.5, seed=4)
        b = tune(task, budget=12, alpha=0.5, seed=4)
        assert [(c.to_dict(), v) for c, v in a.trials] == [(c.to_dict(), v) for c, v in b.trials]

    def test_startup_phase_equals_random_search(self):
        task = seasonal_ar_series(n=300)
        r = random_search(task, budget=12, alpha=0.5, seed=7)
        t = tune(task, budget=12, alpha=0.5, seed=7, n_startup=12)
        assert [(c.to_dict(), v) for c, v in r.trials] == [(c.to_dict(), v) for c, v in t.trials]

    def test_guided_run_shares_the_startup_prefix(self):
        task = seasonal_ar_series(n=300)
        guided = tune(task, budget=16, alpha=0.5, seed=3)
        rand = random_search(task, budget=16, alpha=0.5, seed=3)
        n_startup = 16 // 4
        for (cfg_a, cost_a), (cfg_b, cost_b) in zip(
            guided.trials[:n_startup], rand.trials[:n_startup]
        ):
            assert cfg_a.to_dict() == cfg_b.to_dict()
            assert cost_a == cost_b

    def test_white_noise_selects_filtering(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            series = ts_of(rng.normal(0, 1, 300))
            result = tune(series, budget=16, alpha=0.5, seed=seed)
            wins += result.best_config.method == "filtering"
        assert wins >= 8

    def test_serialization(self):
        result = tune(seasonal_ar_series(n=300), budget=10, seed=0)
        doc = result.to_dict()
        assert len(doc["trials"]) == 10
        assert doc["best_config"]["method"] in ("structural", "filtering")


class TestDefaultConfig:
    def test_structural_when_enough_data(self):
        prof = DataProfile(fourier_terms=((1 / 24, 50.0),))
        cfg = default_config(prof, 500)
        assert cfg.method == "structural"
        assert cfg.structural_params.l == 1

    def test_filtering_for_tiny_series(self):
        cfg = default_config(DataProfile(), 15)
        assert cfg.method == "filtering"

    def test_log_recommendation_respected(self):
        prof = DataProfile(log_recommended=True)
        assert default_config(prof, 400).log_scale is True
