import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoad.errors import EmptyScores
from autoad.evaluation import (
    HealthSnapshot,
    HealthThresholds,
    ScoreLog,
    classify_health,
    default_alphas,
    default_em_ts,
    em_curve,
    mv_curve,
    scoring_function,
    summarize_criteria,
)


def indicator(width):
    return lambda x: (np.asarray(x) <= width).astype(float)


class TestScoringFunction:
    def test_endpoints(self):
        assert scoring_function(0.0) == 1.0
        assert scoring_function(1.0) == 0.0
        assert scoring_function(0.25) == 0.75

    @given(p=st.floats(0, 1, allow_nan=False))
    def test_applying_twice_returns_original(self, p):
        assert scoring_function(scoring_function(p)) == pytest.approx(p)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            scoring_function(1.5)


class TestMvCurve:
    def test_constant_scorer_full_volume(self):
        mv = mv_curve(lambda x: np.ones_like(np.asarray(x)), np.ones(50),
                      [0.2, 0.5, 0.9], (0.0, 10.0))
        assert all(v == pytest.approx(10.0) for _, v in mv)

    def test_indicator_level_set_volume(self):
        mv = mv_curve(indicator(0.3), np.ones(100), [0.2], (0.0, 1.0), n_mc=10_000, seed=1)
        se = math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(mv[0][1] - 0.3) <= 3 * se

    def test_uniform_scores_volume_equals_alpha(self, rng):
        xs = rng.uniform(0, 1, 4000)
        score_fn = lambda x: 1.0 - np.asarray(x)
        mv = mv_curve(score_fn, score_fn(xs), [0.1, 0.4, 0.7], (0.0, 1.0), seed=2)
        for alpha, vol in mv:
            se = math.sqrt(alpha * (1 - alpha) / 10_000) + 1.0 / math.sqrt(len(xs))
            assert abs(vol - alpha) <= 4 * se

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_non_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-1, 1)
        score_fn = lambda x: np.exp(-((np.asarray(x) - center) ** 2))
        samples = score_fn(rng.normal(center, 1, 200))
        mv = mv_curve(score_fn, samples, default_alphas(), (-4.0, 4.0), seed=seed)
        values = [v for _, v in mv]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            mv_curve(indicator(0.3), [], [0.5], (0.0, 1.0))

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            mv_curve(indicator(0.3), np.ones(10), [0.0], (0.0, 1.0))


class TestEmCurve:
    def test_zero_penalty_gives_unit_mass(self, rng):
        scores = rng.uniform(0, 1, 100)
        em = em_curve(indicator(0.5), scores, [0.0], (0.0, 1.0))
        assert em[0][1] == pytest.approx(1.0)

    def test_indicator_excess_mass(self):
        em = em_curve(indicator(0.3), np.ones(100), [1.0], (0.0, 1.0), n_mc=10_000, seed=1)
        se = math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(em[0][1] - 0.7) <= 3 * se

    def test_large_penalty_floors_at_zero(self):
        em = em_curve(indicator(0.3), np.ones(50), [1e9], (0.0, 1.0), seed=0)
        assert em[0][1] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_non_increasing_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        score_fn = lambda x: np.exp(-np.abs(np.asarray(x)))
        samples = score_fn(rng.normal(0, 1, 300))
        ts_grid = default_em_ts(samples, (-4.0, 4.0))
        em = em_curve(score_fn, samples, ts_grid, (-4.0, 4.0), seed=seed)
        values = [v for _, v in em]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            em_curve(indicator(0.3), [], [0.5], (0.0, 1.0))


class TestSummarize:
    def test_single_point_curves(self):
        assert summarize_criteria([(0.5, 3.0)], [(1.0, 0.4)]) == (3.0, 0.4)

    def test_constant_curve_average(self):
        mv = [(a, 10.0) for a in (0.9, 0.95, 0.99)]
        em = [(t, 0.5) for t in (0.1, 1.0)]
        assert summarize_criteria(mv, em) == (10.0, 0.5)

    def test_dominated_pair_ordering(self, rng):
        """A scorer whose level sets tightly wrap the data beats a loose one
        on both criteria, mirroring the optimal-curve inequalities."""
        data = rng.uniform(0, 0.3, 400)
        tight, loose = indicator(0.3), indicator(0.6)
        alphas = default_alphas()
        ts_grid = np.geomspace(0.01, 2.0, 50)
        mv_t, em_t = (
            mv_curve(tight, tight(data), alphas, (0, 1), seed=3),
            em_curve(tight, tight(data), ts_grid, (0, 1), seed=3),
        )
        mv_l, em_l = (
            mv_curve(loose, loose(data), alphas, (0, 1), seed=3),
            em_curve(loose, loose(data), ts_grid, (0, 1), seed=3),
        )
        mv_avg_t, em_avg_t = summarize_criteria(mv_t, em_t)
        mv_avg_l, em_avg_l = summarize_criteria(mv_l, em_l)
        assert mv_avg_t < mv_avg_l
        assert em_avg_t > em_avg_l


class TestClassifyHealth:
    def test_healthy_defaults(self):
        assert classify_health(1.0, 0.5, 0.0, 0, 0.2) == "G"

    def test_expired_model_is_red(self):
        assert classify_health(1.0, 0.5, 0.0, 0, 1.0) == "R"

    def test_anomaly_rate_trigger(self):
        assert classify_health(1.0, 0.5, 0.5, 0, 0.2) == "R"

    def test_soft_band_yellow(self):
        assert classify_health(1.0, 0.5, 0.17, 0, 0.2) == "Y"
        assert classify_health(1.0, 0.5, 0.0, 0, 0.85) == "Y"

    def test_consecutive_trigger(self):
        assert classify_health(1.0, 0.5, 0.0, 5, 0.2) == "R"
        assert classify_health(1.0, 0.5, 0.0, 4, 0.2) == "Y"

    def test_training_failure_is_red(self):
        assert classify_health(1.0, 0.5, 0.0, 0, 0.0, last_training_failed=True) == "R"

    def test_fleet_relative_curve_triggers(self):
        thr = HealthThresholds(mv_red=2.0, em_red=0.25)
        assert classify_health(2.5, 0.5, 0.0, 0, 0.2, thr) == "R"
        assert classify_health(1.0, 0.2, 0.0, 0, 0.2, thr) == "R"
        assert classify_health(1.7, 0.5, 0.0, 0, 0.2, thr) == "Y"

    @given(
        rate=st.floats(0, 1, allow_nan=False),
        consec=st.integers(0, 10),
        age=st.floats(0, 2, allow_nan=False),
        worsen=st.sampled_from(["rate", "consec", "age"]),
    )
    @settings(max_examples=60)
    def test_worsening_never_improves(self, rate, consec, age, worsen):
        order = {"G": 0, "Y": 1, "R": 2}
        before = classify_health(1.0, 0.5, rate, consec, age)
        rate2 = min(rate + 0.3, 1.0) if worsen == "rate" else rate
        consec2 = consec + 3 if worsen == "consec" else consec
        age2 = age + 0.5 if worsen == "age" else age
        after = classify_health(1.0, 0.5, rate2, consec2, age2)
        assert order[after] >= order[before]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            classify_health(math.nan, 0.5, 0.0, 0, 0.2)

    def test_snapshot_round_trip(self):
        snap = HealthSnapshot(1.0, 0.5, 0.1, 2, 0.3, 0.4, "Y")
        assert HealthSnapshot.from_dict(snap.to_dict()) == snap


class TestScoreLog:
    def test_append_enforces_order(self):
        log = ScoreLog("m")
        log.append(1, 0.5, 10.0)
        with pytest.raises(ValueError):
            log.append(1, 0.6, 11.0)

    def test_window_retention(self):
        log = ScoreLog("m", window=5)
        for i in range(12):
            log.append(i, 0.1, float(i))
        assert len(log.entries) == 5
        assert log.entries[0][0] == 7

    def test_anomaly_rate_and_consecutive(self):
        log = ScoreLog("m")
        probs = [0.1, 0.99, 0.05, 0.99, 0.99]
        for i, p in enumerate(probs):
            log.append(i, p, 1.0)
        assert log.anomaly_rate(0.95) == pytest.approx(3 / 5)
        assert log.consecutive_anomalies(0.95) == 2

    def test_stable_scores_exclude_confirmed_runs(self):
        log = ScoreLog("m")
        probs = [0.1, 0.1, 0.99, 0.99, 0.99, 0.1, 0.1, 0.1, 0.99, 0.1]
        for i, p in enumerate(probs):
            log.append(i, p, 1.0)
        stable = log.stable_scores(0.95, guard=1)
        # the 3-run and its 1-step neighborhood go; the isolated spike stays
        assert stable.size == 5
        assert np.all(stable >= 0.0)

    def test_coefficient_of_variation(self):
        log = ScoreLog("m")
        for i, v in enumerate([10.0, 12.0, 8.0, 11.0]):
            log.append(i, 0.1, v)
        obs = np.array([10.0, 12.0, 8.0, 11.0])
        assert log.coefficient_of_variation() == pytest.approx(np.std(obs) / np.mean(obs))
