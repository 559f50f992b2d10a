import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import erfc

from autoad.errors import EmptyScores
from autoad.evaluation import (
    HealthSnapshot,
    HealthThresholds,
    ScoreLog,
    classify_health,
    default_alphas,
    default_em_ts,
    em_curve,
    level_set_volume,
    mv_curve,
    scoring_function,
    summarize_criteria,
)

from .conftest import grid_volume


def stable_scores_oracle(probs, threshold, guard):
    """``ScoreLog.stable_scores`` as a loop over the decisions: each run of
    two or more, widened by ``guard`` on both sides, is excluded."""
    if probs.size == 0:
        return probs
    decisions = probs >= threshold
    exclude = np.zeros(probs.size, dtype=bool)
    i = 0
    while i < probs.size:
        if decisions[i]:
            j = i
            while j + 1 < probs.size and decisions[j + 1]:
                j += 1
            if j - i + 1 >= 2:
                exclude[max(0, i - guard):min(probs.size, j + 1 + guard)] = True
            i = j + 1
        else:
            i += 1
    kept = probs[~exclude]
    return scoring_function(kept) if kept.size else np.array([])


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


def interval_scorer(center, scale, log_offset):
    """The stability score s(x) = erfc(|g(x) - c| / (h sqrt 2)) of a
    predictive Gaussian, written out directly: g is the identity or, with a
    log offset, log(max(x + offset, 1e-12)); a scale <= 1e-12 scores 1
    within 1e-12 of the center and 0 elsewhere."""

    def score(x):
        g = x if log_offset is None else np.log(np.maximum(x + log_offset, 1e-12))
        d = np.abs(g - center)
        if scale <= 1e-12:
            return np.where(d > 1e-12, 0.0, 1.0)
        return erfc(d / (scale * math.sqrt(2.0)))

    return score


LOG_FLOOR_LEVEL = math.log(1e-12)


@st.composite
def interval_cases(draw):
    log_offset = draw(st.one_of(st.none(), st.floats(0.0, 50.0)))
    if log_offset is None:
        center = draw(st.floats(-150.0, 150.0))
    else:  # centers near the floor cut their intervals there
        center = draw(st.one_of(st.floats(-40.0, 6.0),
                                st.floats(LOG_FLOOR_LEVEL - 3.0, LOG_FLOOR_LEVEL + 3.0)))
    scale = draw(st.one_of(st.floats(0.0, 1e-12), st.floats(1e-12, 100.0)))
    lo = draw(st.floats(-100.0, 100.0))
    width = draw(st.floats(1e-2, 200.0))
    us = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0),
                                 st.floats(0.0, 1.0, allow_subnormal=False)),
                       min_size=1, max_size=5))
    return center, scale, log_offset, (lo, lo + width), np.array(us)


class TestLevelSetVolume:
    @given(case=interval_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_midpoint_grid(self, case):
        """The exact lengths agree with a 10^5-point midpoint grid over the
        domain within two grid spacings: at and below the log floor, at
        degenerate scales, and at u = 0 and u = 1."""
        center, scale, log_offset, domain, us = case
        n = 100_000
        want = grid_volume(interval_scorer(center, scale, log_offset), domain, n)(us)
        got = level_set_volume(us, center, scale, domain, log_offset)
        spacing = (domain[1] - domain[0]) / n
        assert np.all(np.abs(got - want) <= 2 * spacing + 1e-12 * (domain[1] - domain[0]))

    def test_edges_of_the_threshold_range(self):
        assert level_set_volume([0.0], 3.0, 1.0, (0.0, 10.0))[0] == 10.0
        assert level_set_volume([1.0], 3.0, 1.0, (0.0, 10.0))[0] == 0.0
        assert level_set_volume([0.05], 3.0, 1.0, (-10.0, 10.0))[0] == pytest.approx(2 * 1.959964, abs=1e-6)

    def test_degenerate_scale(self):
        vol = level_set_volume([0.0, 0.5, 1.0], 3.0, 0.0, (0.0, 10.0))
        assert vol[0] == 10.0
        assert vol[1:] == pytest.approx([2e-12, 2e-12], rel=1e-3)

    def test_log_floor(self):
        floor = LOG_FLOOR_LEVEL
        # an interval reaching the floor takes every value below it
        assert level_set_volume([0.5], floor, 1.0, (-5.0, 0.5), log_offset=0.0)[0] == pytest.approx(
            5.0 + math.exp(floor + 0.6744897501960817))
        # and one above the floor's reach is empty
        assert level_set_volume([0.5], floor - 3.0, 1.0, (-5.0, 5.0), log_offset=0.0)[0] == 0.0

    def test_rejects_thresholds_outside_unit_interval(self):
        with pytest.raises(ValueError):
            level_set_volume([1.5], 0.0, 1.0, (0.0, 1.0))


class TestMvCurve:
    def test_constant_scorer_full_volume(self):
        mv = mv_curve(grid_volume(lambda x: np.ones_like(np.asarray(x)), (0.0, 10.0)),
                      np.ones(50), [0.2, 0.5, 0.9])
        assert all(v == pytest.approx(10.0) for _, v in mv)

    def test_indicator_level_set_volume(self):
        mv = mv_curve(grid_volume(indicator(0.3), (0.0, 1.0)), np.ones(100), [0.2])
        assert abs(mv[0][1] - 0.3) <= 2e-5

    def test_uniform_scores_volume_equals_alpha(self, rng):
        xs = rng.uniform(0, 1, 4000)
        score_fn = lambda x: 1.0 - np.asarray(x)
        mv = mv_curve(grid_volume(score_fn, (0.0, 1.0)), score_fn(xs), [0.1, 0.4, 0.7])
        for alpha, vol in mv:
            assert abs(vol - alpha) <= 4 / math.sqrt(len(xs))

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_non_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-1, 1)
        score_fn = lambda x: np.exp(-((np.asarray(x) - center) ** 2))
        samples = score_fn(rng.normal(center, 1, 200))
        mv = mv_curve(grid_volume(score_fn, (-4.0, 4.0)), samples, default_alphas())
        values = [v for _, v in mv]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            mv_curve(grid_volume(indicator(0.3), (0.0, 1.0)), [], [0.5])

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            mv_curve(grid_volume(indicator(0.3), (0.0, 1.0)), np.ones(10), [0.0])


class TestEmCurve:
    def test_zero_penalty_gives_unit_mass(self, rng):
        scores = rng.uniform(0, 1, 100)
        em = em_curve(grid_volume(indicator(0.5), (0.0, 1.0)), scores, [0.0])
        assert em[0][1] == pytest.approx(1.0)

    def test_indicator_excess_mass(self):
        em = em_curve(grid_volume(indicator(0.3), (0.0, 1.0)), np.ones(100), [1.0])
        assert abs(em[0][1] - 0.7) <= 2e-5

    def test_large_penalty_floors_at_zero(self):
        em = em_curve(grid_volume(indicator(0.3), (0.0, 1.0)), np.ones(50), [1e9])
        assert em[0][1] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_non_increasing_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        score_fn = lambda x: np.exp(-np.abs(np.asarray(x)))
        samples = score_fn(rng.normal(0, 1, 300))
        ts_grid = default_em_ts(samples, (-4.0, 4.0))
        em = em_curve(grid_volume(score_fn, (-4.0, 4.0)), samples, ts_grid)
        values = [v for _, v in em]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            em_curve(grid_volume(indicator(0.3), (0.0, 1.0)), [], [0.5])


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
        vol_t, vol_l = grid_volume(tight, (0, 1)), grid_volume(loose, (0, 1))
        mv_t, em_t = mv_curve(vol_t, tight(data), alphas), em_curve(vol_t, tight(data), ts_grid)
        mv_l, em_l = mv_curve(vol_l, loose(data), alphas), em_curve(vol_l, loose(data), ts_grid)
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

    @settings(max_examples=200, deadline=None)
    @given(probs=st.lists(st.sampled_from([0.1, 0.5, 0.95, 0.99]), max_size=60),
           guard=st.integers(0, 7))
    def test_stable_scores_match_the_loop_oracle(self, probs, guard):
        log = ScoreLog("m", window=100)
        for i, p in enumerate(probs):
            log.append(i, p, 1.0)
        want = stable_scores_oracle(log.probabilities(), 0.95, guard)
        assert np.array_equal(log.stable_scores(0.95, guard=guard), want)

    def test_coefficient_of_variation(self):
        log = ScoreLog("m")
        for i, v in enumerate([10.0, 12.0, 8.0, 11.0]):
            log.append(i, 0.1, v)
        obs = np.array([10.0, 12.0, 8.0, 11.0])
        assert log.coefficient_of_variation() == pytest.approx(np.std(obs) / np.mean(obs))
