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
    ScoreSample,
    classify_health,
    default_alphas,
    default_em_ts,
    em_curve,
    level_set_volume,
    mv_curve,
    scoring_function,
    summarize_criteria,
)

from autoad.orchestrator import LOG_WINDOW, SCORES_HEADER, Engine, _score_lines
from autoad.series import LOG_FLOOR
from autoad.stats import EPS_VAR

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


@st.composite
def shared_volume_cases(draw):
    """A stable-score sample and a predictive Gaussian's level sets, as the
    evaluation cycle builds them, with ties, single-valued samples, log-scale
    centers whose intervals cross the floor, and scales at or below EPS_VAR."""
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    scores = draw(st.one_of(
        st.lists(st.sampled_from(pool), min_size=1, max_size=120),  # ties
        st.builds(lambda v, n: [v] * n, st.floats(0.0, 1.0), st.integers(1, 40)),  # one distinct score
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=120),
    ))
    log_offset = draw(st.one_of(st.none(), st.floats(0.0, 50.0)))
    floor = math.log(LOG_FLOOR)
    if log_offset is None:
        center = draw(st.floats(-150.0, 150.0))
    else:  # centers whose intervals reach the floor are cut there
        center = draw(st.one_of(st.floats(-40.0, 6.0), st.floats(floor - 3.0, floor + 3.0)))
    scale = draw(st.one_of(st.sampled_from([0.0, EPS_VAR / 2, EPS_VAR]), st.floats(EPS_VAR, 100.0)))
    lo = draw(st.floats(-100.0, 100.0))
    domain = (lo, lo + draw(st.floats(1e-2, 200.0)))
    return np.array(scores), center, scale, log_offset, domain


class TestSharedVolume:
    @given(case=shared_volume_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_volume_call_gives_the_per_curve_bits(self, case):
        """One sort, one np.unique and one volume call over the distinct
        scores give both curves and their averages bit for bit as each
        curve's own sort and volume call do."""
        scores, center, scale, log_offset, domain = case

        def volume(us):
            return level_set_volume(us, center, scale, domain, log_offset)

        ts = default_em_ts(scores, domain)
        mv_want = mv_curve(volume, scores, default_alphas())
        em_want = em_curve(volume, scores, ts)
        sample = ScoreSample(scores)
        shared = sample.shared_volume(volume)
        mv = mv_curve(shared, sample, default_alphas())
        em = em_curve(shared, sample, ts)
        assert mv == mv_want
        assert em == em_want
        assert summarize_criteria(mv, em) == summarize_criteria(mv_want, em_want)

    def test_volume_runs_once_over_the_distinct_scores(self):
        calls = []

        def volume(us):
            calls.append(np.array(us))
            return level_set_volume(us, 0.0, 1.0, (-5.0, 5.0))

        sample = ScoreSample([0.3, 0.9, 0.3, 0.5, 0.9, 0.9])
        shared = sample.shared_volume(volume)
        mv_curve(shared, sample, default_alphas())
        em_curve(shared, sample, [0.1, 1.0])
        assert len(calls) == 1 and calls[0].tolist() == [0.3, 0.5, 0.9]

    def test_empty_sample(self):
        with pytest.raises(EmptyScores):
            mv_curve(grid_volume(indicator(0.3), (0.0, 1.0)), ScoreSample([]), [0.5])
        with pytest.raises(EmptyScores):
            em_curve(grid_volume(indicator(0.3), (0.0, 1.0)), ScoreSample([]), [0.5])

    @given(span=st.floats(0.0, 1.0), length=st.floats(1e-8, 1e12))
    @settings(max_examples=300, deadline=None)
    def test_em_grid_is_geomspace(self, span, length):
        t_max = max(span, 0.1) / length
        got = default_em_ts([0.0, span], (0.0, length))
        assert got.tobytes() == np.geomspace(t_max / 1000.0, t_max, 50).tobytes()

    def test_default_alphas_is_one_read_only_grid(self):
        alphas = default_alphas()
        assert alphas is default_alphas()
        assert not alphas.flags.writeable
        assert np.array_equal(alphas, np.round(np.arange(0.900, 0.9995, 0.001), 6))


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
        assert HealthSnapshot(**snap.to_dict()) == snap


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


def log_figures(log: ScoreLog, threshold: float):
    """The arrays the evaluation cycle reads and the figures it takes from
    a log, beside the same built from the log's entries as tuples."""
    entries = log.entries
    probs = np.array([p for _, p, _ in entries], dtype=float)
    obs = np.array([o for _, _, o in entries], dtype=float)
    run = 0
    for p in reversed(probs.tolist()):
        if p < threshold:
            break
        run += 1
    mean = float(np.mean(obs)) if obs.size else 0.0
    want = (probs, obs,
            float(np.mean(probs[-48:] >= threshold)) if probs.size else 0.0,
            float(np.std(obs) / max(abs(mean), 1e-12)) if obs.size >= 2 else 0.0,
            run)
    got = (log.probabilities(), log.observations(), log.anomaly_rate(threshold, last=48),
           log.coefficient_of_variation(), log.consecutive_anomalies(threshold))
    return got, want


class TestScoreLogColumns:
    def test_arrays_and_figures_match_the_entries(self, rng):
        """After appends, after the window trims, and after a reload from
        the scores CSV, the arrays the cycle reads hold the entries' bits
        and every figure equals one computed from the entries."""
        threshold = 0.95
        rows = [{"metric_id": "m", "timestamp": 3600 * i, "observed": float(v),
                 "expected": 0.0, "probability": float(p), "is_anomaly": int(p >= threshold),
                 "model_id": "m-t96-g0"}
                for i, (v, p) in enumerate(zip(rng.normal(10.0, 2.0, LOG_WINDOW + 200),
                                               rng.choice([0.01, 0.5, 0.97, 0.999], LOG_WINDOW + 200)))]
        log = ScoreLog("m", window=LOG_WINDOW)

        def check(state):
            got, want = log_figures(state, threshold)
            for array, expected in zip(got[:2], want[:2]):
                assert array.tobytes() == expected.tobytes()
                assert not array.flags.writeable
            assert got[2:] == want[2:]

        for start, end in ((0, 300), (300, LOG_WINDOW + 200)):  # the second stretch trims the oldest 200
            for r in rows[start:end]:
                log.append(r["timestamp"], r["probability"], r["observed"])
            check(log)
        assert len(log) == LOG_WINDOW and log.entries[0][0] == 3600 * 200
        reloaded = Engine._log_of("m", (SCORES_HEADER + _score_lines(rows)).encode())
        assert reloaded.entries == log.entries
        check(reloaded)

    def test_an_append_renews_the_arrays(self):
        log = ScoreLog("m", window=3)
        for i in range(3):
            log.append(i, 0.1 * i, float(i))
        before = log.probabilities()
        assert log.probabilities() is before  # one array per state, shared by its readers
        log.append(3, 0.9, 3.0)
        assert before.tolist() == [0.0, 0.1, 0.2]
        assert log.probabilities().tolist() == [0.1, 0.2, 0.9]
        assert log.observations().tolist() == [1.0, 2.0, 3.0]
