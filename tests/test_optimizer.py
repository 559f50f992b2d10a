import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoad import filtering
from autoad.errors import RateTooHigh
from autoad.optimizer import (
    FilteringParams,
    LabeledSeries,
    ModelConfig,
    StructuralParams,
    _CatDim,
    _FloatDim,
    cost,
    cross_entropy,
    default_config,
    fit_detector,
    inject_synthetic_anomalies,
    load_detector,
    mape,
    prepare_labeled,
    random_search,
    tune,
)
from autoad.profiling import DataProfile, profile
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


# trial lists of tune(seasonal_ar_series(n=300), budget=16, alpha=0.5, seed=s)
# recorded before the Parzen densities were built once per trial; seed 3's
# structural trials re-recorded when the CSS fit moved from Nelder-Mead to
# Levenberg-Marquardt:
# (method, truncate_at, log_scale, max_missing_fraction, decision_threshold,
#  (p, q, l) or (state_dim, forgetting), cost)
PINNED_TRIALS = {
    3: [
        ("structural", None, True, 0.2368105065960997, 0.899835958137992, (3, 2, 0), 0.12248423059769213),
        ("structural", None, False, 0.4331269402364738, 0.7390465977722762, (0, 2, 2), 0.29739502141122715),
        ("structural", None, False, 0.39122819049566204, 0.7578533511280605, (1, 1, 1), 0.2877099235051997),
        ("filtering", None, True, 0.7378377872921602, 0.9771773601632132, (1, 0.9647898659872746), 0.47032037067419996),
        ("structural", None, True, 0.1483028147700044, 0.9252210640527929, (3, 1, 0), 0.1867750037655289),
        ("structural", None, True, 0.13456021488255213, 0.9084526774416294, (3, 3, 0), 0.12273548110313481),
        ("structural", None, True, 0.22210648149749126, 0.9081330610494462, (3, 2, 1), 0.20882187889487835),
        ("structural", None, True, 0.09728112575443731, 0.9155993226823564, (3, 0, 0), 0.18697410767135647),
        ("structural", None, True, 0.2080751004056206, 0.9095254776283553, (2, 3, 0), 0.12257010643790764),
        ("structural", None, True, 0.1650061105841213, 0.9024637195197462, (2, 3, 2), 0.2247755418878421),
        ("structural", None, True, 0.1893032481740991, 0.9076312719024999, (1, 3, 0), 0.18666234536385756),
        ("structural", None, False, 0.22330325635645387, 0.9116785143994365, (3, 3, 0), 0.16667693940540557),
        ("structural", None, True, 0.24438442988297815, 0.9035354704205287, (2, 0, 0), 0.1890353176020086),
        ("structural", None, False, 0.24701554487966296, 0.8992807017960475, (0, 3, 0), 0.2573973237662746),
        ("structural", None, False, 0.20239756085606916, 0.9083775245973735, (2, 2, 0), 0.255109930006731),
        ("filtering", None, True, 0.2012180777757296, 0.9044754933758177, (2, 0.913826646814291), 0.5951410584750051),
    ],
    4: [
        ("filtering", None, True, 0.5113275528143616, 0.9871456091481443, (2, 0.9606748476163035), 0.5137160185225786),
        ("filtering", None, False, 0.37648658437727256, 0.9001487022859178, (1, 0.9870763638913469), 0.6475421926893394),
        ("filtering", None, False, 0.9022150797159884, 0.7380996083957639, (2, 0.9788157770826785), 0.6164760202585922),
        ("filtering", None, False, 0.9841529999311214, 0.684493170533562, (2, 0.9928097361377655), 0.6557228492593978),
        ("filtering", None, True, 0.49761700615443116, 0.997479043470369, (2, 0.9595119040594873), 0.5159788735830175),
        ("filtering", None, True, 0.4885209811910344, 0.992952747097291, (2, 0.9602749961449055), 0.5144948260654902),
        ("filtering", None, True, 0.5273516479216663, 0.9895239646708082, (2, 0.9600556052373241), 0.5149222102990729),
        ("filtering", None, True, 0.5025702357240194, 0.9972186669401535, (2, 0.9611632814313368), 0.5127651086743343),
        ("filtering", None, True, 0.503852170289671, 0.9951264942937956, (2, 0.9630776556375301), 0.5090517778035963),
        ("filtering", None, True, 0.5109114370535968, 0.9968989110786627, (2, 0.9611047335866831), 0.5128792280547844),
        ("filtering", None, True, 0.49557105215233077, 0.9984427173237059, (2, 0.9622852971824861), 0.5105881449086653),
        ("filtering", None, True, 0.5104308606503373, 0.9937682102975555, (2, 0.9603649045088759), 0.5143195183895098),
        ("filtering", None, True, 0.4996694649674607, 0.9925143122404109, (2, 0.9629410493866702), 0.5093146142697802),
        ("filtering", None, True, 0.48680796789873304, 0.9968789084592746, (2, 0.9626127201919437), 0.5099523458368385),
        ("filtering", None, True, 0.4879303990507098, 0.9854393325366138, (2, 0.9634742327778664), 0.5082905193014514),
        ("filtering", None, True, 0.5117260056027827, 0.9874279279840371, (2, 0.9621741706103165), 0.51080371335584),
    ],
}


class TestPinnedTrials:
    @pytest.mark.parametrize("seed", sorted(PINNED_TRIALS))
    def test_trials_match_recorded_run(self, seed):
        result = tune(seasonal_ar_series(n=300), budget=16, alpha=0.5, seed=seed)
        assert len(result.trials) == len(PINNED_TRIALS[seed])
        for (cfg, got), row in zip(result.trials, PINNED_TRIALS[seed]):
            method, truncate_at, log_scale, missing, threshold, params, want = row
            expected = ModelConfig(
                method=method,
                truncate_at=truncate_at,
                max_missing_fraction=missing,
                log_scale=log_scale,
                structural_params=StructuralParams(*params) if method == "structural" else None,
                filtering_params=FilteringParams(*params) if method == "filtering" else None,
                decision_threshold=threshold,
            )
            assert cfg == expected
            assert math.isclose(got, want, rel_tol=1e-12)


class TestNoiseMemo:
    @pytest.mark.parametrize("case", ["white_noise", "seasonal"])
    def test_memo_is_exact_and_lives_for_one_call(self, case, monkeypatch):
        if case == "white_noise":
            series, seed = ts_of(np.random.default_rng(1000).normal(0, 1, 300)), 0
        else:
            series, seed = seasonal_ar_series(n=300), 4
        calls = []
        likelihood = filtering._concentrated_likelihood

        def counted(values, model):
            calls.append(1)
            return likelihood(values, model)

        monkeypatch.setattr(filtering, "_concentrated_likelihood", counted)
        result = tune(series, budget=16, alpha=0.5, seed=seed)
        first = len(calls)

        fits = [cfg for cfg, c in result.trials if cfg.method == "filtering"]
        assert all(math.isfinite(c) for cfg, c in result.trials if cfg in fits)
        # the training values of a filtering trial are set by truncation
        # and the log transform
        pairs = {(cfg.truncate_at, cfg.log_scale, cfg.filtering_params.state_dim) for cfg in fits}
        evaluated = {(cfg.truncate_at, cfg.log_scale, cfg.filtering_params) for cfg in fits}
        assert len(pairs) < len(evaluated), "no two filtering trials share a scan"
        assert first == 11 * len(pairs)

        tune(series, budget=16, alpha=0.5, seed=seed)
        assert len(calls) == 2 * first

        labeled, prof = prepare_labeled(series, seed=seed)
        for cfg, c in result.trials:
            assert cost(cfg, labeled, 0.5, profile=prof) == c
        assert len(calls) == 2 * first + 11 * len(fits)


# today's per-candidate Parzen formulas, spelled out: the densities built
# once per trial must reproduce them bit for bit


def oracle_cat_weights(choices, observed):
    counts = [0.5] * len(choices)
    for v in observed:
        counts[choices.index(v)] += 1.0
    total = sum(counts)
    return [c / total for c in counts]


def oracle_cat_sample(rng, choices, observed):
    return choices[int(rng.choice(len(choices), p=oracle_cat_weights(choices, observed)))]


def oracle_cat_log_pdf(choices, value, observed):
    return math.log(oracle_cat_weights(choices, observed)[choices.index(value)])


def oracle_bandwidth(lo, hi, xs):
    span = hi - lo
    if len(xs) < 2:
        return span / 4.0
    sd = float(np.std(xs))
    return max(1.06 * sd * len(xs) ** -0.2, span / 50.0)


def oracle_float_sample(rng, lo, hi, observed):
    if not observed or rng.random() < 1.0 / (len(observed) + 1.0):
        return float(rng.uniform(lo, hi))
    bw = oracle_bandwidth(lo, hi, observed)
    center = observed[int(rng.integers(len(observed)))]
    for _ in range(50):
        x = rng.normal(center, bw)
        if lo <= x <= hi:
            return float(x)
    return float(rng.uniform(lo, hi))


def oracle_float_log_pdf(lo, hi, value, observed):
    span = hi - lo
    if not observed:
        return -math.log(span)
    bw = oracle_bandwidth(lo, hi, observed)
    xs = np.asarray(observed, dtype=float)
    kernel = np.exp(-0.5 * ((value - xs) / bw) ** 2) / (bw * math.sqrt(2 * math.pi))
    dens = (kernel.sum() + 1.0 / span) / (len(observed) + 1.0)
    return math.log(max(dens, 1e-300))


CAT_DIMS = [
    _CatDim("method", ("structural", "filtering")),
    _CatDim("truncate_at", (None, 120, 250)),
    _CatDim("p", (0, 1, 2, 3)),
]
FLOAT_DIMS = [
    _FloatDim("max_missing_fraction", 0.0, 1.0),
    _FloatDim("decision_threshold", 0.5, 0.999),
    _FloatDim("forgetting", 0.9, 0.9999),
]


class TestParzenDensities:
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_categorical_matches_per_candidate_oracle(self, data, seed):
        dim = data.draw(st.sampled_from(CAT_DIMS))
        observed = data.draw(st.lists(st.sampled_from(dim.choices), max_size=12))
        density = dim.density(observed)
        assert density.weights == oracle_cat_weights(dim.choices, observed)
        for value in dim.choices:
            assert density.log_pdf(value) == oracle_cat_log_pdf(dim.choices, value, observed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [density.sample(a) for _ in range(8)]
        assert got == [oracle_cat_sample(b, dim.choices, observed) for _ in range(8)]
        assert a.bit_generator.state == b.bit_generator.state

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_float_matches_per_candidate_oracle(self, data, seed):
        dim = data.draw(st.sampled_from(FLOAT_DIMS))
        point = st.floats(dim.lo, dim.hi)
        observed = data.draw(st.lists(point, max_size=12))
        values = data.draw(st.lists(point, min_size=1, max_size=6))
        density = dim.density(observed)
        assert density.bw == oracle_bandwidth(dim.lo, dim.hi, observed)
        for value in values:
            assert density.log_pdf(value) == oracle_float_log_pdf(dim.lo, dim.hi, value, observed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [density.sample(a) for _ in range(8)]
        assert got == [oracle_float_sample(b, dim.lo, dim.hi, observed) for _ in range(8)]
        assert a.bit_generator.state == b.bit_generator.state


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


class TestDetectors:
    @pytest.mark.parametrize("config", [
        ModelConfig(method="structural", log_scale=True,
                    structural_params=StructuralParams(p=2, q=1, l=1)),
        ModelConfig(method="filtering", log_scale=True,
                    filtering_params=FilteringParams(state_dim=2, forgetting=0.97)),
    ], ids=["structural", "filtering"])
    def test_restarted_detector_scores_like_the_fitted_one(self, config):
        """A detector rebuilt by load_detector from the stored payload and
        filter state, as an engine restart rebuilds it, scores bit for bit
        as the fitted one, in one batch and in chunks."""
        series = seasonal_ar_series(360)
        train, later = series.with_values(series.values[:300]), series.values[300:]
        prof = profile(train)
        steps = np.arange(later.size)
        candidates = np.linspace(later.min() - 3.0, later.max() + 3.0, 11)
        runs = []
        for sizes in ([later.size], [1, 5, 16, 17, 21]):
            bounds = np.cumsum([0, *sizes])
            fitted, _ = fit_detector(train, prof, config, horizon=later.size)
            stored = json.loads(json.dumps({"payload": fitted.model.to_dict(), "state": fitted.state()}))
            loaded = load_detector(stored["payload"], stored["state"], horizon=later.size)
            for detector in (fitted, loaded):
                scored = [detector.score(steps[a:b], later[a:b]) for a, b in zip(bounds, bounds[1:])]
                runs.append((
                    np.concatenate([probs for probs, _ in scored]),
                    np.concatenate([expected for _, expected in scored]),
                    detector.frozen(later.size - 1)(candidates),
                    detector.state(),
                ))
        first = runs[0]
        assert first[0].shape == first[1].shape == later.shape
        for run in runs[1:]:
            assert np.array_equal(run[0], first[0])
            assert np.array_equal(run[1], first[1])
            assert np.array_equal(run[2], first[2])
            assert run[3] == first[3]
        assert (first[3] is None) == (config.method == "structural")
