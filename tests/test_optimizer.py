import json
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autoad import filtering
from autoad.errors import RateTooHigh
from autoad.optimizer import (
    LabeledSeries,
    ModelConfig,
    GAMMA,
    N_EI,
    _CatDensity,
    _CatDim,
    _FloatDim,
    _build_space,
    _densities,
    _ranked_candidates,
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
from autoad.series import TimeSeries, to_model_scale
from autoad.stats import gaussian_anomaly_probability

from .conftest import grid_volume, seasonal_ar_series

ts_of = TimeSeries.from_values


class TestModelConfig:
    def test_exactly_one_branch_active(self):
        with pytest.raises(ValueError):
            ModelConfig(
                method="structural",
                p=1, q=0, l=0,
                state_dim=1, forgetting=0.99,
            )

    def test_defaults_fill_active_branch(self):
        cfg = ModelConfig(method="filtering")
        assert cfg.state_dim is not None and cfg.forgetting is not None
        assert cfg.p is None and cfg.q is None and cfg.l is None

    def test_round_trip(self):
        cfg = ModelConfig(
            method="structural",
            truncate_at=120,
            max_missing_fraction=0.1,
            log_scale=True,
            p=2, q=1, l=1,
            decision_threshold=0.9,
        )
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        cfg = replace(cfg, method="filtering", p=None, q=None, l=None, state_dim=2, forgetting=0.97)
        assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_stored_form_is_pinned(self):
        """The stored layout, key order included: the tune logs' bytes
        and the train-retune digest hash it."""
        stored = [
            ModelConfig(method="structural", truncate_at=120, p=2, q=1, l=1).to_dict(),
            ModelConfig(method="filtering", log_scale=True, state_dim=2, forgetting=0.97).to_dict(),
        ]
        assert json.dumps(stored) == json.dumps([
            {"method": "structural", "truncate_at": 120, "max_missing_fraction": 0.3,
             "log_scale": False, "decision_threshold": 0.95,
             "structural_params": {"p": 2, "q": 1, "l": 1}},
            {"method": "filtering", "truncate_at": None, "max_missing_fraction": 0.3,
             "log_scale": True, "decision_threshold": 0.95,
             "filtering_params": {"state_dim": 2, "forgetting": 0.97}},
        ])

    @pytest.mark.parametrize("fields", [
        {"p": 4}, {"q": -1}, {"l": -1},
        {"method": "filtering", "state_dim": 3},
        {"method": "filtering", "forgetting": 0.5},
    ], ids=["p", "q", "l", "state_dim", "forgetting"])
    def test_out_of_range_field_is_refused(self, fields):
        with pytest.raises(ValueError, match="out of range|must"):
            ModelConfig(**fields)

    @pytest.mark.parametrize("method, field, value", [
        ("structural", "state_dim", 1),
        ("structural", "forgetting", 0.99),
        ("filtering", "p", 1),
        ("filtering", "q", 0),
        ("filtering", "l", 0),
    ])
    def test_field_of_the_other_family_is_refused(self, method, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(method=method, **{field: value})

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
        cfg = ModelConfig(method="structural", p=1, q=0, l=1)
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
            ModelConfig(method="structural", p=1, q=1, l=1),
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
                **dict(zip(("p", "q", "l") if method == "structural" else ("state_dim", "forgetting"),
                           params)),
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
        pairs = {(cfg.truncate_at, cfg.log_scale, cfg.state_dim) for cfg in fits}
        evaluated = {(cfg.truncate_at, cfg.log_scale, cfg.state_dim, cfg.forgetting) for cfg in fits}
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


def oracle_cat_draw(rng, choices, weights):
    return choices[int(rng.choice(len(choices), p=weights))]


def oracle_cat_sample(rng, choices, observed):
    return oracle_cat_draw(rng, choices, oracle_cat_weights(choices, observed))


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
# the uniform prior's 1/span keeps every density above 1e-300 unless the
# span itself is that wide, so only such a dimension reaches the floor
WIDE_DIM = _FloatDim("wide", 0.0, 1e300)


class TestParzenDensities:
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_categorical_matches_per_candidate_oracle(self, data, seed):
        dim = data.draw(st.sampled_from(CAT_DIMS))
        observed = data.draw(st.lists(st.sampled_from(dim.choices), max_size=12))
        values = data.draw(st.lists(st.sampled_from(dim.choices), max_size=8))
        density = dim.density(observed)
        assert density.weights == oracle_cat_weights(dim.choices, observed)
        got = density.log_pdf(values)
        assert len(got) == len(values)
        for value, lp in zip(values, got):
            assert lp == oracle_cat_log_pdf(dim.choices, value, observed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [density.sample(a) for _ in range(8)]
        assert got == [oracle_cat_sample(b, dim.choices, observed) for _ in range(8)]
        assert a.bit_generator.state == b.bit_generator.state

    @given(
        weights=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_categorical_draw_is_generator_choice(self, weights, seed):
        total = sum(weights)
        weights = [w / total for w in weights]
        choices = tuple(f"c{k}" for k in range(len(weights)))
        density = _CatDensity(choices, weights)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [density.sample(a) for _ in range(16)]
        assert got == [oracle_cat_draw(b, choices, weights) for _ in range(16)]
        assert a.bit_generator.state == b.bit_generator.state

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_float_matches_per_candidate_oracle(self, data, seed):
        dim = data.draw(st.sampled_from(FLOAT_DIMS))
        point = st.floats(dim.lo, dim.hi)
        observed = data.draw(st.lists(point, max_size=12))
        # values outside the dimension too, where every kernel underflows
        far = st.floats(dim.lo - 1e6, dim.hi + 1e6)
        values = data.draw(st.lists(st.one_of(point, far), max_size=8))
        density = dim.density(observed)
        assert density.bw == oracle_bandwidth(dim.lo, dim.hi, observed)
        got = density.log_pdf(values)
        assert len(got) == len(values)
        for value, lp in zip(values, got):
            assert lp == oracle_float_log_pdf(dim.lo, dim.hi, value, observed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [density.sample(a) for _ in range(8)]
        assert got == [oracle_float_sample(b, dim.lo, dim.hi, observed) for _ in range(8)]
        assert a.bit_generator.state == b.bit_generator.state

    @given(
        observed=st.lists(st.floats(0.0, 1e3), max_size=12),
        values=st.lists(st.floats(0.0, 1e300), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_log_pdf_floor(self, observed, values):
        values = values + [1e300]
        got = WIDE_DIM.density(observed).log_pdf(values)
        for value, lp in zip(values, got):
            assert lp == oracle_float_log_pdf(WIDE_DIM.lo, WIDE_DIM.hi, value, observed)
        if observed:
            assert got[-1] == math.log(1e-300)


def reference_ranking(rng, method, shared, structural, filtering, rows, costs):
    """The proposal's candidates one at a time: each drawn with
    ``Generator.choice`` for its categories, then scored by the scalar
    oracles, one value per call, and sorted best first."""
    order = np.argsort(np.asarray(costs), kind="stable")
    n_good = max(1, math.ceil(GAMMA * len(costs)))
    good_rows = [rows[j] for j in order[:n_good]]
    bad_rows = [rows[j] for j in order[n_good:]]

    def sample(density):
        if isinstance(density, _CatDensity):
            return oracle_cat_draw(rng, density.choices, density.weights)
        return density.sample(rng)

    def log_pdf(density, value):
        if isinstance(density, _CatDensity):
            return math.log(density.weights[density.choices.index(value)])
        return oracle_float_log_pdf(density.dim.lo, density.dim.hi, value, density.xs.tolist())

    good_method = method.density([row["method"] for row in good_rows])
    bad_method = method.density([row["method"] for row in bad_rows])
    good_shared, bad_shared = _densities(shared, good_rows), _densities(shared, bad_rows)
    branches = {
        name: (dims, _densities(dims, good_rows, name), _densities(dims, bad_rows, name))
        for name, dims in (("structural", structural), ("filtering", filtering))
    }
    scored = []
    for _ in range(N_EI):
        cand = {"method": sample(good_method)}
        for dim, good in zip(shared, good_shared):
            cand[dim.name] = sample(good)
        branch, good_branch, bad_branch = branches[cand["method"]]
        for dim, good in zip(branch, good_branch):
            cand[dim.name] = sample(good)

        score = log_pdf(good_method, cand["method"]) - log_pdf(bad_method, cand["method"])
        for dim, good, bad in zip(shared, good_shared, bad_shared):
            score += log_pdf(good, cand[dim.name]) - log_pdf(bad, cand[dim.name])
        for dim, good, bad in zip(branch, good_branch, bad_branch):
            score += log_pdf(good, cand[dim.name])
            score -= log_pdf(bad, cand[dim.name])
        scored.append((score, cand))
    scored.sort(key=lambda sc: -sc[0])
    return scored


def dim_values(dim):
    if isinstance(dim, _CatDim):
        return st.sampled_from(dim.choices)
    return st.floats(dim.lo, dim.hi)


@st.composite
def trial_histories(draw):
    """A search space, a trial history over both branches and its costs."""
    prof = DataProfile(
        change_points=draw(st.sampled_from([(), (120,), (120, 250)])),
        fourier_terms=((1 / 24, 50.0),) * draw(st.integers(0, 3)),
    )
    method, shared, structural, filtering = _build_space(prof, 400)
    rows = []
    for _ in range(draw(st.integers(2, 30))):
        row = {dim.name: draw(dim_values(dim)) for dim in [method] + shared}
        branch = structural if row["method"] == "structural" else filtering
        row.update({dim.name: draw(dim_values(dim)) for dim in branch})
        rows.append(row)
    cost_values = st.one_of(st.floats(0.0, 2.0), st.just(math.inf))
    costs = draw(st.lists(cost_values, min_size=len(rows), max_size=len(rows)))
    return (method, shared, structural, filtering), rows, costs


class TestProposal:
    @given(history=trial_histories(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_candidate_at_a_time_reference(self, history, seed):
        space, rows, costs = history
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _ranked_candidates(a, *space, rows, costs)
        want = reference_ranking(b, *space, rows, costs)
        # every candidate, its score to the bit and its rank, so the same pick
        # whichever candidates' costs are known
        assert got == want
        assert a.bit_generator.state == b.bit_generator.state


# the proposal with its categorical densities as numpy arrays, drawn by
# ndarray.searchsorted and scored by fancy indexing, its float densities
# returning arrays and its scores one array: the oracle the proposal's
# candidates, scores and draws must match bit for bit


@dataclass(frozen=True)
class ArrayCatDensity:
    choices: tuple
    weights: list

    def __post_init__(self):
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_log_weights", np.array([math.log(w) for w in self.weights]))

    def sample(self, rng):
        return self.choices[int(self._cdf.searchsorted(rng.random(), side="right"))]

    def log_pdf(self, values):
        return self._log_weights[[self.choices.index(v) for v in values]]


@dataclass(frozen=True)
class ArrayFloatDensity:
    dim: _FloatDim
    xs: np.ndarray
    bw: float

    def sample(self, rng):
        dim, n = self.dim, self.xs.size
        if not n or rng.random() < 1.0 / (n + 1.0):
            return dim.prior_sample(rng)
        center = self.xs[int(rng.integers(n))]
        for _ in range(50):
            x = rng.normal(center, self.bw)
            if dim.lo <= x <= dim.hi:
                return float(x)
        return dim.prior_sample(rng)

    def log_pdf(self, values):
        span = self.dim.hi - self.dim.lo
        if not self.xs.size:
            return np.full(len(values), -math.log(span))
        bw = self.bw
        x = np.asarray(values, dtype=float)[:, None]
        kernel = np.exp(-0.5 * ((x - self.xs) / bw) ** 2) / (bw * math.sqrt(2 * math.pi))
        dens = (kernel.sum(axis=1) + 1.0 / span) / (self.xs.size + 1.0)
        return np.array([math.log(d) for d in np.maximum(dens, 1e-300).tolist()])


def array_densities(dims, rows, method=None):
    densities = []
    for dim in dims:
        observed = [row[dim.name] for row in rows
                    if dim.name in row and (method is None or row["method"] == method)]
        if isinstance(dim, _CatDim):
            densities.append(ArrayCatDensity(dim.choices, oracle_cat_weights(dim.choices, observed)))
        else:
            densities.append(ArrayFloatDensity(dim, np.asarray(observed, dtype=float),
                                               oracle_bandwidth(dim.lo, dim.hi, observed)))
    return densities


def array_ranking(rng, method, shared, structural, filtering, rows, costs):
    order = np.argsort(np.asarray(costs), kind="stable")
    n_good = max(1, math.ceil(GAMMA * len(costs)))
    good_rows = [rows[j] for j in order[:n_good]]
    bad_rows = [rows[j] for j in order[n_good:]]

    [good_method], [bad_method] = array_densities([method], good_rows), array_densities([method], bad_rows)
    good_shared, bad_shared = array_densities(shared, good_rows), array_densities(shared, bad_rows)
    branches = {
        name: (dims, array_densities(dims, good_rows, name), array_densities(dims, bad_rows, name))
        for name, dims in (("structural", structural), ("filtering", filtering))
    }

    cands = []
    for _ in range(N_EI):
        cand = {"method": good_method.sample(rng)}
        for dim, good in zip(shared, good_shared):
            cand[dim.name] = good.sample(rng)
        branch, good_branch, _ = branches[cand["method"]]
        for dim, good in zip(branch, good_branch):
            cand[dim.name] = good.sample(rng)
        cands.append(cand)

    methods = [cand["method"] for cand in cands]
    score = good_method.log_pdf(methods) - bad_method.log_pdf(methods)
    for dim, good, bad in zip(shared, good_shared, bad_shared):
        values = [cand[dim.name] for cand in cands]
        score += good.log_pdf(values) - bad.log_pdf(values)
    for name, (branch, good_branch, bad_branch) in branches.items():
        idx = [i for i, m in enumerate(methods) if m == name]
        for dim, good, bad in zip(branch, good_branch, bad_branch):
            values = [cands[i][dim.name] for i in idx]
            score[idx] += good.log_pdf(values)
            score[idx] -= bad.log_pdf(values)
    return [(float(score[i]), cands[i]) for i in np.argsort(-score, kind="stable")]


@st.composite
def proposal_histories(draw):
    """A search space and a history of one or more trials: both branches or
    one (the other has no rows), costs drawn from a few values (ties, inf)
    or from an interval."""
    prof = DataProfile(
        change_points=draw(st.sampled_from([(), (120,), (120, 250)])),
        fourier_terms=((1 / 24, 50.0),) * draw(st.integers(0, 3)),
    )
    method, shared, structural, filtering = _build_space(prof, 400)
    methods = draw(st.sampled_from([method.choices, ("structural",), ("filtering",)]))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        row = {dim.name: draw(dim_values(dim)) for dim in shared}
        row["method"] = draw(st.sampled_from(methods))
        branch = structural if row["method"] == "structural" else filtering
        row.update({dim.name: draw(dim_values(dim)) for dim in branch})
        rows.append(row)
    cost_values = draw(st.sampled_from([
        st.sampled_from([0.25, 0.5, math.inf]),
        st.one_of(st.floats(0.0, 2.0), st.just(math.inf)),
    ]))
    costs = draw(st.lists(cost_values, min_size=len(rows), max_size=len(rows)))
    return (method, shared, structural, filtering), rows, costs


EXAMPLE_SPACE = _build_space(DataProfile(change_points=(120,), fourier_terms=((1 / 24, 50.0),)), 400)
FILTER_ROW = {"log_scale": True, "truncate_at": None, "max_missing_fraction": 0.5,
              "decision_threshold": 0.9, "method": "filtering", "state_dim": 2, "forgetting": 0.95}
STRUCTURAL_ROW = {"log_scale": False, "truncate_at": 120, "max_missing_fraction": 0.3,
                  "decision_threshold": 0.7, "method": "structural", "p": 1, "q": 2, "l": 1}


def typed(ranked):
    return [(type(score), {name: type(v) for name, v in cand.items()}) for score, cand in ranked]


class TestProposalOracle:
    @given(history=proposal_histories(), seed=st.integers(0, 2**32 - 1))
    # one row, of infinite cost: a one-row good set, no bad rows and an empty branch
    @example(history=(EXAMPLE_SPACE, [FILTER_ROW], [math.inf]), seed=0)
    # four tied structural rows: a one-row good set picked by the stable sort
    @example(history=(EXAMPLE_SPACE, [STRUCTURAL_ROW] * 4, [0.5] * 4), seed=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_array_proposal(self, history, seed):
        """Values, candidates, their types and the generator's state, for
        one-row good sets, tied and infinite costs and empty branches."""
        space, rows, costs = history
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _ranked_candidates(a, *space, rows, costs)
        want = array_ranking(b, *space, rows, costs)
        assert got == want
        assert typed(got) == typed(want)
        assert a.bit_generator.state == b.bit_generator.state


class TestSharedWork:
    @pytest.mark.parametrize("seed", [4, 10])
    def test_each_key_runs_once_per_tune(self, seed, monkeypatch):
        """One tune runs the state half of a filter training pass once per
        (training values, state size); a second tune runs them all again,
        so the memo does not outlive its call."""
        halves = []
        level_pass = filtering._level_pass

        def counted_pass(model, state, values):
            # a training pass starts from a fitted model's initial state; the
            # scan's models have R = 1 and a scoring pass carries sums
            if model.R != 1.0 and state.w_sum == 0.0:
                halves.append((values.tobytes(), model.state_dim))
            return level_pass(model, state, values)

        monkeypatch.setattr(filtering, "_level_pass", counted_pass)
        series = seasonal_ar_series(n=300)
        result = tune(series, budget=16, alpha=0.5, seed=seed)
        # a trial's training values are set by truncation and the log transform
        filters = {(c.truncate_at, c.log_scale, c.state_dim, c.forgetting)
                   for c, _ in result.trials if c.method == "filtering"}
        filter_keys = {key[:3] for key in filters}
        assert len(halves) == len(set(halves)) == len(filter_keys)
        assert len(filters) > len(filter_keys), "no two trials share work"

        again = tune(series, budget=16, alpha=0.5, seed=seed)
        assert again.to_dict() == result.to_dict()
        assert len(halves) == 2 * len(filter_keys)


class TestDefaultConfig:
    def test_structural_when_enough_data(self):
        prof = DataProfile(fourier_terms=((1 / 24, 50.0),))
        cfg = default_config(prof, 500)
        assert cfg.method == "structural"
        assert cfg.l == 1

    def test_filtering_for_tiny_series(self):
        cfg = default_config(DataProfile(), 15)
        assert cfg.method == "filtering"

    def test_log_recommendation_respected(self):
        prof = DataProfile(log_recommended=True)
        assert default_config(prof, 400).log_scale is True


class TestDetectors:
    @pytest.mark.parametrize("config", [
        ModelConfig(method="structural", log_scale=True, p=2, q=1, l=1),
        ModelConfig(method="filtering", log_scale=True, state_dim=2, forgetting=0.97),
    ], ids=["structural", "filtering"])
    def test_restarted_detector_scores_like_the_fitted_one(self, config):
        """A detector rebuilt by load_detector from the stored payload and
        filter state, as an engine restart rebuilds it, scores bit for bit
        as the fitted one, in one batch and in chunks, and then gives the
        same predictive Gaussian."""
        series = seasonal_ar_series(360)
        train, later = series.with_values(series.values[:300]), series.values[300:]
        prof = profile(train)
        steps = np.arange(later.size)
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
                    detector.predictive(later.size - 1),
                    detector.state(),
                ))
        first = runs[0]
        assert first[0].shape == first[1].shape == later.shape
        for run in runs[1:]:
            assert np.array_equal(run[0], first[0])
            assert np.array_equal(run[1], first[1])
            assert run[2] == first[2]
            assert run[3] == first[3]
        assert (first[3] is None) == (config.method == "structural")

    @pytest.mark.parametrize("log_scale", [False, True], ids=["raw", "log"])
    @pytest.mark.parametrize("method", ["structural", "filtering"])
    def test_predictive_gaussian_judges_as_a_one_point_score(self, method, log_scale):
        """The predictive (center, scale) scores candidates across the value
        range as a one-point score from the same detector state does, and
        the detector's level-set lengths agree, within two grid spacings,
        with a 300-point midpoint grid of its own one-point stabilities."""
        if method == "structural":
            config = ModelConfig(method="structural", log_scale=log_scale, p=2, q=1, l=1)
        else:
            config = ModelConfig(method="filtering", log_scale=log_scale, state_dim=2, forgetting=0.97)
        series = seasonal_ar_series(330)
        train, later = series.with_values(series.values[:300]), series.values[300:]
        candidates = np.linspace(later.min() - 5.0, later.max() + 5.0, 60)
        fitted, _ = fit_detector(train, profile(train), config, horizon=later.size)
        fitted.score(np.arange(10), later[:10])
        stored = json.loads(json.dumps({"payload": fitted.model.to_dict(), "state": fitted.state()}))
        for step in (10, later.size - 1):
            center, scale = fitted.predictive(step)
            scaled = to_model_scale(candidates, fitted.model)
            got = gaussian_anomaly_probability(scaled - center, np.full_like(scaled, scale))

            def one_point(values):
                probs = []
                for v in values:
                    detector = load_detector(stored["payload"], stored["state"], horizon=later.size)
                    probs.append(detector.score(np.array([step]), np.array([v]))[0][0])
                return np.array(probs)

            assert np.allclose(got, one_point(candidates), rtol=0.0, atol=1e-12)
            domain, n = (candidates[0], candidates[-1]), 300
            us = np.array([0.0, 0.01, 0.05, 0.3, 0.7, 0.99, 1.0])
            want = grid_volume(lambda xs: 1.0 - one_point(xs), domain, n)(us)
            spacing = (domain[1] - domain[0]) / n
            assert np.all(np.abs(fitted.level_set_volume(us, step, domain) - want) <= 2 * spacing + 1e-12)
