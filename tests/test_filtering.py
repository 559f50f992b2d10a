import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autoad import bench, filtering
from autoad.errors import InsufficientData, NumericalBreakdown
from scipy.signal import lfilter

from autoad.filtering import (
    FilterState,
    StateSpaceModel,
    FilterDetector,
    _concentrated_likelihood,
    _initial_state,
    _law_filter,
    _law_loop,
    _level_loop,
    _level_pass,
    _LOOP_PASS,
    _noise_model,
    _select_noise,
    SCAN_RATIOS,
    fit_filtering,
    run_filter,
    scan_ratio,
)
from autoad.optimizer import ModelConfig
from autoad.series import TimeSeries, fit_scale, to_model_scale
from autoad.stats import gaussian_anomaly_probability

ts_of = TimeSeries.from_values


def filtering_config(state_dim=1, forgetting=0.99, log_scale=False):
    return ModelConfig(
        method="filtering",
        log_scale=log_scale,
        state_dim=state_dim, forgetting=forgetting,
    )


def oracle_recursion(model, observations):
    """Textbook Kalman recursion written directly with numpy matrix ops.

    Starts from the model's x0 and p0·I and builds the observation row A and
    transition C from ``state_dim``.  Each step's level residual (the
    posterior minus the prior level) is scored, before it is absorbed,
    against the exponentially weighted mean and variance of the earlier
    residuals, summed out in full with weights forgetting**age, through
    the two-sided Gaussian tail erf(|z| / sqrt 2) with the variance
    floored at 1e-12.  Returns the final x, P's upper triangle, each step's
    probability, level residual, innovation and innovation variance,
    and the final residual mean and variance.
    """
    m = model.state_dim
    A = np.eye(1, m)
    C = np.array([[1.0]]) if m == 1 else np.array([[1.0, 1.0], [0.0, 1.0]])
    Q, R, lam = np.diag(model.q), model.R, model.forgetting
    x = np.array(model.x0, dtype=float)
    P = model.p0 * np.eye(m)
    I = np.eye(m)
    etas, innovations, variances = [], [], []
    for y in observations:
        x_prior = C @ x
        P_prior = C @ P @ C.T + Q
        P_prior = (P_prior + P_prior.T) / 2
        S = (A @ P_prior @ A.T).item() + R
        K = (P_prior @ A.T) / S
        nu = y - (A @ x_prior).item()
        x = x_prior + (K * nu).ravel()
        P = (I - K @ A) @ P_prior
        P = (P + P.T) / 2
        etas.append(x[0] - x_prior[0])
        innovations.append(nu)
        variances.append(S)

    # row t weighs residual i <= t by forgetting**(t - i)
    e = np.array(etas)
    age = np.subtract.outer(np.arange(e.size), np.arange(e.size))
    weights = np.where(age >= 0, lam ** np.maximum(age, 0), 0.0)
    means = weights @ e / weights.sum(axis=1)
    var = (weights * (e[None, :] - means[:, None]) ** 2).sum(axis=1) / weights.sum(axis=1)
    # step t is scored against the statistics of steps before it
    before_mean = np.concatenate([[0.0], means[:-1]])
    before_var = np.concatenate([[0.0], var[:-1]])
    z = np.abs(e - before_mean) / np.sqrt(np.maximum(before_var, 1e-12))
    probs = np.array([math.erf(v / math.sqrt(2.0)) for v in z])
    return {
        "x": x,
        "P": P[np.triu_indices(m)],
        "probs": probs,
        "etas": e,
        "innovations": np.array(innovations),
        "variances": np.array(variances),
        "eta_mean": float(means[-1]),
        "eta_var": float(var[-1]),
    }


def posterior(state):
    """The posterior state a FilterState's delays hold: the level, and for
    a trend the slope, which is the next predicted level less the level."""
    if len(state.delays) == 1:
        return np.array(state.delays)
    z0, z1 = state.delays
    return np.array([-z1, z0 + z1])


def initial_covariance(model):
    """The entries of the initial covariance p0·I: (p0,) or (p0, 0, p0)."""
    return (model.p0,) if model.state_dim == 1 else (model.p0, 0.0, model.p0)


def covariance(entries):
    """The symmetric matrix of a covariance's entries (p,) or (p00, p01, p11)."""
    if len(entries) == 1:
        return np.array([entries])
    p00, p01, p11 = entries
    return np.array([[p00, p01], [p01, p11]])


def sized(m, x0, x1, p00, p01, p11):
    """(x, P's entries) of size ``m`` from the local linear trend's entries."""
    if m == 1:
        return np.array([x0]), (p00,)
    return np.array([x0, x1]), (p00, p01, p11)


def reference_kalman_pass(model, x, P, values):
    """Every step of the Kalman predict/update recursion in its textbook
    state form, covariance included, with per-step lists, from the
    posterior (x, P): the reference the level kernel must match to
    rounding.  ``P`` holds the covariance's entries, (p,) or (p00, p01,
    p11).  Returns the per-step predicted level, level residual,
    innovation and innovation variance, then the last posterior and prior
    as (x, P's entries) of the model's size; ``values`` holds at least one
    point."""
    m = model.state_dim
    q00, q11 = (*model.q, 0.0)[:2]
    r = model.R
    x0, x1 = (*x, 0.0)[:2]
    p00, p01, p11 = (*P, 0.0, 0.0)[:3]
    n = len(values)
    level, eta, innovation, s_innov = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    for i, y in enumerate(values):
        # predict with the transition [[1, 1], [0, 1]]
        xp0 = x0 + x1
        xp1 = x1
        pp00 = p00 + 2.0 * p01 + p11 + q00
        pp01 = p01 + p11
        pp11 = p11 + q11
        s = pp00 + r
        if s <= 0.0:
            raise NumericalBreakdown(f"innovation variance {s} <= 0")
        k0 = pp00 / s
        k1 = pp01 / s
        nu = y - xp0
        x0 = xp0 + k0 * nu
        x1 = xp1 + k1 * nu
        p00 = (1.0 - k0) * pp00
        p01 = (1.0 - k0) * pp01
        p11 = pp11 - k1 * pp01
        level[i] = xp0
        eta[i] = x0 - xp0
        innovation[i] = nu
        s_innov[i] = s
    post = sized(m, x0, x1, p00, p01, p11)
    prior = sized(m, xp0, xp1, pp00, pp01, pp11)
    return level, eta, innovation, s_innov, post, prior


def reference_likelihood(values, model):
    """The concentrated likelihood from the reference pass's per-step
    lists, summed in order by ``np.cumsum``."""
    _, _, nu, s, _, _ = reference_kalman_pass(model, model.x0, initial_covariance(model), values.tolist())
    sum_log_s = float(np.cumsum(list(map(math.log, s)))[-1])
    nu, s = np.array(nu), np.array(s)
    sum_ratio = float(np.cumsum(nu * nu / s)[-1])
    n = values.size
    r_hat = max(sum_ratio / n, 1e-10)
    loglik = -0.5 * (sum_log_s + n * math.log(r_hat) + n)
    return loglik, r_hat


def reference_select_noise(y, state_dim):
    """The 12-pass noise scan, which ran the first scan's best ratio again
    as the middle candidate of the refinement, kept as its reference."""
    x0, p0_scale = _initial_state(y, state_dim)

    def scan(rhos):
        best = (-math.inf, None, None)
        for rho in rhos:
            model = _noise_model(state_dim, rho, 1.0, x0, p0_scale)
            loglik, r_hat = _concentrated_likelihood(y, model)
            if loglik > best[0]:
                best = (loglik, rho, r_hat)
        return best

    _, rho_best, _ = scan(np.logspace(-3.0, 3.0, 7))
    _, rho_best, r_hat = scan(rho_best * np.logspace(-0.5, 0.5, 5))
    return rho_best, r_hat


def reference_training_pass(model, values):
    """:func:`reference_kalman_pass` from the model's initial state, then
    the per-step weighted Welford recursion over its level residuals: the
    probabilities, final state entries and levels a training pass must
    match to rounding."""
    level, eta, _, _, (x, P), _ = reference_kalman_pass(model, model.x0, initial_covariance(model), values.tolist())
    lam = model.forgetting
    w_sum = mean = s_accum = var = 0.0
    probs = []
    for e in eta:
        probs.append(gaussian_anomaly_probability(e - mean, math.sqrt(max(var, 1e-12))))
        w_sum = lam * w_sum + 1.0
        delta = e - mean
        mean = mean + delta / w_sum
        s_accum = lam * s_accum + delta * (e - mean)
        var = max(s_accum / w_sum, 0.0)
    state = {"x_post": x, "P_post": P, "eta_mean": mean, "eta_var": var, "w_sum": w_sum,
             "s_accum": s_accum}
    return np.array(probs), state, np.array(level)


def per_step_select_noise(y, state_dim):
    """The 11-pass noise scan with every pass the per-step reference
    recursion: the selected ratio, its R estimate and its likelihood."""
    x0, p0_scale = _initial_state(y, state_dim)
    passes = {}

    def scan(rhos):
        for rho in rhos:
            if rho not in passes:
                passes[rho] = reference_likelihood(y, _noise_model(state_dim, rho, 1.0, x0, p0_scale))
        return max(rhos, key=lambda rho: passes[rho][0])  # the first of equals, as the scan keeps

    rho_best = scan(scan(np.logspace(-3.0, 3.0, 7)) * np.logspace(-0.5, 0.5, 5))
    loglik, r_hat = passes[rho_best]
    return rho_best, r_hat, loglik


def fixed_point_step(model, state, n):
    """How many steps the covariance recursion runs from ``state`` in a
    pass of ``n`` points; fewer than ``n`` means it reached its fixed point."""
    return len(_level_pass(model, state, np.zeros(n))[0])


def random_model(rng, state_dim):
    r = float(rng.uniform(0.05, 3.0))
    forgetting = float(rng.uniform(0.9, 0.9999))
    if state_dim == 1:
        model = StateSpaceModel.local_level(
            q=float(rng.uniform(0.01, 2.0)),
            r=r,
            x0=float(rng.normal(0, 2)),
            p0=float(rng.uniform(0.1, 5.0)),
            forgetting=forgetting,
        )
    else:
        model = StateSpaceModel.local_linear_trend(
            q_level=float(rng.uniform(0.01, 2.0)),
            q_slope=float(rng.uniform(0.001, 0.2)),
            r=r,
            x0=rng.normal(0, 2, 2),
            p0=float(rng.uniform(0.1, 5.0)),
            forgetting=forgetting,
        )
    return model


def oracle_deviation(model, ys) -> float:
    """Largest gap between one run_filter pass and the oracle: final state,
    per-step probabilities and the final residual statistics."""
    probs, state, _ = run_filter(model, ys)
    oracle = oracle_recursion(model, ys)
    return max(
        float(np.max(np.abs(posterior(state) - oracle["x"]))),
        float(np.max(np.abs(np.subtract(state.P_post, oracle["P"])))),
        float(np.max(np.abs(probs - oracle["probs"]))),
        abs(state.eta_mean - oracle["eta_mean"]),
        abs(state.eta_var - oracle["eta_var"]),
    )


class TestKalmanStep:
    def test_hand_evaluated_scalar_step(self):
        model = StateSpaceModel.local_level(q=0.1, r=1.0, x0=0.0, p0=1.0)
        _, state, level = run_filter(model, [1.0])
        k = 1.1 / 2.1
        assert state.delays[0] == pytest.approx(k, rel=1e-12)
        assert state.delays[0] - level[0] == pytest.approx(k, rel=1e-12)
        assert state.P_post[0] == pytest.approx((1 - k) * 1.1)
        assert level.tolist() == [0.0]

    def test_noiseless_constant_tracking(self):
        model = StateSpaceModel.local_level(q=0.0, r=1e-9, x0=0.0, p0=1.0)
        _, state, level = run_filter(model, np.full(50, 4.0))
        assert state.delays[0] == pytest.approx(4.0, abs=1e-6)
        assert abs(state.delays[0] - level[-1]) < 1e-6

    @pytest.mark.parametrize("state_dim", [1, 2])
    def test_matches_direct_recursion_oracle(self, state_dim, rng):
        model = random_model(rng, state_dim)
        ys = rng.normal(0, 1, 500)
        assert oracle_deviation(model, ys) < 1e-10
        _, _, level = run_filter(model, ys)
        oracle = oracle_recursion(model, ys)
        assert np.allclose(level, ys - oracle["innovations"], rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("state_dim", [1, 2])
    def test_fast_path_equivalent_to_step(self, state_dim, rng):
        """One point per pass, carrying the state, is one whole pass bit for bit."""
        model = random_model(rng, state_dim)
        ys = rng.normal(0, 1, 300)
        state = FilterState.initial(model)
        probs, levels = [], []
        for y in ys:
            p, state, level = run_filter(model, [y], state)
            probs.extend(p)
            levels.extend(level)
        whole_probs, whole_state, whole_levels = run_filter(model, ys)
        assert np.array_equal(probs, whole_probs)
        assert np.array_equal(levels, whole_levels)
        assert state.to_dict() == whole_state.to_dict()
        assert np.allclose(probs, oracle_recursion(model, ys)["probs"], rtol=0.0, atol=1e-12)

    def test_short_passes_floor_the_variance_as_long_ones(self, rng):
        """Passes shorter than _LOOP_PASS points score point by point in the
        loops, longer ones through lfilter and the array path; where the
        residual variance sits under its floor they still match one pass."""
        model = StateSpaceModel.local_level(q=1.0, r=1e-4, x0=5.0, p0=1.0)
        ys = 5.0 + rng.normal(0, 1e-7, 200)
        whole_probs, whole_state, _ = run_filter(model, ys)
        assert whole_state.eta_var < 1e-12  # the floor binds throughout
        assert 0.0 < whole_probs.min() and whole_probs.max() < 1.0
        state, probs = None, []
        for chunk in np.split(ys, [1, 3, 8, 16, 24, 25, 120]):
            p, state, _ = run_filter(model, chunk, state)
            probs.extend(p)
        assert np.array_equal(probs, whole_probs)
        assert state.to_dict() == whole_state.to_dict()

    def test_covariances_stay_symmetric_psd_long_run(self, rng):
        """10^5 randomized steps across fresh models keep P PSD; its
        entries hold a symmetric P by their form."""
        steps_total = 0
        while steps_total < 100_000:
            model = random_model(rng, 2 if steps_total % 2 else 1)
            state = FilterState.initial(model)
            for chunk in rng.normal(0, 5, (100, 100)):
                _, state, _ = run_filter(model, chunk, state)
                assert np.linalg.eigvalsh(covariance(state.P_post)).min() >= -1e-12
            steps_total += 10_000

    def test_rejects_non_finite_observation(self):
        model = StateSpaceModel.local_level(q=0.1, r=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                run_filter(model, [1.0, bad, 2.0])

    @given(lam=st.floats(0.9, 0.9999), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_full_memory_matches_batch_statistics(self, lam, seed):
        rng = np.random.default_rng(seed)
        model = StateSpaceModel.local_level(q=0.3, r=1.0, forgetting=1.0)
        ys = rng.normal(0, 1, 200)
        _, state, _ = run_filter(model, ys)
        etas = oracle_recursion(model, ys)["etas"]
        assert state.eta_mean == pytest.approx(np.mean(etas), abs=1e-10)
        assert state.eta_var == pytest.approx(np.var(etas), abs=1e-10)
        forgetful = StateSpaceModel.local_level(q=0.3, r=1.0, forgetting=lam)
        assert oracle_deviation(forgetful, ys) < 1e-10


def noise_scan_case(state_dim, log_rho, log_scale, seed, **kw):
    """A 3,000-point random walk in noise, and a noise-scan model of it."""
    rng = np.random.default_rng(seed)
    walk = 20.0 + np.cumsum(rng.normal(0, 0.3, 3000))
    series = 10.0**log_scale * (walk + rng.normal(0, 1, 3000))
    x0, p0_scale = _initial_state(series, state_dim)
    return series, _noise_model(state_dim, 10.0**log_rho, 1.0, x0, p0_scale, **kw)


class TestKernels:
    """The loops do lfilter's arithmetic in its order, so they give its bits."""

    @given(
        order=st.sampled_from([1, 2]),
        k0=st.floats(1e-6, 1.0),
        k1=st.floats(0.0, 1.0),
        points=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
        delays=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    )
    # a predicted level of -0.0 meets lfilter's y = z0 + 0 x, which gives +0.0
    @example(order=1, k0=0.5, k1=0.0, points=[1.0, 0.0], delays=(-0.0, 0.0))
    @example(order=2, k0=0.5, k1=0.1, points=[0.0, 1.0], delays=(-0.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_level_loop_matches_lfilter(self, order, k0, k1, points, delays):
        if order == 1:
            entry, b, a = (1.0, k0, k0, k0 - 1.0), [0.0, k0], [1.0, k0 - 1.0]
        else:
            b, a = [0.0, k0 + k1, -k0], [1.0, k0 + k1 - 2.0, 1.0 - k0]
            entry = (1.0, k0, b[1], b[2], a[1], a[2])
        zi = delays[:order]
        level, zf = _level_loop([entry] * len(points), points, zi)
        want, want_zf = lfilter(b, a, np.array(points), zi=zi)
        assert np.array(level).tobytes() == want.tobytes()
        assert np.array(zf).tobytes() == want_zf.tobytes()

    @given(
        lam=st.floats(0.5, 1.0),
        sums=st.one_of(st.just((0.0, 0.0, 0.0)),
                       st.tuples(st.floats(1.0, 1e4), st.floats(-1e4, 1e4), st.floats(0.0, 1e4))),
        steps=st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                       min_size=1, max_size=200),
    )
    @settings(max_examples=300, deadline=None)
    def test_law_loop_matches_first_order_filters(self, lam, sums, steps):
        """Steps of (gain, observation, predicted level); the filters get
        the residuals gain * (observation - level) as a run_filter pass
        computes them."""
        gains, points, level = map(list, zip(*steps))
        eta = np.array(gains) * (np.array(points) - np.array(level))
        probs, final = _law_loop(lam, sums, gains, points, level)
        want_probs, want_final = _law_filter(lam, sums, eta)
        assert np.array(probs).tobytes() == want_probs.tobytes()
        assert final == want_final
        # each sum is lfilter([1], [1, -lam], x, zi=[lam * prev]), which adds
        # lam * prev + x as the loop does
        total, totals = sums[1], []
        for e in eta.tolist():
            total = lam * total + e
            totals.append(total)
        filtered, _ = lfilter([1.0], [1.0, -lam], eta, zi=[lam * sums[1]])
        assert np.array(totals).tobytes() == filtered.tobytes()


class TestFixedPoint:
    """Past the covariance fixed point a pass runs with held gains, as
    lfilter calls once it is long enough, and gives the bits of one pass
    however the values are cut into passes."""

    @given(
        state_dim=st.sampled_from([1, 2]),
        log_rho=st.floats(-3.0, 3.0),
        log_scale=st.floats(-2.0, 3.0),
        length=st.integers(1, 3000),
        forgetting=st.floats(0.9, 0.9999),
        cut=st.sampled_from(["random", "fixed point", "threshold", "one by one"]),
        offset=st.sampled_from([-1, 0, 1]),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
        seed=st.integers(0, 2**16),
    )
    # models that end in a rounding cycle: the covariance recursion and the
    # loop run throughout
    @example(state_dim=1, log_rho=-0.95, log_scale=0.0, length=3000, forgetting=0.99,
             cut="one by one", offset=0, fractions=[], seed=0)
    @example(state_dim=2, log_rho=0.5, log_scale=1.0, length=3000, forgetting=0.95,
             cut="random", offset=0, fractions=[0.02, 0.3, 0.31, 0.75], seed=0)
    @settings(max_examples=200, deadline=None)
    def test_cut_passes_give_one_pass_bit_for_bit(self, state_dim, log_rho, log_scale, length,
                                                  forgetting, cut, offset, fractions, seed):
        """Probabilities, levels and final state, cut at random points
        (empty passes included), at the fixed point +-1, into passes of
        _LOOP_PASS +-1 points after a first pass whose held run is
        _LOOP_PASS +-1 steps, or one point at a time."""
        series, model = noise_scan_case(state_dim, log_rho, log_scale, seed, forgetting=forgetting)
        ys = series[:length]
        n = ys.size
        fixed = fixed_point_step(model, FilterState.initial(model), n)
        if cut == "random":
            cuts = [int(c * n) for c in fractions]
        elif cut == "fixed point":
            cuts = [max(fixed + offset, 0)]
        elif cut == "threshold":
            cuts = list(range(fixed + _LOOP_PASS + offset, n, _LOOP_PASS + offset))
        else:
            cuts = list(range(1, n))
        probs, state, level = run_filter(model, ys)
        passes, got = None, []
        for chunk in np.split(ys, sorted(cuts)):
            p, passes, lv = run_filter(model, chunk, passes)
            got.append((p, lv))
        assert np.concatenate([p for p, _ in got]).tobytes() == probs.tobytes()
        assert np.concatenate([lv for _, lv in got]).tobytes() == level.tobytes()
        assert passes.to_dict() == state.to_dict()

    def test_noise_scan_reaches_the_fixed_point_on_the_hourly_fixtures(self, monkeypatch):
        """Every model the noise scan builds on the two hourly fixtures
        reaches the covariance fixed point before its series ends, so the
        scan runs with frozen gains for the rest of it."""
        seen = []
        likelihood = filtering._concentrated_likelihood

        def recorded(values, model):
            seen.append((values.size, model))
            return likelihood(values, model)

        monkeypatch.setattr(filtering, "_concentrated_likelihood", recorded)
        for lbs in bench.fixture_datasets(0).values():
            y = bench.aggregate_labeled(lbs, "hourly").series.values.astype(float)
            for state_dim in (1, 2):
                _select_noise(y, state_dim)
        assert len(seen) == 2 * 2 * 11
        for n, model in seen:
            assert fixed_point_step(model, FilterState.initial(model), n) < n

    @pytest.mark.parametrize("state_dim", [1, 2])
    @pytest.mark.parametrize("name", sorted(bench.fixture_datasets(0)))
    def test_noise_scan_matches_twelve_pass_scan(self, name, state_dim, monkeypatch):
        """The scan reuses the first scan's best pass as the refinement's
        middle candidate, and selects what running it again did."""
        lbs = bench.fixture_datasets(0)[name]
        y = bench.aggregate_labeled(lbs, "hourly").series.values.astype(float)
        want = reference_select_noise(y, state_dim)
        calls = []
        likelihood = filtering._concentrated_likelihood

        def counted(values, model):
            calls.append(1)
            return likelihood(values, model)

        monkeypatch.setattr(filtering, "_concentrated_likelihood", counted)
        rho_best, r_hat = _select_noise(y, state_dim)
        assert len(calls) == 11
        assert rho_best == want[0]
        assert r_hat == want[1]


class TestTrainingPass:
    """Past the covariance fixed point the training pass and the noise scan
    run the level kernel as one linear filter, and the training pass runs
    the residual law as first-order ones; they agree with the textbook
    per-step recursion to rounding, not bit for bit."""

    @given(
        state_dim=st.sampled_from([1, 2]),
        log_rho=st.floats(-3.0, 3.0),
        log_scale=st.floats(-2.0, 3.0),
        length=st.integers(1, 3000),
        from_fixed_point=st.sampled_from([None, -1, 0, 1, _LOOP_PASS - 1, _LOOP_PASS, 2 * _LOOP_PASS]),
        forgetting=st.floats(0.9, 0.9999),
        seed=st.integers(0, 2**16),
    )
    # models that end in a rounding cycle: the recursion runs throughout
    @example(state_dim=1, log_rho=-0.95, log_scale=0.0, length=3000, from_fixed_point=None,
             forgetting=0.99, seed=0)
    @example(state_dim=2, log_rho=0.5, log_scale=1.0, length=3000, from_fixed_point=None,
             forgetting=0.95, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_step_reference(self, state_dim, log_rho, log_scale, length, from_fixed_point,
                                        forgetting, seed):
        """Probabilities within 1e-10 absolute; levels and every state entry
        within 1e-9 relative.  An entry of a vector (x, P, the levels) is
        relative to that vector's largest entry, so a slope near zero is
        held to the level's rounding; the residual and its mean are
        relative to the larger of their size and the residual standard
        deviation.  The scan's likelihood and R estimate are within 1e-9
        relative of the reference's."""
        series, model = noise_scan_case(state_dim, log_rho, log_scale, seed, forgetting=forgetting)
        fixed = fixed_point_step(model, FilterState.initial(model), series.size)
        ys = series[:length if from_fixed_point is None else max(1, fixed + from_fixed_point)]

        probs, state, level = run_filter(model, ys)
        want_probs, want, want_level = reference_training_pass(model, ys)
        assert np.max(np.abs(probs - want_probs)) <= 1e-10
        assert np.max(np.abs(level - want_level)) <= 1e-9 * np.max(np.abs(want_level))
        for got, key in ((posterior(state), "x_post"), (state.P_post, "P_post")):
            expected = want[key]
            assert np.max(np.abs(np.subtract(got, expected))) <= 1e-9 * np.max(np.abs(expected)), key
        sd = math.sqrt(want["eta_var"])
        assert abs(state.eta_mean - want["eta_mean"]) <= 1e-9 * max(abs(want["eta_mean"]), sd)
        for key in ("eta_var", "w_sum", "s_accum"):
            assert getattr(state, key) == pytest.approx(want[key], rel=1e-9, abs=0.0), key
        loglik, r_hat = _concentrated_likelihood(ys, model)
        want_loglik, want_r = reference_likelihood(ys, model)
        assert loglik == pytest.approx(want_loglik, rel=1e-9)
        assert r_hat == pytest.approx(want_r, rel=1e-9)

    @pytest.mark.parametrize("state_dim, log_rho, log_scale", [(1, -0.95, 0.0), (2, 0.5, 1.0)])
    def test_rounding_cycle_examples_never_reach_a_fixed_point(self, state_dim, log_rho, log_scale):
        """The explicit examples above are models whose covariance ends in a
        rounding cycle instead of a fixed point."""
        series, model = noise_scan_case(state_dim, log_rho, log_scale, seed=0)
        assert fixed_point_step(model, FilterState.initial(model), series.size) == series.size

    def test_noise_scan_selects_the_per_step_ratio(self, rng):
        """On both hourly fixtures and 200 simulated series, both state
        sizes, the scan selects the ratio the per-step scan selects, with a
        likelihood and R estimate within 1e-9 relative of it."""
        series = [bench.aggregate_labeled(lbs, "hourly").series.values.astype(float)
                  for lbs in bench.fixture_datasets(0).values()]
        for _ in range(200):
            n = int(rng.integers(30, 1000))
            walk = np.cumsum(rng.normal(0, 10.0**rng.uniform(-2, 0), n))
            drift = rng.normal(0, 0.05) * np.arange(n)
            series.append(10.0**rng.uniform(-2, 3) * (20.0 + walk + drift + rng.normal(0, 1, n)))
        for y in series:
            for state_dim in (1, 2):
                rho, r_hat = _select_noise(y, state_dim)
                want_rho, want_r, want_loglik = per_step_select_noise(y, state_dim)
                assert rho == want_rho
                assert r_hat == pytest.approx(want_r, rel=1e-9)
                x0, p0_scale = _initial_state(y, state_dim)
                loglik, _ = _concentrated_likelihood(y, _noise_model(state_dim, rho, 1.0, x0, p0_scale))
                assert loglik == pytest.approx(want_loglik, rel=1e-9)


def full_recursion(model, P, n):
    """The covariance recursion to the end of ``n`` steps or to its fixed
    point, one step at a time and never holding a rounding cycle: the
    entries and the last posterior covariance's entries."""
    r, steps = model.R, []
    if model.state_dim == 1:
        (q,), (p,) = model.q, P
        for _ in range(n):
            pp = p + q
            s = pp + r
            k0 = pp / s
            steps.append((s, k0, k0, k0 - 1.0))
            p, before = (1.0 - k0) * pp, p
            if p == before:
                break
        return steps, (p,)
    (q00, q11), (p00, p01, p11) = model.q, P
    for _ in range(n):
        pp00 = p00 + 2.0 * p01 + p11 + q00
        pp01 = p01 + p11
        pp11 = p11 + q11
        s = pp00 + r
        k0 = pp00 / s
        k1 = pp01 / s
        c = 1.0 - k0
        steps.append((s, k0, k0 + k1, -k0, k0 + k1 - 2.0, c))
        b00, b01, b11 = p00, p01, p11
        p00 = c * pp00
        p01 = c * pp01
        p11 = pp11 - k1 * pp01
        if p00 == b00 and p01 == b01 and p11 == b11:
            break
    return steps, (p00, p01, p11)


class TestHead:
    """The one loop of covariance recursion and level kernel keeps the
    bits of the recursion run alone, then the kernel run alone."""

    @given(
        state_dim=st.sampled_from([1, 2]),
        log_rho=st.floats(-3.0, 3.0),
        log_p0=st.floats(-3.0, 6.0),
        log_r=st.floats(-4.0, 4.0),
        length=st.integers(1, 1500),
        seed=st.integers(0, 2**16),
    )
    # models that end in a rounding cycle
    @example(state_dim=1, log_rho=1.19, log_p0=1.04, log_r=2.39, length=1500, seed=0)
    @example(state_dim=2, log_rho=-0.07, log_p0=5.3, log_r=-2.39, length=1500, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_entries_and_levels_are_the_full_recursions(self, state_dim, log_rho, log_p0, log_r, length, seed):
        r = 10.0**log_r
        model = _noise_model(state_dim, 10.0**log_rho * r, r, np.zeros(state_dim), 10.0**log_p0)
        want, want_P = full_recursion(model, initial_covariance(model), length)
        rng = np.random.default_rng(seed)
        values = np.cumsum(rng.normal(0, 1, length)) + rng.normal(0, 1, length)
        state = FilterState.initial(model)
        steps, level, delays, P_post = _level_pass(model, state, values)
        assert np.array(steps).tobytes() == np.array(want).tobytes()
        want_level, want_delays = _level_loop(want + want[-1:] * (length - len(want)), values.tolist(),
                                              state.delays)
        assert np.asarray(level).tobytes() == np.array(want_level).tobytes()
        assert delays == want_delays
        assert np.array(P_post).tobytes() == np.array(want_P).tobytes()


class TestFitFiltering:
    def test_ratio_recovery_within_factor_three(self):
        rng = np.random.default_rng(7)
        n = 1000
        level = np.cumsum(rng.normal(0, math.sqrt(0.1), n))
        y = level + rng.normal(0, 1.0, n)
        model, _, _ = fit_filtering(ts_of(y), filtering_config())
        ratio = model.q[0] / model.R
        assert 0.1 / 3 <= ratio <= 0.1 * 3

    def test_constant_series_floors(self):
        model, state, _ = fit_filtering(ts_of(np.full(100, 4.2)), filtering_config())
        assert model.R <= 1e-8
        assert state.eta_var == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_prediction_variance(self, rng):
        y = rng.normal(0, 1, 1000)
        model, state, probs = fit_filtering(ts_of(y), filtering_config())
        pred_var = state.P_post[0] + model.q[0] + model.R
        assert 0.8 <= pred_var <= 1.2
        # the warm-up pass is a run_filter over the training values
        again, again_state, _ = run_filter(model, y)
        assert probs.tobytes() == again.tobytes()
        assert state.to_dict() == again_state.to_dict()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_filtering(ts_of(np.ones(10)), filtering_config())

    @pytest.mark.parametrize("state_dim, log_scale", [(1, False), (2, False), (1, True), (2, True)])
    def test_scoring_one_point_and_48_point_passes_agree_bit_for_bit(self, state_dim, log_scale, rng):
        """After a fit, a held-out stretch scored a point at a time gives
        the bits that 48-point passes give, values and final state alike."""
        y = 50.0 + np.cumsum(rng.normal(0, 0.5, 1500)) + rng.normal(0, 1, 1500)
        model, state, _ = fit_filtering(ts_of(y[:1020]), filtering_config(state_dim, 0.99, log_scale))
        held_out = y[1020:]
        stream, batch = FilterDetector(model, state), FilterDetector(model, state)
        one = [stream.score([k], [v]) for k, v in enumerate(held_out)]
        many = [batch.score(np.arange(k, k + 48), held_out[k:k + 48])
                for k in range(0, held_out.size, 48)]
        for i in (0, 1):
            assert np.concatenate([o[i] for o in one]).tobytes() == np.concatenate([m[i] for m in many]).tobytes()
        assert stream.state() == batch.state()

    def test_trend_model_tracks_slope(self, rng):
        y = 0.5 * np.arange(300.0) + rng.normal(0, 0.5, 300)
        model, state, _ = fit_filtering(ts_of(y), filtering_config(state_dim=2))
        assert posterior(state)[1] == pytest.approx(0.5, abs=0.2)

    @pytest.mark.parametrize("state_dim, q, p0, n", [
        (1, 0.2, 3.0, 400),
        (2, 0.2, 3.0, 400),
        # a slow transient: the covariance reaches its fixed point after
        # 548 steps, past the 400 of the cases above
        (1, 1e-3, 1e4, 1000),
    ], ids=["1", "2", "1-slow"])
    def test_concentrated_likelihood_matches_oracle(self, state_dim, q, p0, n, rng):
        """The scan's likelihood is the Gaussian prediction-error likelihood
        of the oracle's innovations with R concentrated out, both before
        and after the covariance fixed point."""
        if state_dim == 1:
            model = StateSpaceModel.local_level(q=q, r=1.0, x0=0.5, p0=p0)
        else:
            model = StateSpaceModel.local_linear_trend(q_level=q, q_slope=q * 0.01, r=1.0,
                                                       x0=(0.5, 0.1), p0=p0)
        ys = np.cumsum(rng.normal(0, 0.5, n)) + rng.normal(0, 1, n)
        assert fixed_point_step(model, FilterState.initial(model), n) < n
        oracle = oracle_recursion(model, ys)
        nu, s = oracle["innovations"], oracle["variances"]
        r_hat = float(np.mean(nu**2 / s))
        expected = -0.5 * (np.sum(np.log(s)) + ys.size * math.log(r_hat) + ys.size)
        loglik, got_r = _concentrated_likelihood(ys, model)
        assert got_r == pytest.approx(r_hat, rel=1e-10)
        assert loglik == pytest.approx(expected, rel=1e-10)

    def test_noise_memo_shares_one_scan_per_values_and_state_size(self, rng):
        y = 20.0 + np.cumsum(rng.normal(0, 0.3, 300)) + rng.normal(0, 1, 300)
        memo = {}
        configs = [
            filtering_config(state_dim=d, forgetting=f, log_scale=log)
            for log in (False, True) for d in (1, 2) for f in (0.95, 0.99, 0.9999)
        ]
        for cfg in configs:
            model, state, probs = fit_filtering(ts_of(y), cfg, memo)
            want_model, want_state, want_probs = fit_filtering(ts_of(y), cfg)
            assert model.to_dict() == want_model.to_dict()
            assert state.to_dict() == want_state.to_dict()
            assert np.array_equal(probs, want_probs)
        # one entry per (transformed values, state size); forgetting is not in it
        assert len(memo) == 4


class TestKeptRatio:
    def test_scan_ratios_are_every_pick_of_the_scan(self):
        picks = {float(c * f) for c in filtering._COARSE_RATIOS for f in filtering._FINE_STEPS}
        assert SCAN_RATIOS == tuple(sorted(picks)) and len(SCAN_RATIOS) == 31

    def test_plain_division_misses_the_ratio(self):
        rng = np.random.default_rng(3)
        draws = zip(rng.choice(SCAN_RATIOS, 20000), 10.0 ** rng.uniform(-10, 10, 20000))
        misses = sum((rho * r) / r != rho for rho, r in draws)
        assert 0.05 < misses / 20000 < 0.15

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(SCAN_RATIOS), st.floats(1e-10, 1e10))
    def test_snap_returns_the_ratio_bit_for_bit(self, rho, r):
        got = scan_ratio(rho * r, r)
        if got != rho:
            # 10^-0.5 and 10^1.5 are each two adjacent floats, one from
            # either coarse neighbour; where both give this q the models
            # are the same, and no snap can tell them apart
            assert got * r == rho * r and math.nextafter(got, rho) == rho

    def test_snap_takes_the_nearest_ratio_off_the_scan(self):
        assert scan_ratio(0.9, 1.0) == 1.0
        assert scan_ratio(2e-4, 2.0) == SCAN_RATIOS[0]

    @pytest.mark.parametrize("state_dim, log_scale", [(1, False), (2, False), (1, True), (2, True)])
    def test_refit_at_the_scanned_ratio_builds_the_scanned_model(self, state_dim, log_scale, rng):
        y = 50.0 + np.cumsum(rng.normal(0, 0.5, 600)) + rng.normal(0, 1, 600)
        config = filtering_config(state_dim, 0.99, log_scale)
        model, state, probs = fit_filtering(ts_of(y), config)
        rho = scan_ratio(model.q[0], model.R)
        assert rho == _select_noise(fit_scale(ts_of(y), log_scale)[0], state_dim)[0]
        kept, kept_state, kept_probs = fit_filtering(ts_of(y), config, ratio=rho)
        for name in ("q", "x0", "p0"):
            assert getattr(kept, name) == getattr(model, name)
        assert kept.R == model.R and kept.to_dict() == model.to_dict()
        assert (kept_probs == probs).all() and kept_state.to_dict() == state.to_dict()


class TestAnomalyProbability:
    def test_zero_at_residual_mean(self):
        model = StateSpaceModel.local_level(q=0.1, r=1.0)
        state = FilterState(
            delays=(0.0,),
            P_post=(0.25,),
            w_sum=100.0,
            eta_sum=0.0,
            s_accum=4.0,
        )
        assert state.eta_var == 0.04
        # the observation whose update produces eta == eta_mean scores zero
        probs, new_state, level = run_filter(model, [0.0], state)
        assert new_state.delays[0] - level[0] == pytest.approx(state.eta_mean)
        assert probs[0] == pytest.approx(0.0)

    def test_ninety_five_at_z196(self, rng):
        model = StateSpaceModel.local_level(q=0.1, r=1.0)
        state = FilterState(
            delays=(0.0,),
            P_post=(0.25,),
            w_sum=100.0,
            eta_sum=0.0,
            s_accum=4.0,
        )
        # gain = P_prior/(P_prior+R); choose y so eta = 1.959964 * sqrt(eta_var)
        p_prior = 0.25 + 0.1
        gain = p_prior / (p_prior + 1.0)
        y = 1.959964 * 0.2 / gain
        probs, _, _ = run_filter(model, [y], state)
        assert abs(probs[0] - 0.95) <= 1e-4

    def test_ten_sigma_spike_on_quiet_series(self, rng):
        y = rng.normal(10, 0.5, 300)
        model, state, _ = fit_filtering(ts_of(y), filtering_config())
        spike = 10 + 10 * 0.5 * 10
        probs, _, _ = run_filter(model, [spike], state)
        assert probs[0] > 0.999

    def test_shared_tail_with_structural_scorer(self):
        """Both scorers reduce to the same two-sided Gaussian tail."""
        model = StateSpaceModel.local_level(q=0.1, r=1.0)
        state = FilterState(
            delays=(0.0,),
            P_post=(0.25,),
            w_sum=50.0,
            eta_sum=5.0,
            s_accum=4.5,
        )
        assert (state.eta_mean, state.eta_var) == (0.1, 0.09)
        probs, new_state, level = run_filter(model, [1.7], state)
        z_equiv = (new_state.delays[0] - level[0] - state.eta_mean) / math.sqrt(state.eta_var)
        structural = gaussian_anomaly_probability(z_equiv, 1.0)
        assert probs[0] == pytest.approx(structural, abs=1e-12)

    @pytest.mark.parametrize("log_scale", [False, True], ids=["raw", "log"])
    @pytest.mark.parametrize("state_dim", [1, 2])
    def test_predictive_matches_score_step(self, rng, state_dim, log_scale):
        """The predictive Gaussian judges each of 60 candidates as a one-point
        pass from the same state does.  Its scale is bit for bit the gain of
        a one-step reference pass applied to the residual law, and its center
        the reference's prior level so applied, to 1e-10 relative: the level
        kernel sums in another order than the textbook state form."""
        y = rng.normal(5, 1, 200)
        model, state, _ = fit_filtering(ts_of(y), filtering_config(state_dim=state_dim, log_scale=log_scale))
        center, scale = FilterDetector(model, state).predictive(0)
        candidates = np.linspace(y.min() - 3.0, y.max() + 3.0, 60)
        scaled = to_model_scale(candidates, model)
        got = gaussian_anomaly_probability(scaled - center, np.full_like(scaled, scale))
        stepped = [run_filter(model, [v], state)[0][0] for v in scaled]
        assert np.allclose(got, stepped, rtol=0.0, atol=1e-12)
        _, _, _, s, _, (x_prior, P_prior) = reference_kalman_pass(model, posterior(state), state.P_post, [0.0])
        gain0 = P_prior[0] / s[0]
        assert center == pytest.approx(float(x_prior[0]) + state.eta_mean / gain0, rel=1e-10, abs=0.0)
        assert scale == math.sqrt(max(state.eta_var, 1e-12)) / gain0


def one_step_states():
    """A local level and a trend, each with its initial state and its state
    after one observation, and the stored forms of all four.  Every number
    is exact in binary: the level's step has gain 1/2 and the trend's gains
    3/8 and 1/8."""
    level = StateSpaceModel.local_level(q=0.5, r=1.0, x0=0.0, p0=0.5)
    trend = StateSpaceModel.local_linear_trend(q_level=1.0, q_slope=0.5, r=5.0, x0=(1.5, -0.25), p0=1.0)
    stored_level = {"method": "filtering", "state_dim": 1, "Q": [[0.5]], "R": 1.0, "x0": [0.0],
                    "P0": [[0.5]], "forgetting": 0.99, "log_scale": False, "log_offset": 0.0}
    stored_trend = {"method": "filtering", "state_dim": 2, "Q": [[1.0, 0.0], [0.0, 0.5]], "R": 5.0,
                    "x0": [1.5, -0.25], "P0": [[1.0, 0.0], [0.0, 1.0]], "forgetting": 0.99,
                    "log_scale": False, "log_offset": 0.0}
    return [
        (level, 2.0, stored_level,
         {"delays": [0.0], "P_post": [[0.5]], "w_sum": 0.0, "eta_sum": 0.0, "s_accum": 0.0},
         {"delays": [1.0], "P_post": [[0.5]], "w_sum": 1.0, "eta_sum": 1.0, "s_accum": 0.0}),
        # the trend predicts 1.25 and sees 9.25: level 4.25, slope 0.75
        (trend, 9.25, stored_trend,
         {"delays": [1.25, -1.5], "P_post": [[1.0, 0.0], [0.0, 1.0]], "w_sum": 0.0, "eta_sum": 0.0,
          "s_accum": 0.0},
         {"delays": [5.0, -4.25], "P_post": [[1.875, 0.625], [0.625, 1.375]], "w_sum": 1.0,
          "eta_sum": 3.0, "s_accum": 0.0}),
    ]


class TestSerialization:
    @pytest.mark.parametrize("model, point, stored, initial, stepped", one_step_states(), ids=["level", "trend"])
    def test_stored_form_is_nested_lists(self, model, point, stored, initial, stepped):
        """The model and its states store their covariances as the matrices
        Q, P0 and P_post, and read back as the same model and states."""
        state = FilterState.initial(model)
        _, after, _ = run_filter(model, [point], state)
        assert model.to_dict() == stored
        assert state.to_dict() == initial
        assert after.to_dict() == stepped
        assert StateSpaceModel.from_dict(stored) == model
        assert FilterState.from_dict(initial) == state
        assert FilterState.from_dict(stepped) == after
        assert after.P_post == tuple(v for i, row in enumerate(stepped["P_post"]) for v in row[i:])

    @pytest.mark.parametrize("key, matrix", [
        ("Q", [[1.0, 0.5], [0.5, 1.0]]),
        ("Q", [[1.0, 0.0]]),
        ("P0", [[1.0, 0.0], [0.0, 2.0]]),
        ("P0", [[1.0, 0.2], [0.2, 1.0]]),
        ("P0", [[1.0]]),
    ], ids=["off-diagonal Q", "non-square Q", "non-isotropic P0", "off-diagonal P0", "P0 of one state"])
    def test_refuses_a_stored_covariance_no_model_holds(self, key, matrix):
        stored = one_step_states()[1][2]
        with pytest.raises(ValueError, match="stored Q must be diagonal and P0 a multiple of the identity"):
            StateSpaceModel.from_dict({**stored, key: matrix})

    def test_model_and_state_round_trip(self, rng):
        y = rng.normal(0, 1, 200)
        model, state, _ = fit_filtering(ts_of(y), filtering_config(state_dim=2, forgetting=0.95))
        model2 = StateSpaceModel.from_dict(model.to_dict())
        state2 = FilterState.from_dict(state.to_dict())
        p1, s1, l1 = run_filter(model, y[:50], state)
        p2, s2, l2 = run_filter(model2, y[:50], state2)
        assert np.array_equal(p1, p2)
        assert np.array_equal(l1, l2)
        assert s1.to_dict() == s2.to_dict()


class TestModelValidation:
    """A model holds each state's noise variance, the observation noise,
    the initial state and the initial covariance's scale, and is checked
    for what each must satisfy."""

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError, match="q must be non-negative"):
            StateSpaceModel.local_linear_trend(q_level=0.5, q_slope=-1e-3, r=1.0)
        with pytest.raises(ValueError, match="q must be non-negative"):
            StateSpaceModel.local_level(q=-0.1, r=1.0)

    def test_rejects_non_positive_R(self):
        for r in (0.0, -1.0):
            with pytest.raises(ValueError, match="R must be positive"):
                StateSpaceModel.local_level(q=0.1, r=r)

    def test_rejects_negative_or_infinite_p0(self):
        for p0 in (-1.0, math.inf):
            with pytest.raises(ValueError, match="p0 must be non-negative and finite"):
                StateSpaceModel.local_level(q=0.1, r=1.0, p0=p0)

    def test_rejects_q_and_x0_of_other_lengths(self):
        for q, x0 in (((0.1, 0.01), (0.0,)), ((0.1,), (0.0, 0.0)), ((0.1, 0.01, 0.001), (0.0, 0.0, 0.0))):
            with pytest.raises(ValueError, match="same length, 1 or 2"):
                StateSpaceModel(q=q, R=1.0, x0=x0, p0=1.0)

    def test_accepts_zero_q_and_p0(self):
        model = StateSpaceModel.local_linear_trend(q_level=0.0, q_slope=0.0, r=1.0, p0=0.0)
        assert (model.q, model.p0, model.state_dim) == ((0.0, 0.0), 0.0, 2)
