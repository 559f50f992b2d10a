import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov, toeplitz
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from autoad.errors import InsufficientData, NonConvergence
from autoad.optimizer import ModelConfig, StructuralParams
from autoad.profiling import DataProfile
from autoad.series import TimeSeries
from autoad.stats import gaussian_anomaly_probability
from autoad import structural
from autoad.structural import (
    StructuralModel,
    _stationary,
    fit_structural,
    forecast,
    in_sample_probabilities,
)

from .conftest import ar1_series

ts_of = TimeSeries.from_values


def structural_config(p, q, l, log_scale=False):
    return ModelConfig(
        method="structural",
        log_scale=log_scale,
        structural_params=StructuralParams(p=p, q=q, l=l),
    )


def simulate_arma(phi, omega, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    eps = rng.normal(0, sigma, n)
    y = np.zeros(n)
    p, q = len(phi), len(omega)
    for t in range(n):
        acc = eps[t]
        for i, ph in enumerate(phi, start=1):
            if t - i >= 0:
                acc += ph * y[t - i]
        for j, om in enumerate(omega, start=1):
            if t - j >= 0:
                acc += om * eps[t - j]
        y[t] = acc
    return y, eps


class TestFit:
    def test_ar1_recovery(self):
        ts = ar1_series(0.7, 2000, seed=42)
        model = fit_structural(ts, DataProfile(), structural_config(1, 0, 0))
        assert abs(model.phi[0] - 0.7) <= 0.05
        assert abs(model.sigma2 - 1.0) <= 0.15

    def test_arma11_recovery(self):
        y, _ = simulate_arma([0.5], [0.3], 2000, seed=7)
        model = fit_structural(ts_of(y), DataProfile(), structural_config(1, 1, 0))
        assert abs(model.phi[0] - 0.5) <= 0.05
        assert abs(model.omega[0] - 0.3) <= 0.05
        assert abs(model.sigma2 - 1.0) <= 0.15

    def test_constant_with_jitter_degenerate_model(self, rng):
        values = 5.0 + rng.normal(0, 0.01, 200)
        model = fit_structural(ts_of(values), DataProfile(), structural_config(0, 0, 0))
        fc = forecast(model, 3)
        assert all(abs(m - model.train_mean) < 1e-12 for m, _ in fc)
        assert abs(model.sigma2 - np.var(values)) < 0.2 * np.var(values)

    def test_sinusoid_amplitude(self, rng):
        t = np.arange(480.0)
        values = np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, 480)
        prof = DataProfile(fourier_terms=((1 / 24, 100.0),))
        model = fit_structural(ts_of(values), prof, structural_config(0, 0, 1))
        amplitude = math.hypot(model.theta[0], model.theta[1])
        assert abs(amplitude - 1.0) <= 0.05

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_structural(ts_of(np.ones(30)), DataProfile(), structural_config(3, 3, 0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_data_raises_nonconvergence(self, rng):
        values = rng.normal(0, 1, 200)
        values[150] = 1e200  # squares to inf inside the innovation sum
        with pytest.raises(NonConvergence):
            fit_structural(ts_of(values), DataProfile(), structural_config(1, 1, 0))

    def test_refit_deterministic(self):
        ts = ar1_series(0.5, 500, seed=3)
        a = fit_structural(ts, DataProfile(), structural_config(2, 1, 0))
        b = fit_structural(ts, DataProfile(), structural_config(2, 1, 0))
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.omega, b.omega)
        assert a.sigma2 == b.sigma2

    def test_log_scale_fit_and_forecast_positive(self, rng):
        values = np.exp(rng.normal(2, 0.4, 300))
        model = fit_structural(
            ts_of(values), DataProfile(), structural_config(1, 0, 0, log_scale=True)
        )
        assert model.log_scale
        fc = forecast(model, 5)
        assert all(m > 0 for m, _ in fc)


def roots_oracle(phi):
    """Every root of 1 - sum_k phi_k B^k outside |B| = 1 + 1e-9, by eigenvalue solve."""
    if phi.size == 0:
        return True
    roots = np.roots(np.concatenate([[1.0], -phi])[::-1])
    return bool(np.all(np.abs(roots) > 1.0 + 1e-9)) if roots.size else True


class TestStationary:
    # An eigenvalue solve loses the small roots once the last nonzero
    # coefficient is below about 1e-20 (for [0, 0.5, 1e-40] it reports
    # roots at 0 instead of near 1.414), so the oracle only sees
    # coefficients that are zero or at least 1e-6 in size.
    @given(
        phi=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 2.5), st.floats(-2.5, -1e-6)),
            max_size=3,
        )
    )
    @settings(max_examples=500)
    def test_matches_roots_oracle(self, phi):
        phi = np.array(phi, dtype=float)
        roots = np.roots(np.concatenate([[1.0], -phi])[::-1]) if phi.size else np.zeros(0)
        if roots.size:
            assume(abs(np.min(np.abs(roots)) - (1.0 + 1e-9)) > 1e-7)
        assert _stationary(phi) == roots_oracle(phi)

    @pytest.mark.parametrize(
        "phi,expected",
        [
            ([(1.0 - 1e-12) / (1.0 + 1e-9)], True),
            ([(1.0 + 1e-12) / (1.0 + 1e-9)], False),
            ([-(1.0 - 1e-12) / (1.0 + 1e-9)], True),
            ([-(1.0 + 1e-12) / (1.0 + 1e-9)], False),
            ([0.5, 0.0], True),
            ([0.0, 0.0, 0.0], True),
            ([], True),
            ([1.2, -0.5], True),
            ([0.5, 0.6], False),
            ([0.0, 0.0, 1.5], False),
        ],
    )
    def test_edge_cases_agree_with_oracle(self, phi, expected):
        phi = np.array(phi, dtype=float)
        assert roots_oracle(phi) is expected
        assert _stationary(phi) is expected

    @pytest.mark.parametrize("phi", [[np.nan], [0.5, np.nan], [np.nan, 0.2, 0.1]])
    def test_nan_raises_linalg_error(self, phi):
        with pytest.raises(np.linalg.LinAlgError):
            _stationary(np.array(phi))

    @pytest.mark.parametrize("phi", [[np.inf], [-np.inf], [0.5, np.inf], [np.inf, 0.5]])
    def test_inf_is_not_stationary(self, phi):
        assert _stationary(np.array(phi)) is False


def fit_outcome(ts, profile, config):
    """(fitted values, warning messages) of one fit, or the exception it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = fit_structural(ts, profile, config)
        except (InsufficientData, NonConvergence) as exc:
            return repr(exc)
    fitted = [model.phi.tolist(), model.omega.tolist(), model.sigma2, model.residuals.tolist()]
    return fitted, [str(w.message) for w in caught]


@pytest.mark.parametrize("log_scale", [False, True])
@pytest.mark.parametrize("diff_order", [0, 1])
def test_fit_path_identical_to_roots_oracle(monkeypatch, log_scale, diff_order):
    rng = np.random.default_rng(100 + 2 * diff_order + int(log_scale))
    y, _ = simulate_arma([0.6, -0.2], [0.3], 240, seed=int(rng.integers(1 << 30)))
    values = 50.0 + np.cumsum(y) * 0.2 if diff_order else 50.0 + y
    ts = ts_of(values)
    profile = DataProfile(diff_order=diff_order, fourier_terms=((1 / 24, 1.0),))
    for p in range(4):
        for q in range(4):
            config = structural_config(p, q, 1, log_scale=log_scale)
            new = fit_outcome(ts, profile, config)
            with monkeypatch.context() as m:
                m.setattr(structural, "_stationary", roots_oracle)
                old = fit_outcome(ts, profile, config)
            assert new == old, (p, q)


class TestForecast:
    def test_white_noise_forecast_is_mean_and_sigma(self, rng):
        values = rng.normal(3.0, 1.0, 400)
        model = fit_structural(ts_of(values), DataProfile(), structural_config(0, 0, 0))
        fc = forecast(model, 10)
        sigma = math.sqrt(model.sigma2)
        for mean, std in fc:
            assert mean == pytest.approx(model.train_mean)
            assert std == pytest.approx(sigma)

    def test_ar1_mean_decays_geometrically(self):
        ts = ar1_series(0.7, 2000, seed=42)
        model = fit_structural(ts, DataProfile(), structural_config(1, 0, 0))
        fc = forecast(model, 8)
        r_last = model.r_tail[-1]
        for h, (mean, _) in enumerate(fc, start=1):
            closed_form = model.train_mean + model.phi[0] ** h * r_last
            assert mean == pytest.approx(closed_form, rel=1e-9)

    def test_std_non_decreasing(self):
        y, _ = simulate_arma([0.6], [0.2], 1500, seed=5)
        model = fit_structural(ts_of(y), DataProfile(diff_order=1), structural_config(1, 1, 0))
        stds = [s for _, s in forecast(model, 24)]
        assert all(b >= a - 1e-12 for a, b in zip(stds, stds[1:]))

    def test_forecast_std_matches_monte_carlo(self):
        """Simulate 10k future paths of the fitted model; the analytic psi-weight
        std must agree with the Monte-Carlo spread within 10% at h=1..5."""
        ts = ar1_series(0.7, 2000, seed=42)
        model = fit_structural(ts, DataProfile(), structural_config(1, 0, 0))
        h_max = 5
        n_paths = 10_000
        rng = np.random.default_rng(99)
        sigma = math.sqrt(model.sigma2)
        phi = model.phi[0]
        r0 = model.r_tail[-1]
        paths = np.zeros((n_paths, h_max))
        prev = np.full(n_paths, r0)
        for h in range(h_max):
            prev = phi * prev + rng.normal(0, sigma, n_paths)
            paths[:, h] = prev
        mc_std = paths.std(axis=0)
        fc = forecast(model, h_max)
        for h in range(h_max):
            assert abs(fc[h][1] - mc_std[h]) / mc_std[h] <= 0.10

    def test_differenced_forecast_std_matches_monte_carlo(self):
        """Integrated (d=1) model: psi weights are cumulated once; verify the
        growth against brute-force simulation of the integrated process."""
        rng = np.random.default_rng(17)
        walk = np.cumsum(rng.normal(0, 1, 3000))
        model = fit_structural(ts_of(walk), DataProfile(diff_order=1), structural_config(1, 0, 0))
        h_max = 5
        sigma = math.sqrt(model.sigma2)
        phi = model.phi[0]
        r0 = model.r_tail[-1]
        n_paths = 10_000
        sim = np.random.default_rng(5)
        prev = np.full(n_paths, r0)
        increments = np.zeros((n_paths, h_max))
        for h in range(h_max):
            prev = phi * prev + sim.normal(0, sigma, n_paths)
            increments[:, h] = prev
        levels = np.cumsum(increments + model.train_mean, axis=1)
        mc_std = levels.std(axis=0)
        fc = forecast(model, h_max)
        for h in range(h_max):
            assert abs(fc[h][1] - mc_std[h]) / mc_std[h] <= 0.10


class TestAnomalyProbability:
    def test_zero_at_mean(self):
        assert gaussian_anomaly_probability(10.0 - 10.0, 2.0) == 0.0

    def test_ninety_five_at_z196(self):
        prob = gaussian_anomaly_probability(1.959964, 1.0)
        assert abs(prob - 0.95) <= 1e-4

    def test_tail_limit(self):
        probs = [gaussian_anomaly_probability(z, 1.0) for z in (5, 10, 20, 40)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.999999

    def test_degenerate_std(self):
        assert gaussian_anomaly_probability(1.0, 0.0) == 1.0
        assert gaussian_anomaly_probability(0.0, 0.0) == 0.0

    @given(
        z=st.floats(0.01, 30, allow_nan=False),
        mean=st.floats(-100, 100),
        std=st.floats(0.01, 50),
    )
    def test_symmetric_and_monotone(self, z, mean, std):
        up = gaussian_anomaly_probability((mean + z * std) - mean, std)
        down = gaussian_anomaly_probability((mean - z * std) - mean, std)
        assert up == pytest.approx(down, abs=1e-12)
        closer = gaussian_anomaly_probability((mean + 0.5 * z * std) - mean, std)
        assert closer <= up

    def test_in_sample_probabilities_bounded(self):
        ts = ar1_series(0.5, 300, seed=1)
        model = fit_structural(ts, DataProfile(), structural_config(1, 0, 0))
        probs = in_sample_probabilities(model)
        assert probs.shape == (model.train_len,)
        assert probs[model.d:].shape == model.residuals.shape
        assert np.all((probs >= 0) & (probs <= 1))


class TestSerialization:
    def test_round_trip_preserves_forecasts(self):
        ts = ar1_series(0.6, 800, seed=9)
        model = fit_structural(ts, DataProfile(), structural_config(2, 1, 0))
        clone = StructuralModel.from_dict(model.to_dict())
        assert forecast(clone, 12) == forecast(model, 12)


def harvey_form(phi, theta):
    """Harvey's state-space form of an ARMA(p, q): y_t - mu is the first
    state, the state moves by ``T`` and takes the shock through ``R``."""
    r = max(len(phi), len(theta) + 1)
    T = np.zeros((r, r))
    T[: len(phi), 0] = phi
    T[:-1, 1:] = np.eye(r - 1)
    R = np.zeros(r)
    R[0] = 1.0
    R[1 : len(theta) + 1] = theta
    return T, R


def exact_arma_loglik(y, mu, phi, theta, sigma2):
    """Exact Gaussian log-likelihood of a stationary ARMA with mean ``mu``,
    by the Kalman filter started from the stationary state covariance.
    Also returns the state predicted for the step after ``y`` and ``T``.

    Once the predicted covariance maps to itself bit for bit, every later
    step would recompute the same gain, so it stops being updated."""
    T, R = harvey_form(phi, theta)
    Q = sigma2 * np.outer(R, R)
    P = solve_discrete_lyapunov(T, Q)
    a = np.zeros(R.size)
    loglik = 0.0
    fixed = False
    for v in np.asarray(y, dtype=float) - mu:
        if not fixed:
            F = P[0, 0]
            K = P[:, 0] / F
            log_2pi_f = math.log(2 * math.pi * F)
        v -= a[0]
        loglik -= 0.5 * (log_2pi_f + v * v / F)
        a = T @ (a + K * v)
        if not fixed:
            P_next = T @ (P - np.outer(K, P[0])) @ T.T + Q
            fixed = np.array_equal(P_next, P)
            P = P_next
    return loglik, a, T


def exact_arma_mle(y, p, q, start):
    """Maximum-likelihood (mu, phi, theta, sigma2), from ``start``."""

    def unpack(x):
        return x[0], x[1 : 1 + p], x[1 + p : 1 + p + q], math.exp(x[-1])

    def negative_loglik(x):
        mu, phi, theta, sigma2 = unpack(x)
        T, _ = harvey_form(phi, theta)
        if np.max(np.abs(np.linalg.eigvals(T))) >= 1.0:
            return 1e12  # outside the stationary region
        return -exact_arma_loglik(y, mu, phi, theta, sigma2)[0]

    mu, phi, theta, sigma2 = start
    x0 = np.concatenate([[mu], phi, theta, [math.log(sigma2)]])
    result = minimize(negative_loglik, x0, method="L-BFGS-B")
    return unpack(result.x)


def arma_autocovariances(phi, theta, sigma2, n_lags, n_psi=2000):
    """gamma(0..n_lags-1) from the MA(infinity) weights psi."""
    psi = np.zeros(n_psi)
    psi[0] = 1.0
    for j in range(1, n_psi):
        psi[j] = (theta[j - 1] if j <= len(theta) else 0.0) + sum(
            ph * psi[j - i] for i, ph in enumerate(phi, 1) if j >= i
        )
    return sigma2 * np.array([psi[: n_psi - k] @ psi[k:] for k in range(n_lags)])


ARMA_CASES = pytest.mark.parametrize(
    "phi,omega",
    [([0.5, -0.3], []), ([0.7], [0.4]), ([], [0.5, 0.25])],
    ids=["ar2", "arma11", "ma2"],
)


class TestReferenceImplementation:
    """Cross-check against an exact-likelihood fitter written here."""

    @ARMA_CASES
    def test_oracle_matches_dense_gaussian(self, phi, omega):
        y, _ = simulate_arma(phi, omega, 40, seed=2)
        mu, sigma2 = 0.3, 1.7
        dense = multivariate_normal(
            mean=np.full(40, mu), cov=toeplitz(arma_autocovariances(phi, omega, sigma2, 40))
        ).logpdf(y)
        loglik, _, _ = exact_arma_loglik(y, mu, np.array(phi), np.array(omega), sigma2)
        assert loglik == pytest.approx(dense, rel=1e-10)

    @ARMA_CASES
    def test_css_matches_reference_mle(self, phi, omega):
        rng_seed = 1
        n = 3000
        rng = np.random.default_rng(rng_seed)
        eps = rng.normal(0, 1, n)
        y = np.zeros(n)
        for t in range(n):
            acc = eps[t]
            for i, ph in enumerate(phi, 1):
                if t - i >= 0:
                    acc += ph * y[t - i]
            for j, om in enumerate(omega, 1):
                if t - j >= 0:
                    acc += om * eps[t - j]
            y[t] = acc
        mine = fit_structural(
            ts_of(y), DataProfile(), structural_config(len(phi), len(omega), 0)
        )
        mu, ref_phi, ref_omega, ref_sigma2 = exact_arma_mle(
            y, len(phi), len(omega), (float(np.mean(y)), mine.phi, mine.omega, mine.sigma2)
        )
        if phi:
            assert np.allclose(mine.phi, ref_phi, atol=0.02)
        if omega:
            assert np.allclose(mine.omega, ref_omega, atol=0.02)
        assert abs(mine.sigma2 - ref_sigma2) <= 0.02 * ref_sigma2
        _, state, T = exact_arma_loglik(y, mu, ref_phi, ref_omega, ref_sigma2)
        ref_forecast = [mu + (np.linalg.matrix_power(T, h) @ state)[0] for h in range(5)]
        fc_mine = np.array([m for m, _ in forecast(mine, 5)])
        assert np.max(np.abs(fc_mine - ref_forecast)) <= 0.05
