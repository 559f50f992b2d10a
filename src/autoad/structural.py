"""Structural model: ARMA errors around a Fourier regression.

The observed series (optionally log-transformed, then differenced) is
regressed on cosine/sine pairs at the profiled frequencies; the regression
residual is fitted as an ARMA(p, q) process by conditional sum-of-squares
(CSS): in closed form for a pure AR, otherwise by Levenberg-Marquardt over
the partial autocorrelations of the AR and MA polynomials, so that every
fit is stationary and invertible.
The fit's innovations and a forecast's mean and psi weights run one ARMA
filter; a forecast adds the deterministic regression part and integrates
back through differencing and the log transform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.optimize import leastsq
from scipy.signal import lfilter, lfiltic, unit_impulse

from .evaluation import Detector
from .errors import InsufficientData, NonConvergence
from .profiling import DataProfile
from .series import TimeSeries, fit_scale, from_log, from_model_scale, to_model_scale
from .stats import autocovariances, gaussian_anomaly_probability

if TYPE_CHECKING:  # pragma: no cover
    from .optimizer import ModelConfig

_SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class StructuralModel:
    """Fitted ARMA-with-regressors model plus the state forecasting needs."""

    p: int
    q: int
    phi: np.ndarray
    omega: np.ndarray
    theta: np.ndarray  # cos/sin coefficient pairs, 2 per frequency
    frequencies: tuple[float, ...]
    d: int
    log_scale: bool
    log_offset: float
    sigma2: float
    train_mean: float  # regression intercept on the modeled scale
    residuals: np.ndarray  # in-sample innovations
    train_len: int
    tail_values: np.ndarray  # last value of each differencing level 0..d-1
    r_tail: np.ndarray  # trailing regression residuals (ARMA inputs)
    eps_tail: np.ndarray  # trailing innovations for the MA recursion

    def to_dict(self) -> dict:
        return {
            "method": "structural",
            "p": self.p,
            "q": self.q,
            "phi": self.phi.tolist(),
            "omega": self.omega.tolist(),
            "theta": self.theta.tolist(),
            "frequencies": list(self.frequencies),
            "d": self.d,
            "log_scale": self.log_scale,
            "log_offset": self.log_offset,
            "sigma2": self.sigma2,
            "train_mean": self.train_mean,
            "train_len": self.train_len,
            "tail_values": self.tail_values.tolist(),
            "r_tail": self.r_tail.tolist(),
            "eps_tail": self.eps_tail.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StructuralModel":
        return cls(
            p=int(data["p"]),
            q=int(data["q"]),
            phi=np.asarray(data["phi"], dtype=float),
            omega=np.asarray(data["omega"], dtype=float),
            theta=np.asarray(data["theta"], dtype=float),
            frequencies=tuple(data["frequencies"]),
            d=int(data["d"]),
            log_scale=bool(data["log_scale"]),
            log_offset=float(data["log_offset"]),
            sigma2=float(data["sigma2"]),
            train_mean=float(data["train_mean"]),
            residuals=np.zeros(0),
            train_len=int(data["train_len"]),
            tail_values=np.asarray(data["tail_values"], dtype=float),
            r_tail=np.asarray(data["r_tail"], dtype=float),
            eps_tail=np.asarray(data["eps_tail"], dtype=float),
        )


def _fourier_design(t: np.ndarray, frequencies: Sequence[float]) -> np.ndarray:
    cols = [np.ones_like(t, dtype=float)]
    for f in frequencies:
        cols.append(np.cos(2.0 * math.pi * f * t))
        cols.append(np.sin(2.0 * math.pi * f * t))
    return np.column_stack(cols)


_ROOT_RADIUS = 1.0 + 1e-9
# |partial autocorrelation| the CSS fit can reach: far enough from 1 that
# the step-down in _stationary, which loses about 1e-16 / (1 - |kappa|)^2
# to rounding, still finds every fitted polynomial stationary
_KAPPA_MAX = 1.0 - 1e-5


def _partial_autocorrelations(a: list) -> list:
    """The partial autocorrelations kappa_1..kappa_m of the coefficients
    ``a`` of 1 - sum_k a_k B^k, by the Durbin-Levinson step-down.  The
    step-down stops at the first one outside (-1, 1), found from kappa_m
    downwards, and the list then starts with it."""
    kappas = []
    for k in range(len(a) - 1, -1, -1):
        kappa = a[k]
        kappas.append(kappa)
        if not -1.0 < kappa < 1.0:
            break
        denom = 1.0 - kappa * kappa
        a = [(a[j] + kappa * a[k - 1 - j]) / denom for j in range(k)]
    return kappas[::-1]


def _stationary(phi: np.ndarray) -> bool:
    """True when every root of 1 - sum_k phi_k B^k lies outside |B| = 1 + 1e-9.

    The roots lie outside radius R exactly when the coefficients
    phi_k R^k are stationary, and those are stationary exactly when every
    partial autocorrelation of the Durbin-Levinson step-down lies in
    (-1, 1) (Barndorff-Nielsen & Schou 1973; Monahan 1984).  A NaN
    coefficient raises LinAlgError, which the tuner's cost absorbs as
    +inf; an infinite one is not stationary.
    """
    a = phi.tolist()
    if any(c != c for c in a):
        raise np.linalg.LinAlgError("coefficients contain NaN")
    kappas = _partial_autocorrelations([c * _ROOT_RADIUS ** k for k, c in enumerate(a, start=1)])
    return all(-1.0 < kappa < 1.0 for kappa in kappas)


def _step_up(kappa: list) -> tuple[list, list]:
    """The coefficients a of 1 - sum_k a_k B^k whose partial
    autocorrelations are ``kappa``, and their Jacobian rows d a_i / d kappa.

    The Durbin-Levinson step-up, the inverse of the step-down in
    :func:`_partial_autocorrelations`: a polynomial of order k + 1 is the
    one of order k less kappa_{k+1} times its reverse, with kappa_{k+1}
    appended.
    """
    a: list = []
    jac: list = []
    for k, x in enumerate(kappa):
        jac = [[d - x * e for d, e in zip(jac[i], jac[k - 1 - i])] for i in range(k)]
        for i in range(k):
            jac[i][k] = -a[k - 1 - i]
        jac.append([float(j == k) for j in range(len(kappa))])
        a = [a[i] - x * a[k - 1 - i] for i in range(k)] + [x]
    return a, jac


def _css_coefficients(u: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi, omega and d (phi, omega) / d u of the CSS fit's parameters ``u``.

    Each side's partial autocorrelations are _KAPPA_MAX * tanh(u), stepped
    up and moved out to _ROOT_RADIUS: coefficient k is divided by R^k,
    which multiplies every root by R.  phi is the AR side and omega the
    negated MA side, so phi is stationary and omega invertible for every
    u, and the step-down in _stationary agrees.
    """
    coef = []
    dcoef = np.zeros((u.size, u.size))
    for lo, hi, sign in ((0, p, 1.0), (p, u.size, -1.0)):
        tanh = [math.tanh(v) for v in u[lo:hi].tolist()]
        a, jac = _step_up([_KAPPA_MAX * t for t in tanh])
        for i, (c, row) in enumerate(zip(a, jac)):
            scale = sign * _ROOT_RADIUS ** -(i + 1)
            coef.append(scale * c)
            dcoef[lo + i, lo:hi] = [scale * d * _KAPPA_MAX * (1.0 - t * t) for d, t in zip(row, tanh)]
    coef = np.array(coef)
    return coef[:p], coef[p:], dcoef


def _css_innovations(phi: np.ndarray, omega: np.ndarray, r: np.ndarray) -> np.ndarray:
    # (1 + omega_1 B + ...) eps_t = (1 - phi_1 B - ...) r_t, eps presample = 0
    b = np.concatenate([[1.0], -phi])
    a = np.concatenate([[1.0], omega])
    return lfilter(b, a, r)


def _yule_walker(r: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return np.zeros(0)
    gam = autocovariances(r, p)
    if gam[0] <= 0:
        return np.zeros(p)
    col = gam[:p].copy()
    col[0] *= 1.0 + 1e-8
    try:
        phi = solve_toeplitz(col, gam[1 : p + 1])
    except (np.linalg.LinAlgError, ValueError):
        return np.zeros(p)
    phi = np.asarray(phi, dtype=float)
    while not _stationary(phi):
        phi *= 0.95
    return phi


def _css_terms(u: np.ndarray, r: np.ndarray, p: int, memo: Optional[dict]) -> list:
    """phi, omega, d (phi, omega) / d u and the innovations at ``u``, then
    the Jacobian there once :func:`_css_jacobian` has asked for it.

    ``memo`` is a dict one fit passes to every call, or None: it keeps the
    terms of the last ``u`` asked, bit for bit, and a call at that same
    ``u`` reuses them.  Levenberg-Marquardt asks for the Jacobian at the
    point of the residual call before it almost every time, and
    ``leastsq`` asks for the start point's Jacobian twice.
    """
    memo = {} if memo is None else memo
    key = u.tobytes()
    if key not in memo:
        memo.clear()
        phi, omega, dcoef = _css_coefficients(u, p)
        memo[key] = [phi, omega, dcoef, _css_innovations(phi, omega, r)]
    return memo[key]


def _css_residuals(u: np.ndarray, r: np.ndarray, p: int, memo: Optional[dict] = None) -> np.ndarray:
    """The CSS innovations after the first p at the fit's parameters ``u``."""
    return _css_terms(u, r, p, memo)[3][p:]


def _css_jacobian(u: np.ndarray, r: np.ndarray, p: int, memo: Optional[dict] = None) -> np.ndarray:
    """d :func:`_css_residuals` / d u.

    d eps_t / d phi_i is -r_{t-i} and d eps_t / d omega_j is -eps_{t-j},
    each filtered through 1 / (1 + omega(B)) (Box, Jenkins & Reinsel,
    ch. 7); the chain rule then goes through the step-up and tanh.  It is
    kept in ``memo`` beside the terms at ``u`` (:func:`_css_terms`).
    """
    terms = _css_terms(u, r, p, memo)
    if len(terms) == 5:
        return terms[4]
    _, omega, dcoef, eps = terms
    n, q = r.size, omega.size
    # one filter call over r (when there is an AR part) and eps; rows
    # t = p..n-1 of their lags 1..p and 1..q, zero before the series starts
    *fr, fe = lfilter([1.0], np.concatenate([[1.0], omega]), np.stack([r, eps] if p else [eps]))
    lags = np.zeros((n - p, p + q))
    for k, (x, lag) in enumerate([(fr[0], i) for i in range(1, p + 1)] + [(fe, j) for j in range(1, q + 1)]):
        lags[max(lag - p, 0):, k] = x[max(p - lag, 0):n - lag]
    terms.append(-lags @ dcoef)
    return terms[4]


def _fit_css(r: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """ARMA(p, q) coefficients of ``r`` by conditional sum of squares, q >= 1.

    Levenberg-Marquardt with an analytic Jacobian over the parameters of
    :func:`_css_coefficients`, so every iterate is stationary and
    invertible.  One start: the Yule-Walker AR part and a zero MA part.
    The fit's memo (see :func:`_css_terms`) hands each point's terms from
    the residual call to the Jacobian call.  MINPACK's ``lmder`` gets the
    arguments ``least_squares(method="lm", x_scale=1.0)`` would give it,
    without that wrapper's per-call cost; the full output only keeps
    ``leastsq`` from warning where ``least_squares`` stops silently.
    """
    n = p + q
    u0 = np.zeros(n)
    u0[:p] = np.arctanh(_partial_autocorrelations(_yule_walker(r, p).tolist()))
    memo: dict = {}
    if not np.all(np.isfinite(_css_residuals(u0, r, p, memo))):
        raise NonConvergence("CSS optimization failed: the innovations at the start are not finite")
    u, *_ = leastsq(_css_residuals, u0, args=(r, p, memo), Dfun=_css_jacobian, full_output=True,
                    ftol=1e-12, xtol=1e-10, gtol=1e-8, maxfev=100 * n, diag=np.ones(n))
    if not np.all(np.isfinite(u)):
        raise NonConvergence("CSS optimization diverged")
    phi, omega = _css_terms(u, r, p, memo)[:2]
    return phi, omega


def fit_structural(ts: TimeSeries, profile: DataProfile, config: "ModelConfig") -> StructuralModel:
    """Fit the structural model described by config against a profiled series.

    The ARMA part minimizes the CSS of the innovations after the first p:
    by least squares on the lagged residuals when q = 0, and by
    :func:`_fit_css` otherwise, whose AR polynomial is stationary and MA
    polynomial invertible at every iterate.  At every order the
    innovations are then one :func:`_css_innovations` filter.

    Raises InsufficientData when the series cannot support the requested
    order and NonConvergence when the CSS optimization breaks down.
    """
    if config.method != "structural":
        raise ValueError("config has no structural parameters")
    p, q, l = config.p, config.q, config.l
    frequencies = tuple(f for f, _ in profile.fourier_terms[:l])
    l = len(frequencies)
    n = len(ts)
    if n < 10 * (p + q + 2 * l + 1):
        raise InsufficientData(
            f"need {10 * (p + q + 2 * l + 1)} points for (p={p}, q={q}, l={l}), got {n}"
        )
    if ts.missing_mask.any():
        raise ValueError("fit_structural requires an imputed series")

    y, offset = fit_scale(ts, config.log_scale)

    d = profile.diff_order
    tail_values = np.empty(d)
    level = y
    for k in range(d):
        tail_values[k] = level[-1]
        level = np.diff(level)
    z = level
    if z.size <= p + q + 2 * l + 1:
        raise InsufficientData("differenced series too short for the requested order")

    t_idx = np.arange(d, n, dtype=float)
    design = _fourier_design(t_idx, frequencies)
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise NonConvergence("regression produced non-finite coefficients")
    train_mean = float(coef[0])
    theta = coef[1:]
    r = z - design @ coef

    phi = omega = np.zeros(0)
    if q:
        phi, omega = _fit_css(r, p, q)
    elif p:
        # pure AR: conditional least squares has a closed form
        lagged = np.column_stack([r[p - i - 1 : r.size - i - 1] for i in range(p)])
        phi, *_ = np.linalg.lstsq(lagged, r[p:], rcond=None)
        if not np.all(np.isfinite(phi)):
            raise NonConvergence("AR least squares produced non-finite coefficients")
    eps = _css_innovations(phi, omega, r)

    sigma2 = float(np.mean(eps[p:] ** 2))
    if not math.isfinite(sigma2):
        raise NonConvergence("innovation variance is not finite")
    sigma2 = max(sigma2, _SIGMA2_FLOOR)

    if not _stationary(phi):
        warnings.warn("fitted AR polynomial has roots on or inside the unit circle", stacklevel=2)

    keep = max(p, 1)
    return StructuralModel(
        p=p,
        q=q,
        phi=np.asarray(phi, dtype=float),
        omega=np.asarray(omega, dtype=float),
        theta=np.asarray(theta, dtype=float),
        frequencies=frequencies,
        d=d,
        log_scale=config.log_scale,
        log_offset=offset,
        sigma2=sigma2,
        train_mean=train_mean,
        residuals=eps,
        train_len=n,
        tail_values=tail_values,
        r_tail=r[-keep:].copy(),
        eps_tail=eps[-max(q, 1) :].copy(),
    )


def forecast(model: StructuralModel, h: int, transformed: bool = False) -> list[tuple[float, float]]:
    """h-step-ahead (mean, std) pairs.

    The ARMA part is the fit's filter (1 + omega(B)) / (1 - phi(B)) run
    on the regression-residual scale: on zero future innovations from the
    training tail's state for the mean, and on a unit impulse for the psi
    weights.  The deterministic Fourier part is added back, the result
    integrated through the differencing levels, and (unless
    ``transformed``) mapped back through the log transform.  Forecast
    variance accumulates the d-times-cumulated psi weights:

        var(h) = sigma2 * sum_{j<h} (psi*_j)^2,   psi* = cumsum^d(psi)

    which is non-decreasing in h.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    p, q = model.p, model.q
    ar = np.concatenate([[1.0], -model.phi])
    ma = np.concatenate([[1.0], model.omega])
    r_fc = np.zeros(h)
    if p or q:
        zi = lfiltic(ma, ar, model.r_tail[::-1][:p], model.eps_tail[::-1][:q])
        r_fc = lfilter(ma, ar, r_fc, zi=zi)[0]

    t_future = np.arange(model.train_len, model.train_len + h, dtype=float)
    design = _fourier_design(t_future, model.frequencies)
    coef = np.concatenate([[model.train_mean], model.theta])
    z_fc = design @ coef + r_fc

    level = z_fc
    for k in range(model.d - 1, -1, -1):
        level = model.tail_values[k] + np.cumsum(level)
    mean = level

    psi = lfilter(ma, ar, unit_impulse(h))
    for _ in range(model.d):
        psi = np.cumsum(psi)
    var = model.sigma2 * np.cumsum(psi**2)
    std = np.sqrt(var)

    if model.log_scale and not transformed:
        raw_mean = from_log(mean, model.log_offset)
        raw_std = np.exp(mean) * std
        return list(zip(raw_mean.tolist(), raw_std.tolist()))
    return list(zip(mean.tolist(), std.tolist()))


def in_sample_probabilities(model: StructuralModel) -> np.ndarray:
    """Anomaly probabilities of a just-fitted model's training points: 0.5
    for the first ``d``, which differencing consumes, then those of the
    training innovations."""
    probs = np.full(model.train_len, 0.5)
    probs[model.d:] = gaussian_anomaly_probability(
        model.residuals, np.full(model.residuals.size, math.sqrt(model.sigma2)))
    return probs


class StructuralDetector(Detector):
    """A fitted structural model scored against its forecast from the end
    of training.

    The forecast table, on the model's scale, covers ``horizon`` steps,
    step 0 being the first point after training.  The model holds no
    state between scorings, so :meth:`state` is None.
    """

    def __init__(self, model: StructuralModel, horizon: int):
        self.model = model
        self._table = np.array(forecast(model, horizon, transformed=True)) if horizon else np.empty((0, 2))

    def score(self, steps, values) -> tuple[np.ndarray, np.ndarray]:
        """Anomaly probabilities and expected raw values of the raw
        observations ``values`` at ``steps`` (each below the horizon)."""
        predicted, std = self._table[steps].T
        probs = gaussian_anomaly_probability(to_model_scale(values, self.model) - predicted, std)
        return probs, from_model_scale(predicted, self.model)

    def predictive(self, step: int) -> tuple[float, float]:
        """(center, scale) of the predictive Gaussian for ``step`` on the
        model's scale: the forecast row that :meth:`score` judges it by
        (``step`` below the horizon)."""
        mean, std = self._table[step]
        return float(mean), float(std)

    def state(self) -> None:
        return None
