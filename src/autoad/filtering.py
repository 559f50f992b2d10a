"""Filter-based model: linear-Gaussian state space with Kalman recursion.

Two canonical structures are supported: a local level (state_dim 1) and a
local linear trend (state_dim 2).  Each observation updates the state; the
level shift between posterior and prior estimates is the residual whose
running Gaussian statistics (with exponential forgetting) drive anomaly
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.signal import lfilter

from .errors import InsufficientData, NumericalBreakdown
from .series import TimeSeries, from_model_scale, log_offset, to_log, to_model_scale
from .stats import gaussian_anomaly_probability

if TYPE_CHECKING:  # pragma: no cover
    from .optimizer import ModelConfig

_ETA_VAR_FLOOR = 1e-12
_R_FLOOR = 1e-10
# passes up to this long are scored point by point, with the same bits:
# the array path costs about 17 us at any short length, the scalar one
# about 1 us a point, and the two cross at 18-20 points
_SCALAR_PASS = 16
# a noise-scan or training pass runs its steps past the covariance fixed
# point as one linear filter once there are at least this many of them:
# the filter adds about 16 us at any short length, the per-step recursion
# about 0.3 us a step, and the two cross at 50-60 steps
_LINEAR_TAIL = 52


@dataclass(frozen=True)
class StateSpaceModel:
    """Canonical local-level / local-linear-trend state space.

    state_dim 1 is a random-walk level; state_dim 2 adds a random-walk
    slope that feeds the level.  Q must be diagonal and non-negative (the
    filter reads only its diagonal), P0 symmetric PSD and R positive.
    """

    state_dim: int
    Q: np.ndarray
    R: float
    x0: np.ndarray
    P0: np.ndarray
    forgetting: float = 0.99
    log_scale: bool = False
    log_offset: float = 0.0

    def __post_init__(self):
        if self.state_dim not in (1, 2):
            raise ValueError("state_dim must be 1 or 2")
        for name in ("Q", "x0", "P0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        m = self.state_dim
        if self.Q.shape != (m, m) or self.P0.shape != (m, m) or self.x0.shape != (m,):
            raise ValueError("Q, P0 must be mxm and x0 length m")
        if self.R <= 0:
            raise ValueError("R must be positive")
        q, p = self.Q.tolist(), self.P0.tolist()
        if m == 2 and (q[0][1] != 0.0 or q[1][0] != 0.0):
            raise ValueError("Q must be diagonal")
        if not all(q[i][i] >= 0.0 for i in range(m)):
            raise ValueError("Q must have non-negative diagonal entries")
        if m == 2 and p[0][1] != p[1][0]:
            raise ValueError("P0 must be symmetric")
        # the smaller eigenvalue of a symmetric matrix of size 1 or 2, in closed form
        a, b, c = p[0][0], p[0][-1] if m == 2 else 0.0, p[-1][-1]
        if not 0.5 * (a + c) - math.hypot(0.5 * (a - c), b) >= -1e-10:
            raise ValueError("P0 must be positive semi-definite")

    @classmethod
    def local_level(cls, q: float, r: float, x0: float = 0.0, p0: float = 1.0, **kw):
        return cls(
            state_dim=1,
            Q=np.array([[q]]),
            R=r,
            x0=np.array([x0]),
            P0=np.array([[p0]]),
            **kw,
        )

    @classmethod
    def local_linear_trend(
        cls,
        q_level: float,
        q_slope: float,
        r: float,
        x0=(0.0, 0.0),
        p0: float = 1.0,
        **kw,
    ):
        return cls(
            state_dim=2,
            Q=np.diag([q_level, q_slope]).astype(float),
            R=r,
            x0=np.asarray(x0, dtype=float),
            P0=np.eye(2) * p0,
            **kw,
        )

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "method": "filtering",
            "state_dim": self.state_dim,
            "Q": self.Q.tolist(),
            "R": self.R,
            "x0": self.x0.tolist(),
            "P0": self.P0.tolist(),
            "forgetting": self.forgetting,
            "log_scale": self.log_scale,
            "log_offset": self.log_offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StateSpaceModel":
        return cls(
            state_dim=int(data["state_dim"]),
            Q=np.asarray(data["Q"], dtype=float),
            R=float(data["R"]),
            x0=np.asarray(data["x0"], dtype=float),
            P0=np.asarray(data["P0"], dtype=float),
            forgetting=float(data.get("forgetting", 0.99)),
            log_scale=bool(data.get("log_scale", False)),
            log_offset=float(data.get("log_offset", 0.0)),
        )


@dataclass(frozen=True)
class FilterState:
    """What a :func:`run_filter` pass carries to the next one: the last
    posterior state and covariance, and the weighted Welford statistics of
    the level residuals (mean, variance, weight sum and the sum of squared
    deviations).  Each pass predicts afresh from the posterior."""

    x_post: np.ndarray
    P_post: np.ndarray
    eta_mean: float = 0.0
    eta_var: float = 0.0
    w_sum: float = 0.0
    s_accum: float = 0.0

    @classmethod
    def initial(cls, model: StateSpaceModel) -> "FilterState":
        return cls(x_post=model.x0.copy(), P_post=model.P0.copy())

    def to_dict(self) -> dict:
        return {
            "x_post": self.x_post.tolist(),
            "P_post": self.P_post.tolist(),
            "eta_mean": self.eta_mean,
            "eta_var": self.eta_var,
            "w_sum": self.w_sum,
            "s_accum": self.s_accum,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FilterState":
        """Reads the named keys only, so a stored state with more keys loads too."""
        return cls(
            x_post=np.asarray(data["x_post"], dtype=float),
            P_post=np.asarray(data["P_post"], dtype=float),
            eta_mean=float(data["eta_mean"]),
            eta_var=float(data["eta_var"]),
            w_sum=float(data["w_sum"]),
            s_accum=float(data["s_accum"]),
        )


def _trend_entries(x: np.ndarray, P: np.ndarray) -> tuple:
    """(x0, x1, p00, p01, p11) of a state of either size, as the local
    linear trend's, with any slope entries it lacks held at zero."""
    if x.shape[0] == 1:
        return x.item(), 0.0, P.item(), 0.0, 0.0
    (x0, x1), ((p00, p01), (_, p11)) = x.tolist(), P.tolist()
    return x0, x1, p00, p01, p11


def _sized(m: int, x0: float, x1: float, p00: float, p01: float, p11: float) -> tuple:
    """(x, P) of the model's size from the local linear trend's entries."""
    if m == 1:
        return np.array([x0]), np.array([[p00]])
    return np.array([x0, x1]), np.array([[p00, p01], [p01, p11]])


def _gains(model: StateSpaceModel, post, n: int) -> tuple:
    """The covariance half of the one Kalman recursion: ``n`` >= 1 steps
    from the posterior covariance entries ``post`` = (p00, p01, p11) of
    :func:`_trend_entries`.  It never reads the observations.

    Returns a ``(k0, k1, s)`` entry per step run (the gains and the
    innovation variance), then the last posterior covariance entries.  A
    time-invariant model's covariance converges to the Riccati fixed
    point (Anderson & Moore 1979, ch. 4; Harvey 1989, sec. 3.3.4).  Once a
    step's posterior covariance equals the one it started from bit for
    bit, every later step would repeat that step's gains and variance
    exactly, so the recursion stops there and the later steps take its
    entry (see :func:`_held`).  Fewer than ``n`` entries mean the fixed
    point came before the last step.  About one model in fifteen ends
    instead in a rounding cycle of two to four covariances, and its passes
    run the recursion to the end.
    """
    m = model.state_dim
    q00, q11 = (model.Q.item(), 0.0) if m == 1 else model.Q.diagonal().tolist()
    r = model.R
    p00, p01, p11 = post
    gains = []
    for _ in range(n):
        # predict with the transition [[1, 1], [0, 1]], then update
        pp00 = p00 + 2.0 * p01 + p11 + q00
        pp01 = p01 + p11
        pp11 = p11 + q11
        s = pp00 + r
        if s <= 0.0:
            raise NumericalBreakdown(f"innovation variance {s} <= 0")
        k0 = pp00 / s
        k1 = pp01 / s
        gains.append((k0, k1, s))
        b00, b01, b11 = p00, p01, p11
        p00 = (1.0 - k0) * pp00
        p01 = (1.0 - k0) * pp01
        p11 = pp11 - k1 * pp01
        if p00 == b00 and p01 == b01 and p11 == b11:
            break
    return gains, (p00, p01, p11)


def _held(entries: list, n: int) -> list:
    """``n`` per-step entries: those given, then the last one held."""
    return entries + entries[-1:] * (n - len(entries))


def _kalman_pass(model: StateSpaceModel, state: FilterState, values) -> tuple:
    """The one Kalman predict/update recursion, for both state sizes.

    The local level runs as the local linear trend with its slope state,
    slope noise and slope covariance held at zero; every level quantity
    then comes out exactly as a scalar recursion would give it.  The
    covariance half runs in :func:`_gains` up to its fixed point; the
    state then follows with the gains of each step.  Returns the per-step
    predicted level and level residual (posterior minus predicted level),
    then the last posterior as (x, P) of the model's size.  An empty pass
    returns the state's own posterior.
    """
    if not values:
        return [], [], (state.x_post, state.P_post)
    x0, x1, *post = _trend_entries(state.x_post, state.P_post)
    gains, post = _gains(model, post, len(values))
    level, eta, (x0, x1) = _state_steps(x0, x1, gains, values)
    return level, eta, _sized(model.state_dim, x0, x1, *post)


def _state_steps(x0: float, x1: float, gains: list, values: list) -> tuple:
    """The state half of the recursion: the posterior (x0, x1) stepped
    through ``values``, at least one, with the gains of :func:`_gains`
    held past their end.  Returns each step's predicted level and level
    residual (posterior minus predicted level), then the last posterior."""
    n = len(values)
    level, eta = [0.0] * n, [0.0] * n
    for i, (y, (k0, k1, _)) in enumerate(zip(values, _held(gains, n))):
        xp0 = x0 + x1
        nu = y - xp0
        x0 = xp0 + k0 * nu
        x1 = x1 + k1 * nu
        level[i] = xp0
        eta[i] = x0 - xp0
    return level, eta, (x0, x1)


def run_filter(
    model: StateSpaceModel, values: np.ndarray, state: Optional[FilterState] = None
) -> tuple[np.ndarray, FilterState, np.ndarray]:
    """Filter a whole sequence: per-step anomaly probabilities, the final
    state and each step's predicted level (on the model's scale).

    Each observation is scored against the residual statistics before it
    is absorbed, so the pass is causal end to end, and a sequence split
    into consecutive passes gives the same probabilities as one pass, bit
    for bit.  That is why this, the scoring pass, keeps the per-step
    recursion past the covariance fixed point: the linear filter of
    :func:`_training_pass` sums in another order, so its bits would
    depend on where a stream is cut into passes.
    Raises ValueError on a non-finite observation before filtering any.
    """
    if state is None:
        state = FilterState.initial(model)
    points = np.asarray(values, dtype=float).tolist()
    if not all(map(math.isfinite, points)):
        raise ValueError("observations must be finite")
    level, eta, (x_post, P_post) = _kalman_pass(model, state, points)

    # weighted Welford recursion over the level residuals; forgetting 1
    # reproduces exact batch statistics
    lam = model.forgetting
    w_sum, mean, s_accum, var = state.w_sum, state.eta_mean, state.s_accum, state.eta_var
    means, variances = [0.0] * len(eta), [0.0] * len(eta)
    for i, e in enumerate(eta):
        means[i] = mean
        variances[i] = var
        w_sum = lam * w_sum + 1.0
        delta = e - mean
        mean = mean + delta / w_sum
        s_accum = lam * s_accum + delta * (e - mean)
        var = max(s_accum / w_sum, 0.0)

    if len(eta) <= _SCALAR_PASS:
        probs = np.array([gaussian_anomaly_probability(e - mu, math.sqrt(max(v, _ETA_VAR_FLOOR)))
                          for e, mu, v in zip(eta, means, variances)])
    else:
        sd = np.sqrt(np.maximum(variances, _ETA_VAR_FLOOR))
        probs = gaussian_anomaly_probability(np.array(eta) - np.array(means), sd)
    final = FilterState(x_post=x_post, P_post=P_post, eta_mean=mean, eta_var=var,
                        w_sum=w_sum, s_accum=s_accum)
    return probs, final, np.array(level)


def _noise_model(state_dim: int, q: float, r: float, x0: np.ndarray, p0: float, **kw) -> StateSpaceModel:
    """Local level, or local linear trend with slope noise two orders below level noise."""
    if state_dim == 1:
        return StateSpaceModel.local_level(q=q, r=r, x0=float(x0[0]), p0=p0, **kw)
    return StateSpaceModel.local_linear_trend(q_level=q, q_slope=q * 0.01, r=r, x0=x0, p0=p0, **kw)


def _linear_pass(model: StateSpaceModel, values: np.ndarray) -> tuple:
    """A noise-scan or training pass over ``values`` from the model's
    initial state: the gains of :func:`_gains`, then what
    :func:`_kalman_pass` returns (each step's predicted level and level
    residual as arrays, then the last posterior (x, P)).

    The steps up to the covariance fixed point run the per-step recursion.
    Past it the gains are constant, and the predicted level is a fixed
    linear filter of the values: exponential smoothing for the local
    level, Holt's method for the trend (Harvey 1989, sec. 3.3.4).  One
    ``lfilter`` call runs those steps from the last per-step posterior; a
    tail shorter than ``_LINEAR_TAIL`` stays in the recursion.  The filter
    sums in another order, so its outputs agree with the recursion's to
    rounding, not bit for bit.
    """
    n = values.size
    x0, x1, *post = _trend_entries(model.x0, model.P0)
    gains, post = _gains(model, post, n)
    head = len(gains) if n - len(gains) >= _LINEAR_TAIL else n
    level, eta, (x0, x1) = _state_steps(x0, x1, gains, values[:head].tolist())
    if head < n:
        k0, k1, _ = gains[-1]
        if model.state_dim == 1:
            tail, (x0,) = lfilter([0.0, k0], [1.0, k0 - 1.0], values[head:], zi=[x0])
        else:
            tail, (z0, z1) = lfilter([0.0, k0 + k1, -k0], [1.0, k0 + k1 - 2.0, 1.0 - k0],
                                     values[head:], zi=[x0 + x1, -x0])
            x0, x1 = -z1, z0 + z1
        nu = values[head:] - tail
        level, eta = np.concatenate([level, tail]), np.concatenate([eta, k0 * nu])
    return gains, np.asarray(level), np.asarray(eta), _sized(model.state_dim, x0, x1, *post)


def _concentrated_likelihood(values: np.ndarray, model: StateSpaceModel):
    """Prediction-error likelihood of a model with R = 1, R concentrated out.

    The innovations come from :func:`_linear_pass`: the per-step recursion
    up to the covariance fixed point, one linear filter past it.  Past the
    fixed point log(s) is one constant, so its sum there is a product.
    Every scan over both hourly fixtures and a corpus of simulated series
    selects the noise ratio the all-recursion pass selected, with a
    log-likelihood within 1e-9 relative of it.
    """
    n = values.size
    gains, level, _, _ = _linear_pass(model, values)
    nu = values - level
    s = np.array([g[2] for g in gains])
    sum_ratio = float(np.sum(nu[:s.size] ** 2 / s) + np.sum(nu[s.size:] ** 2) / s[-1])
    log_s = [math.log(g[2]) for g in gains]
    sum_log_s = math.fsum(log_s) + (n - len(gains)) * log_s[-1]
    r_hat = max(sum_ratio / n, _R_FLOOR)
    loglik = -0.5 * (sum_log_s + n * math.log(r_hat) + n)
    return loglik, r_hat


def _training_pass(model: StateSpaceModel, values: np.ndarray) -> tuple[np.ndarray, FilterState, np.ndarray]:
    """What :func:`run_filter` gives over ``values`` from the model's
    initial state, to rounding: probabilities, final state and levels.

    The state half is :func:`_linear_pass`.  The weighted Welford
    statistics of :func:`run_filter` are three first-order linear filters
    with the forgetting factor as their pole: of ones (the weight), of the
    residuals (weight times mean), and of lam * w_{k-1} / w_k * delta^2,
    which is the Welford increment delta * (eta - mean) in a form whose
    terms are all non-negative, so nothing cancels.
    """
    n = values.size
    _, level, eta, (x_post, P_post) = _linear_pass(model, values)
    pole = [1.0, -model.forgetting]
    w_sum = lfilter([1.0], pole, np.ones(n))
    mean = lfilter([1.0], pole, eta) / w_sum
    w_before = np.concatenate([[0.0], w_sum[:-1]])
    delta = eta - np.concatenate([[0.0], mean[:-1]])
    s_accum = lfilter([1.0], pole, model.forgetting * w_before / w_sum * delta * delta)
    var = np.maximum(s_accum / w_sum, 0.0)
    sd = np.sqrt(np.maximum(np.concatenate([[0.0], var[:-1]]), _ETA_VAR_FLOOR))
    probs = gaussian_anomaly_probability(delta, sd)
    final = FilterState(x_post=x_post, P_post=P_post, eta_mean=float(mean[-1]),
                        eta_var=float(var[-1]), w_sum=float(w_sum[-1]), s_accum=float(s_accum[-1]))
    return probs, final, level


def _initial_state(y: np.ndarray, state_dim: int) -> tuple:
    """Initial state (first value, and the mean of the first ten steps as
    slope) and the covariance scale, 10·var(y) + 1, for the values ``y``."""
    if state_dim == 1:
        x0 = np.array([y[0]])
    else:
        k0 = min(10, y.size - 1)
        x0 = np.array([y[0], float(np.mean(np.diff(y[: k0 + 1])))])
    return x0, 10.0 * float(np.var(y)) + 1.0


def _select_noise(y: np.ndarray, state_dim: int) -> tuple:
    """Likelihood-best noise ratio q/r for the values ``y``, and its R estimate.

    Scans 7 log-spaced ratios, then 5 around the best, whose middle one is
    the best itself and reuses its pass; R is concentrated out of the
    likelihood analytically.  Each of the 11 passes runs the per-step
    recursion only until the covariance fixed point, a few to a few
    hundred steps, and the rest of the values as one linear filter (see
    :func:`_linear_pass`).  The result depends only on the values and the
    state size, never on the forgetting factor.
    """
    x0, p0_scale = _initial_state(y, state_dim)
    passes: dict = {}

    def scan(rhos):
        best = (-math.inf, None, None)
        for rho in rhos:
            if rho not in passes:
                passes[rho] = _concentrated_likelihood(y, _noise_model(state_dim, rho, 1.0, x0, p0_scale))
            loglik, r_hat = passes[rho]
            if loglik > best[0]:
                best = (loglik, rho, r_hat)
        return best

    _, rho_best, _ = scan(np.logspace(-3.0, 3.0, 7))
    _, rho_best, r_hat = scan(rho_best * np.logspace(-0.5, 0.5, 5))
    return rho_best, r_hat


def fit_filtering(
    ts: TimeSeries, config: "ModelConfig", noise_memo: Optional[dict] = None
) -> tuple[StateSpaceModel, FilterState, np.ndarray]:
    """Select noise parameters by likelihood and warm up the residual law.

    The q/r ratio is searched over 7 log-spaced values with one local
    refinement round; R is concentrated out of the likelihood
    analytically.  A full training pass then populates the residual
    statistics under the configured forgetting factor; its per-point
    anomaly probabilities are returned with the model and final state.
    The training pass is :func:`_training_pass`, which runs the values
    past the covariance fixed point as linear filters and agrees with a
    :func:`run_filter` pass to rounding; scoring from the final state
    runs the per-step :func:`run_filter`.

    ``noise_memo`` is an optional dict that a caller fitting several
    configurations on the same series passes to every call: the noise
    scan's result is kept there per (transformed training values, state
    size), and a later call with the same pair reuses it, giving the same
    model bit for bit.  The caller owns the dict and decides how long it
    lives; ``None`` scans every time.
    """
    params = config.filtering_params
    if params is None:
        raise ValueError("config has no filtering parameters")
    n = len(ts)
    if n < 30:
        raise InsufficientData(f"filtering fit needs at least 30 points, got {n}")
    if ts.missing_mask.any():
        raise ValueError("fit_filtering requires an imputed series")

    y = ts.values.astype(float)
    offset = 0.0
    if config.log_scale:
        offset = log_offset(y)
        y = to_log(y, offset)

    m = params.state_dim
    memo = {} if noise_memo is None else noise_memo
    key = (y.tobytes(), m)
    if key not in memo:
        memo[key] = _select_noise(y, m)
    rho_best, r_hat = memo[key]
    x0, p0_scale = _initial_state(y, m)

    r = max(r_hat, _R_FLOOR)
    model = _noise_model(
        m, rho_best * r, r, x0, p0_scale,
        forgetting=params.forgetting, log_scale=config.log_scale, log_offset=offset,
    )
    probs, state, _ = _training_pass(model, y)
    return model, state, probs


class FilterDetector:
    """A fitted filter model and its live filter state.

    Scoring advances the state, so consecutive batches give what one pass
    over them would.  :meth:`state` is the stored form of the live state;
    the step counts the structural detector needs are not used.
    """

    def __init__(self, model: StateSpaceModel, state: FilterState):
        self.model = model
        self._state = state

    def score(self, steps, values) -> tuple[np.ndarray, np.ndarray]:
        """Anomaly probabilities and expected raw values of the next raw
        observations ``values``; advances the state past them."""
        probs, self._state, level = run_filter(self.model, to_model_scale(values, self.model), self._state)
        return probs, from_model_scale(level, self.model)

    def predictive(self, step: int) -> tuple[float, float]:
        """(center, scale) of the predictive Gaussian of the next
        observation on the model's scale, changing nothing.  One more
        update from the live state scores y by its level residual
        gain0 * (y - x0 - x1) against the residual law (mean, sd), so y is
        judged against center x0 + x1 + mean / gain0 and scale sd / gain0."""
        state = self._state
        x0, x1, *post = _trend_entries(state.x_post, state.P_post)
        [(gain0, _, _)], _ = _gains(self.model, post, 1)
        sd = math.sqrt(max(state.eta_var, _ETA_VAR_FLOOR))
        return x0 + x1 + state.eta_mean / gain0, sd / gain0

    def state(self) -> dict:
        return self._state.to_dict()
