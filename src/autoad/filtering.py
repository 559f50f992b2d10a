"""Filter-based model: linear-Gaussian state space with Kalman recursion.

Two canonical structures are supported: a local level (state_dim 1) and a
local linear trend (state_dim 2).  Each observation updates the state; the
level shift between posterior and prior estimates is the residual whose
running Gaussian statistics (with exponential forgetting) drive anomaly
probabilities.

One pass, :func:`run_filter`, serves training, tuning and scoring.  Its
predicted level is a linear filter of the values and its residual law three
forgetting sums, run by ``scipy.signal.lfilter`` for long runs and by loops
with lfilter's arithmetic for short ones: the same bits however a stream is
cut into passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.signal import lfilter

from .errors import InsufficientData, NumericalBreakdown
from .series import TimeSeries, fit_scale, from_model_scale, to_model_scale
from .stats import gaussian_anomaly_probability

if TYPE_CHECKING:  # pragma: no cover
    from .optimizer import ModelConfig

_ETA_VAR_FLOOR = 1e-12
_R_FLOOR = 1e-10
# a held-gain run of at least this many steps is one lfilter call, and a
# pass this long runs its residual law as lfilter calls.  A call costs about
# 11 us at short lengths; a pass costs 0.8 us a point in the loops and 60-65
# us through lfilter up to 80 points, and the two cross at 64-80 points
_LOOP_PASS = 64


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
    """What a :func:`run_filter` pass carries to the next one: the level
    kernel's ``delays`` (the posterior level for a local level; the next
    predicted level and minus the posterior level for a trend), the posterior
    covariance, and the forgetting sums of weight, residuals and squares."""

    delays: tuple
    P_post: np.ndarray
    w_sum: float = 0.0
    eta_sum: float = 0.0
    s_accum: float = 0.0

    @classmethod
    def initial(cls, model: StateSpaceModel) -> "FilterState":
        x = model.x0.tolist()
        return cls(delays=tuple(x) if model.state_dim == 1 else (x[0] + x[1], -x[0]), P_post=model.P0.copy())

    @property
    def eta_mean(self) -> float:
        return self.eta_sum / self.w_sum if self.w_sum else 0.0

    @property
    def eta_var(self) -> float:
        return self.s_accum / self.w_sum if self.w_sum else 0.0

    def to_dict(self) -> dict:
        return {"delays": list(self.delays), "P_post": self.P_post.tolist(), "w_sum": self.w_sum,
                "eta_sum": self.eta_sum, "s_accum": self.s_accum}

    @classmethod
    def from_dict(cls, data: dict) -> "FilterState":
        """Reads the named keys only, so a stored state with more keys loads
        too.  A state stored as the posterior ``x_post`` and the residual
        mean ``eta_mean`` converts once to the delays and the residual sum."""
        if "delays" in data:
            delays, eta_sum = tuple(map(float, data["delays"])), float(data["eta_sum"])
        else:
            x = [float(v) for v in data["x_post"]]
            delays = (x[0],) if len(x) == 1 else (x[0] + x[1], -x[0])
            eta_sum = float(data["eta_mean"]) * float(data["w_sum"])
        return cls(delays=delays, P_post=np.asarray(data["P_post"], dtype=float),
                   w_sum=float(data["w_sum"]), eta_sum=eta_sum, s_accum=float(data["s_accum"]))


def _gains(model: StateSpaceModel, P: np.ndarray, n: int) -> tuple:
    """The covariance half of the Kalman recursion: ``n`` >= 1 steps from
    the posterior covariance ``P``.  It never reads the observations.

    Returns an entry per step run, then the last posterior covariance.  An
    entry is the innovation variance s, the level gain k0 and the level
    kernel's coefficients: (s, k0, b1, a1) of b = [0, k0], a = [1, k0 - 1]
    for a local level, (s, k0, b1, b2, a1, a2) of b = [0, k0 + k1, -k0],
    a = [1, k0 + k1 - 2, 1 - k0] for a trend.  The covariance converges to
    the Riccati fixed point (Anderson & Moore 1979, ch. 4).  Once a step's
    posterior covariance equals the one it started from bit for bit, every
    later step repeats its entry, so the recursion stops and fewer than
    ``n`` entries come back.  About one model in fifteen ends in a rounding
    cycle of two to four covariances instead, and runs to the end.
    """
    r, steps = model.R, []
    if model.state_dim == 1:
        q, p = model.Q.item(), P.item()
        for _ in range(n):
            pp = p + q
            s = pp + r
            if s <= 0.0:
                raise NumericalBreakdown(f"innovation variance {s} <= 0")
            k0 = pp / s
            steps.append((s, k0, k0, k0 - 1.0))
            p, before = (1.0 - k0) * pp, p
            if p == before:
                break
        return steps, np.array([[p]])
    (q00, q11), ((p00, p01), (_, p11)) = model.Q.diagonal().tolist(), P.tolist()
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
        c = 1.0 - k0
        steps.append((s, k0, k0 + k1, -k0, k0 + k1 - 2.0, c))
        b00, b01, b11 = p00, p01, p11
        p00 = c * pp00
        p01 = c * pp01
        p11 = pp11 - k1 * pp01
        if p00 == b00 and p01 == b01 and p11 == b11:
            break
    return steps, np.array([[p00, p01], [p01, p11]])


def _level_loop(steps: list, points: list, delays: tuple) -> tuple:
    """The level kernel one step at a time, each step with its own entry of
    :func:`_gains`, in ``lfilter``'s transposed direct form II and order:
    y = z0 + b0 x, z0 = z1 + x b1 - y a1, z1 = x b2 - y a2.  A run at held
    gains gives the bits of ``lfilter(b, a, points, zi=delays)``."""
    level = []
    if len(delays) == 1:
        (z0,) = delays
        for x, (_, _, b1, a1) in zip(points, steps):
            y = z0 + 0.0 * x
            z0 = x * b1 - y * a1
            level.append(y)
        return level, (z0,)
    z0, z1 = delays
    for x, (_, _, b1, b2, a1, a2) in zip(points, steps):
        y = z0 + 0.0 * x
        z0 = z1 + x * b1 - y * a1
        z1 = x * b2 - y * a2
        level.append(y)
    return level, (z0, z1)


def _level_pass(model: StateSpaceModel, state: FilterState, values: np.ndarray) -> tuple:
    """The state half of a pass over ``values``, at least one: the entries
    of :func:`_gains`, each step's predicted level (a list if the pass stays
    in the loop, an array otherwise), and the new delays and posterior
    covariance.  Past the covariance fixed point the gains are held and the
    kernel is exponential smoothing for the local level, Holt's method for
    the trend (Harvey 1989, sec. 3.3.4).  A held run of at least
    ``_LOOP_PASS`` steps is one ``lfilter`` call; the rest goes through
    :func:`_level_loop` with the same bits."""
    n = values.size
    steps, P_post = _gains(model, state.P_post, n)
    head = len(steps) if n - len(steps) >= _LOOP_PASS else n
    held = steps + steps[-1:] * (head - len(steps))
    level, delays = _level_loop(held, values[:head].tolist(), state.delays)
    if head == n:
        return steps, level, delays, P_post
    ba = steps[-1][2:]
    order = len(ba) // 2
    tail, zf = lfilter([0.0, *ba[:order]], [1.0, *ba[order:]], values[head:], zi=delays)
    return steps, np.concatenate([level, tail]), tuple(zf.tolist()), P_post


def _law_loop(lam: float, sums: tuple, gains: list, points: list, level: list) -> tuple:
    """The residual law one step at a time: each level residual eta = k0 (x -
    level) is scored against the mean and variance of the sums before it,
    then absorbed as w = lam w + 1, eta_sum = lam eta_sum + eta and s = lam s
    + lam w_prev / w delta^2.  Returns what :func:`_law_filter` returns."""
    w, total, s = sums
    mean, var = (total / w, s / w) if w else (0.0, 0.0)
    probs, sqrt, floor = [], math.sqrt, _ETA_VAR_FLOOR
    for k0, x, y in zip(gains, points, level):
        e = k0 * (x - y)
        d = e - mean
        probs.append(gaussian_anomaly_probability(d, sqrt(var if var > floor else floor)))
        w_prev, w = w, lam * w + 1.0
        total = lam * total + e
        s = lam * s + lam * w_prev / w * d * d
        mean, var = total / w, s / w
    return probs, (w, total, s)


def _law_filter(lam: float, sums: tuple, eta: np.ndarray) -> tuple:
    """:func:`_law_loop` as three first-order linear filters with the
    forgetting factor as their pole: ``lfilter([1], [1, -lam], x,
    zi=[lam * prev])`` sums lam * prev + x in the loop's order."""
    w0, total0, s0 = sums
    pole = [1.0, -lam]
    (w, total), _ = lfilter([1.0], pole, [np.ones(eta.size), eta], zi=[[lam * w0], [lam * total0]])
    w_prev = np.concatenate([[w0], w[:-1]])
    mean = np.concatenate([[total0 / w0 if w0 else 0.0], total[:-1] / w[:-1]])
    d = eta - mean
    s, _ = lfilter([1.0], pole, lam * w_prev / w * d * d, zi=[lam * s0])
    var = np.concatenate([[s0 / w0 if w0 else 0.0], s[:-1] / w[:-1]])
    probs = gaussian_anomaly_probability(d, np.sqrt(np.maximum(var, _ETA_VAR_FLOOR)))
    return probs, (float(w[-1]), float(total[-1]), float(s[-1]))


def run_filter(
    model: StateSpaceModel, values: np.ndarray, state: Optional[FilterState] = None
) -> tuple[np.ndarray, FilterState, np.ndarray]:
    """The one filter pass, for training, tuning and scoring: per-step
    anomaly probabilities, the final state and each step's predicted level
    (on the model's scale).

    Each observation is scored against the residual law before it is
    absorbed.  The loops and the ``lfilter`` calls do the same arithmetic
    in the same order, so a sequence split into consecutive passes anywhere
    gives the bits of one pass.  An empty pass returns the state unchanged.
    Raises ValueError on a non-finite observation before filtering any.
    """
    if state is None:
        state = FilterState.initial(model)
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("observations must be finite")
    if not values.size:
        return np.empty(0), state, np.empty(0)
    steps, level, delays, P_post = _level_pass(model, state, values)
    n, lam, sums = values.size, model.forgetting, (state.w_sum, state.eta_sum, state.s_accum)
    gains = [g[1] for g in steps]  # each step's k0, the last one held past them
    if n < _LOOP_PASS:
        probs, sums = _law_loop(lam, sums, gains + gains[-1:] * (n - len(gains)), values.tolist(), level)
    else:
        eta = np.concatenate([gains, np.full(n - len(gains), gains[-1])]) * (values - level)
        probs, sums = _law_filter(lam, sums, eta)
    return np.asarray(probs), FilterState(delays, P_post, *sums), np.asarray(level)


def _noise_model(state_dim: int, q: float, r: float, x0: np.ndarray, p0: float, **kw) -> StateSpaceModel:
    """Local level, or local linear trend with slope noise two orders below level noise."""
    if state_dim == 1:
        return StateSpaceModel.local_level(q=q, r=r, x0=float(x0[0]), p0=p0, **kw)
    return StateSpaceModel.local_linear_trend(q_level=q, q_slope=q * 0.01, r=r, x0=x0, p0=p0, **kw)


def _concentrated_likelihood(values: np.ndarray, model: StateSpaceModel):
    """Prediction-error likelihood of a model with R = 1, R concentrated out.

    The innovations come from the level kernel of :func:`_level_pass`, from
    the model's initial state.  Past the covariance fixed point log(s) is
    one constant, so its sum there is a product.
    """
    n = values.size
    steps, level, _, _ = _level_pass(model, FilterState.initial(model), values)
    nu = values - level
    s = [g[0] for g in steps]
    sum_ratio = float(np.sum(nu[:len(s)] ** 2 / s) + np.sum(nu[len(s):] ** 2) / s[-1])
    log_s = list(map(math.log, s))
    sum_log_s = math.fsum(log_s) + (n - len(steps)) * log_s[-1]
    r_hat = max(sum_ratio / n, _R_FLOOR)
    loglik = -0.5 * (sum_log_s + n * math.log(r_hat) + n)
    return loglik, r_hat


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
    likelihood analytically.  Each of the 11 passes runs the covariance
    recursion only until its fixed point, a few to a few hundred steps,
    and the level kernel of :func:`_level_pass` over the values.  The
    result depends only on the values and the state size, never on the
    forgetting factor.
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
    The training pass is :func:`run_filter` from the model's initial
    state, so scoring on from the final state gives the bits of one pass
    over the training and the new values.

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

    y, offset = fit_scale(ts, config.log_scale)
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
    probs, state, _ = run_filter(model, y)
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
        update scores y by its level residual gain0 * (y - level), with the
        first delay as the level, against the residual law (mean, sd): so
        center level + mean / gain0 and scale sd / gain0."""
        state = self._state
        [(_, gain0, *_)], _ = _gains(self.model, state.P_post, 1)
        sd = math.sqrt(max(state.eta_var, _ETA_VAR_FLOOR))
        return state.delays[0] + state.eta_mean / gain0, sd / gain0

    def state(self) -> dict:
        return self._state.to_dict()
