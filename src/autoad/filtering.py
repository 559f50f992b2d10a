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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.signal import lfilter

from .evaluation import Detector
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
# the noise scan's q/r ratios: a coarse grid, then steps around its best
_COARSE_RATIOS = np.logspace(-3.0, 3.0, 7)
_FINE_STEPS = np.logspace(-0.5, 0.5, 5)
# every ratio the scan can pick, ascending: 31 distinct products
SCAN_RATIOS = tuple(sorted({float(c * f) for c in _COARSE_RATIOS for f in _FINE_STEPS}))


def _matrix(upper) -> list:
    """The symmetric matrix [[a]] or [[a, b], [b, c]] of ``upper``, (a,) or (a, b, c), as nested lists."""
    return [[upper[0]]] if len(upper) == 1 else [[upper[0], upper[1]], [upper[1], upper[2]]]


def _diagonal(d) -> tuple:
    """The upper triangle of the diagonal matrix of ``d``."""
    return (d[0],) if len(d) == 1 else (d[0], 0.0, d[1])


@dataclass(frozen=True)
class StateSpaceModel:
    """Canonical local-level / local-linear-trend state space.

    One state is a random-walk level; two add a random-walk slope that feeds
    it.  ``q`` holds each state's noise variance and ``p0`` the initial
    covariance p0·I; :meth:`to_dict` writes the matrices Q and P0.
    """

    q: tuple
    R: float
    x0: tuple
    p0: float
    forgetting: float = 0.99
    log_scale: bool = False
    log_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(map(float, self.q)))
        object.__setattr__(self, "x0", tuple(map(float, self.x0)))
        if len(self.q) not in (1, 2) or len(self.x0) != len(self.q):
            raise ValueError("q and x0 must have the same length, 1 or 2")
        if not min(self.q) >= 0.0:
            raise ValueError("q must be non-negative")
        if not self.R > 0:
            raise ValueError("R must be positive")
        if not 0.0 <= self.p0 < math.inf:
            raise ValueError("p0 must be non-negative and finite")

    @property
    def state_dim(self) -> int:
        return len(self.q)

    @classmethod
    def local_level(cls, q: float, r: float, x0: float = 0.0, p0: float = 1.0, **kw):
        return cls(q=(q,), R=r, x0=(x0,), p0=p0, **kw)

    @classmethod
    def local_linear_trend(cls, q_level: float, q_slope: float, r: float, x0=(0.0, 0.0), p0: float = 1.0, **kw):
        return cls(q=(q_level, q_slope), R=r, x0=x0, p0=p0, **kw)

    def to_dict(self) -> dict:
        return {
            "method": "filtering",
            "state_dim": self.state_dim,
            "Q": _matrix(_diagonal(self.q)),
            "R": self.R,
            "x0": list(self.x0),
            "P0": _matrix(_diagonal((self.p0,) * self.state_dim)),
            "forgetting": self.forgetting,
            "log_scale": self.log_scale,
            "log_offset": self.log_offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StateSpaceModel":
        """The model :meth:`to_dict` wrote; refuses a Q or P0 that no model holds."""
        Q, P0 = data["Q"], data["P0"]
        q, p0 = [row[i] for i, row in enumerate(Q)], P0[0][0]
        if len(q) != data["state_dim"] or Q != _matrix(_diagonal(q)) or P0 != _matrix(_diagonal([p0] * len(q))):
            raise ValueError("a stored Q must be diagonal and P0 a multiple of the identity")
        return cls(q=q, R=float(data["R"]), x0=data["x0"], p0=float(p0),
                   forgetting=float(data["forgetting"]), log_scale=bool(data["log_scale"]),
                   log_offset=float(data["log_offset"]))


@dataclass(frozen=True)
class FilterState:
    """What a :func:`run_filter` pass carries to the next one: the level
    kernel's ``delays`` (the posterior level for a local level; the next
    predicted level and minus the posterior level for a trend), the
    posterior covariance's entries ``P_post``, (p,) or (p00, p01, p11), and
    the forgetting sums of weight, residuals and squares."""

    delays: tuple
    P_post: tuple
    w_sum: float = 0.0
    eta_sum: float = 0.0
    s_accum: float = 0.0

    @classmethod
    def initial(cls, model: StateSpaceModel) -> "FilterState":
        x = model.x0
        return cls(delays=x if len(x) == 1 else (x[0] + x[1], -x[0]), P_post=_diagonal((model.p0,) * len(x)))

    @property
    def eta_mean(self) -> float:
        return self.eta_sum / self.w_sum if self.w_sum else 0.0

    @property
    def eta_var(self) -> float:
        return self.s_accum / self.w_sum if self.w_sum else 0.0

    def to_dict(self) -> dict:
        return {"delays": list(self.delays), "P_post": _matrix(self.P_post), "w_sum": self.w_sum,
                "eta_sum": self.eta_sum, "s_accum": self.s_accum}

    @classmethod
    def from_dict(cls, data: dict) -> "FilterState":
        """The state :meth:`to_dict` wrote."""
        return cls(delays=tuple(map(float, data["delays"])),
                   P_post=tuple(float(v) for i, row in enumerate(data["P_post"]) for v in row[i:]),
                   w_sum=float(data["w_sum"]), eta_sum=float(data["eta_sum"]), s_accum=float(data["s_accum"]))


def _head(model: StateSpaceModel, P: tuple, delays: tuple, values: np.ndarray) -> tuple:
    """The covariance recursion and the level kernel in one loop over
    ``values``, from the posterior covariance's entries ``P``.  Each step
    appends its entry, the innovation variance s, the level gain k0 and the
    kernel's coefficients ((s, k0, b1, a1) of b = [0, k0], a = [1, k0 - 1]
    for a local level, (s, k0, b1, b2, a1, a2) of b = [0, k0 + k1, -k0],
    a = [1, k0 + k1 - 2, 1 - k0] for a trend), and steps the kernel as
    :func:`_level_loop` does.  The covariance converges to the Riccati
    fixed point (Anderson & Moore 1979, ch. 4): once a step's posterior
    covariance equals the one it started from bit for bit, every later step
    repeats its entry, and the loop stops.  About one model in fifteen ends
    in a rounding cycle of two to four covariances instead, and runs to the
    end.  Returns the steps' entries, the levels, the delays and the last
    posterior covariance, in the form of ``P``.
    """
    # a memoryview gives the loop its points as floats one at a time: the
    # loop mostly stops within a few hundred points of a pass of thousands,
    # and ndarray.tolist() would convert them all first
    r, steps, level = model.R, [], []
    entry, predicted = steps.append, level.append
    if model.state_dim == 1:
        (q,), (p,), (z0,) = model.q, P, delays
        for x in memoryview(values):
            pp = p + q
            s = pp + r
            if s <= 0.0:
                raise NumericalBreakdown(f"innovation variance {s} <= 0")
            k0 = pp / s
            a1 = k0 - 1.0
            y = z0 + 0.0 * x
            z0 = x * k0 - y * a1
            predicted(y)
            entry((s, k0, k0, a1))
            p, before = (1.0 - k0) * pp, p
            if p == before:
                break
        return steps, level, (z0,), (p,)
    (q00, q11), (p00, p01, p11), (z0, z1) = model.q, P, delays
    for x in memoryview(values):
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
        b1 = k0 + k1
        a1 = b1 - 2.0
        y = z0 + 0.0 * x
        z0 = z1 + x * b1 - y * a1
        z1 = x * -k0 - y * c
        predicted(y)
        entry((s, k0, b1, -k0, a1, c))
        b00, b01, b11 = p00, p01, p11
        p00 = c * pp00
        p01 = c * pp01
        p11 = pp11 - k1 * pp01
        if p00 == b00 and p01 == b01 and p11 == b11:
            break
    return steps, level, (z0, z1), (p00, p01, p11)


def _level_loop(steps: list, points: list, delays: tuple) -> tuple:
    """The level kernel one step at a time, each step with its own entry of
    :func:`_head`, in ``lfilter``'s transposed direct form II and order:
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
    """The state half of a pass over ``values``, at least one, which never
    reads the forgetting factor: the entries of :func:`_head`, each step's
    predicted level (a list if the pass stays in the loop, an array
    otherwise), and the new delays and posterior covariance's entries.
    Past the covariance fixed point the gains are held and the kernel is
    exponential smoothing for the local level, Holt's method for the trend
    (Harvey 1989, sec. 3.3.4).  A held run of at least ``_LOOP_PASS`` steps is one
    ``lfilter`` call; a shorter one goes through :func:`_level_loop` with
    the same bits."""
    n = values.size
    steps, level, delays, P_post = _head(model, state.P_post, state.delays, values)
    rest = n - len(steps)
    if not rest:
        return steps, level, delays, P_post
    if rest < _LOOP_PASS:
        more, delays = _level_loop(steps[-1:] * rest, values[n - rest:].tolist(), delays)
        return steps, level + more, delays, P_post
    ba = steps[-1][2:]
    order = len(ba) // 2
    tail, zf = lfilter([0.0, *ba[:order]], [1.0, *ba[order:]], values[n - rest:], zi=delays)
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
    return _law_pass(model, state, values, _level_pass(model, state, values))


def _law_pass(model: StateSpaceModel, state: FilterState, values: np.ndarray, level_pass: tuple) -> tuple:
    """What :func:`run_filter` returns, from its state half ``level_pass``
    (what :func:`_level_pass` returns for the same model, state and values):
    the residual law under the model's forgetting factor."""
    steps, level, delays, P_post = level_pass
    n, lam, sums = values.size, model.forgetting, (state.w_sum, state.eta_sum, state.s_accum)
    gains = [g[1] for g in steps]  # each step's k0, the last one held past them
    if n < _LOOP_PASS:
        probs, sums = _law_loop(lam, sums, gains + gains[-1:] * (n - len(gains)), values.tolist(), level)
    else:
        eta = np.concatenate([gains, np.full(n - len(gains), gains[-1])]) * (values - level)
        probs, sums = _law_filter(lam, sums, eta)
    return np.asarray(probs), FilterState(delays, P_post, *sums), np.asarray(level)


def _noise_model(state_dim: int, q: float, r: float, x0, p0: float, **kw) -> StateSpaceModel:
    """Local level, or local linear trend with slope noise two orders below level noise."""
    return StateSpaceModel(q=(q, q * 0.01)[:state_dim], R=r, x0=x0, p0=p0, **kw)


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

    Scans the 7 ratios of ``_COARSE_RATIOS``, then the 5 of ``_FINE_STEPS``
    times the best, whose middle one is the best itself and reuses its pass;
    R is concentrated out of the likelihood analytically.  Each of the 11
    passes runs the covariance recursion only until its fixed point, a few
    to a few hundred steps, and the level kernel of :func:`_level_pass`
    over the values.  The result depends only on the values and the state
    size, never on the forgetting factor, and is always one of
    ``SCAN_RATIOS``.  Only a first fit and the tuner scan: a refit keeps
    its model's ratio (:func:`scan_ratio`).
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

    _, rho_best, _ = scan(_COARSE_RATIOS)
    _, rho_best, r_hat = scan(rho_best * _FINE_STEPS)
    return rho_best, r_hat


def scan_ratio(q: float, r: float) -> float:
    """The ratio of ``SCAN_RATIOS`` that a fitted model of level noise ``q``
    and observation noise ``r`` was built at.

    A fit builds its level noise as q = fl(rho * r), and fl(q / r) misses
    rho by a rounding about one time in ten, so the ratio is the one whose
    product with r is nearest q: the one that gives q bit for bit.  Two
    pairs of scan ratios lie a rounding apart (10^-0.5 and 10^1.5, each
    reached from either coarse neighbour); where both give the same q, the
    models are the same and the smaller ratio is kept.
    """
    return min(SCAN_RATIOS, key=lambda rho: abs(rho * r - q))


def fit_filtering(
    ts: TimeSeries, config: "ModelConfig", memo: Optional[dict] = None,
    ratio: Optional[float] = None,
) -> tuple[StateSpaceModel, FilterState, np.ndarray]:
    """Fit the noise parameters by likelihood and warm up the residual law.

    ``ratio`` is the q/r ratio to keep; None scans for it
    (:func:`_select_noise`).  Either way R is concentrated out of the
    likelihood at the ratio, so a kept ratio that the scan would pick gives
    the scan's model bit for bit, at one likelihood pass instead of 11.
    A full training pass then populates the residual statistics under the
    configured forgetting factor; its per-point anomaly probabilities are
    returned with the model and final state.  The training pass is
    :func:`run_filter` from the model's initial state, so scoring on from
    the final state gives the bits of one pass over the training and the
    new values.

    ``memo``, a dict that a caller fitting several configurations on the
    same series passes to every call, keeps per (transformed training
    values, state size) what the forgetting factor never enters: the noise
    scan's model and the state half of its training pass
    (:func:`_level_pass`).  A later call with the same pair runs only the
    residual law, with the same bits.  ``None`` keeps none, and a kept
    ratio neither reads nor fills it.
    """
    if config.method != "filtering":
        raise ValueError("config has no filtering parameters")
    n = len(ts)
    if n < 30:
        raise InsufficientData(f"filtering fit needs at least 30 points, got {n}")
    if ts.missing_mask.any():
        raise ValueError("fit_filtering requires an imputed series")

    y, offset = fit_scale(ts, config.log_scale)
    m = config.state_dim
    memo = {} if memo is None or ratio is not None else memo
    key = (y.tobytes(), m)
    if key not in memo:
        x0, p0_scale = _initial_state(y, m)
        if ratio is None:
            ratio, r_hat = _select_noise(y, m)
        else:
            _, r_hat = _concentrated_likelihood(y, _noise_model(m, ratio, 1.0, x0, p0_scale))
        r = max(r_hat, _R_FLOOR)
        noise = _noise_model(m, ratio * r, r, x0, p0_scale)
        memo[key] = noise, _level_pass(noise, FilterState.initial(noise), y)
    noise, level_pass = memo[key]
    model = replace(noise, forgetting=config.forgetting, log_scale=config.log_scale, log_offset=offset)
    probs, state, _ = _law_pass(model, FilterState.initial(model), y, level_pass)
    return model, state, probs


class FilterDetector(Detector):
    """A fitted filter model and its live filter state.

    Scoring advances the state, so consecutive batches give what one pass
    over them would.  :meth:`state` is the stored form of the live state.
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
        [(_, gain0, *_)], *_ = _head(self.model, state.P_post, state.delays, np.zeros(1))
        sd = math.sqrt(max(state.eta_var, _ETA_VAR_FLOOR))
        return state.delays[0] + state.eta_mean / gain0, sd / gain0

    def state(self) -> dict:
        return self._state.to_dict()
