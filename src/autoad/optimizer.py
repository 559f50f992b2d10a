"""Configuration search: synthetic labels, the combined cost, and TPE.

Labels are manufactured by perturbing a smoothed copy of the series at
random points and scales, the candidate configuration is trained against
the labeled series, and its cost combines anomaly cross-entropy with
holdout forecasting error (structural method) or is the cross-entropy
alone (filtering method).  A tree-structured Parzen estimator searches
the configuration space; invalid configurations surface as infinite cost
rather than exceptions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .errors import AutoAdError, RateTooHigh
from .evaluation import Detector
from .filtering import FilterDetector, FilterState, StateSpaceModel, fit_filtering, scan_ratio
from .profiling import DataProfile, profile as profile_series
from .series import TimeSeries, impute, smooth
from .stats import mad_std
from .structural import StructuralDetector, StructuralModel, fit_structural, in_sample_probabilities

PROB_CLIP = 1e-6
WARMUP_POINTS = 10  # first points excluded from injection and cross-entropy
HOLDOUT_FRACTION = 0.2
DEFAULT_SCALES = (3.0, 5.0, 8.0)
DEFAULT_RATE = 0.05
SMOOTH_WINDOW = 5  # rolling median applied before injection
GAMMA = 0.25  # share of trials the TPE counts as good
N_EI = 24  # TPE candidates drawn per trial
MIN_BUDGET = 10  # fewest trials a tune runs


# -- configuration record ----------------------------------------------------


#: Each family's own fields, in stored order, with their defaults; a
#: configuration's fields of the other family are None.
FAMILY_DEFAULTS = {
    "structural": {"p": 1, "q": 0, "l": 0},
    "filtering": {"state_dim": 1, "forgetting": 0.99},
}
_SHARED = ("method", "truncate_at", "max_missing_fraction", "log_scale", "decision_threshold")


@dataclass(frozen=True)
class ModelConfig:
    """One point of the tunable configuration space: its fields are the
    dimensions :func:`tune` samples, under the same names."""

    method: str = "structural"
    truncate_at: Optional[int] = None
    max_missing_fraction: float = 0.3
    log_scale: bool = False
    decision_threshold: float = 0.95
    p: Optional[int] = None
    q: Optional[int] = None
    l: Optional[int] = None
    state_dim: Optional[int] = None
    forgetting: Optional[float] = None

    def __post_init__(self):
        if self.method not in FAMILY_DEFAULTS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.max_missing_fraction <= 1.0:
            raise ValueError("max_missing_fraction must lie in [0, 1]")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError("decision_threshold must lie in (0, 1)")
        for family, defaults in FAMILY_DEFAULTS.items():
            for name, default in defaults.items():
                if family == self.method:
                    if getattr(self, name) is None:
                        object.__setattr__(self, name, default)
                elif getattr(self, name) is not None:
                    raise ValueError(f"a {self.method} config must not set {name}")
        if self.method == "structural":
            if not (0 <= self.p <= 3 and 0 <= self.q <= 3 and self.l >= 0):
                raise ValueError("structural orders out of range")
        elif self.state_dim not in (1, 2):
            raise ValueError("state_dim must be 1 or 2")
        elif not 0.9 <= self.forgetting <= 0.9999:
            raise ValueError("forgetting must lie in [0.9, 0.9999]")

    def to_dict(self) -> dict:
        """The stored form: the shared fields, then ``<method>_params``
        holding the family's own."""
        data = {name: getattr(self, name) for name in _SHARED}
        data[f"{self.method}_params"] = {name: getattr(self, name) for name in FAMILY_DEFAULTS[self.method]}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**{name: data[name] for name in _SHARED}, **data[f"{data['method']}_params"])


def fit_detector(
    ts: TimeSeries,
    prof: Optional[DataProfile],
    config: ModelConfig,
    memo: Optional[dict] = None,
    horizon: int = 0,
    ratio: Optional[float] = None,
) -> tuple[Detector, np.ndarray]:
    """Fit the model family ``config.method`` names, with that family's
    fields of ``config``, on an imputed series.

    Returns the detector, set to score the ``horizon`` steps after the
    end of ``ts``, and the anomaly probability of each training point.
    Every detector has these five members, and the engine reads no more:

    - ``score(steps, values) -> (probs, expected)`` scores raw values and
      gives the expected raw values; ``steps`` counts from the end of
      training, from 0, and a detector that advances a live state ignores it;
    - ``predictive(step) -> (center, scale)`` is the Gaussian that
      ``score`` would judge the value at ``step`` by, on the model's
      scale; it changes nothing;
    - ``level_set_volume(us, step, domain)`` are the lengths in
      ``domain`` of the raw values' level sets at ``step``;
    - ``state()`` is the live state to store (a filter's; None for a
      structural detector), which :func:`load_detector` takes back;
    - ``model`` is the fitted model; its ``to_dict()`` is the stored payload.

    Only a structural fit reads ``prof``, the profile of ``ts``.  ``memo``
    (see :func:`tune`) and ``ratio``, the filter's q/r ratio to keep (None
    scans for it), are handed to :func:`~autoad.filtering.fit_filtering`.
    """
    if config.method == "structural":
        model = fit_structural(ts, prof, config)
        return StructuralDetector(model, horizon), in_sample_probabilities(model)
    model, state, probs = fit_filtering(ts, config, memo, ratio)
    return FilterDetector(model, state), probs


def train_detector(window: TimeSeries, config: ModelConfig, horizon: int, prof: Optional[DataProfile] = None,
                   refits: Optional[dict] = None) -> tuple[Detector, ModelConfig, Optional[str]]:
    """The detector a training publishes, set to score ``horizon`` steps:
    fitted on the raw ``window`` imputed within ``config.max_missing_fraction``
    and cut at ``config.truncate_at`` where over 30 points remain.  A
    structural fit profiles the window unless given ``prof``.  Given
    ``refits``, the stored payload of the model whose config this fit
    reuses, a filter keeps its noise ratio.  A failed structural fit falls
    back to a filter, which scans for its ratio.  Returns the detector, the
    config it fitted and why it fell back (None if it did not).
    """
    if config.method == "structural" and prof is None:
        prof = profile_series(window)
    kept = StateSpaceModel.from_dict(refits) if refits and refits["method"] == "filtering" else None
    ratio = None if kept is None else scan_ratio(kept.q[0], kept.R)
    ts = impute(window, config.max_missing_fraction)
    if config.truncate_at is not None and 0 < config.truncate_at < len(ts) - 30:
        ts = ts.truncated(config.truncate_at)
    try:
        return fit_detector(ts, prof, config, horizon=horizon, ratio=ratio)[0], config, None
    except AutoAdError as exc:
        if config.method != "structural":
            raise
        config = replace(config, method="filtering", p=None, q=None, l=None)
        return fit_detector(ts, prof, config)[0], config, f"structural fit failed: {exc}"


def load_detector(payload: dict, filter_state: Optional[dict], horizon: int) -> Detector:
    """The detector of a stored model payload, and of its stored filter
    state for a filter model; it scores as the fitted one did."""
    if payload["method"] == "structural":
        return StructuralDetector(StructuralModel.from_dict(payload), horizon)
    return FilterDetector(StateSpaceModel.from_dict(payload), FilterState.from_dict(filter_state))


def default_config(profile: DataProfile, n: int) -> ModelConfig:
    """Profile-informed configuration used before any tuning has run."""
    l = 0
    for cand in range(min(len(profile.fourier_terms), 3), -1, -1):
        if n >= 10 * (1 + 0 + 2 * cand + 1):
            l = cand
            break
    if n >= 10 * (1 + 0 + 2 * l + 1):
        return ModelConfig(method="structural", log_scale=profile.log_recommended, l=l)
    return ModelConfig(method="filtering", log_scale=profile.log_recommended)


# -- synthetic labels -----------------------------------------------------------


@dataclass(frozen=True)
class LabeledSeries:
    series: TimeSeries
    labels: np.ndarray
    injected: tuple[tuple[int, float], ...]

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int8)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if labels.size != len(self.series):
            raise ValueError("labels length must match the series")


def inject_synthetic_anomalies(
    ts: TimeSeries,
    rate: float = DEFAULT_RATE,
    scales: Sequence[float] = DEFAULT_SCALES,
    seed: int = 0,
) -> LabeledSeries:
    """Perturb ceil(rate*n) points by +-scale robust-sigmas; reproducible by seed.

    The robust sigma is MAD*1.4826 of the (smoothed) input, floored at
    1e-6 of the mean magnitude for degenerate series.  The first
    WARMUP_POINTS indices are never perturbed.
    """
    if rate < 0.0 or rate > 0.1:
        raise RateTooHigh(f"injection rate must lie in [0, 0.1], got {rate}")
    if not scales:
        raise ValueError("scales must be non-empty")
    n = len(ts)
    values = ts.values.copy()
    labels = np.zeros(n, dtype=np.int8)
    k = math.ceil(rate * n)
    if k == 0:
        return LabeledSeries(series=ts, labels=labels, injected=())
    if n - WARMUP_POINTS <= k:
        raise RateTooHigh(f"cannot place {k} anomalies in {n - WARMUP_POINTS} candidate points")

    sigma = mad_std(values)
    sigma = max(sigma, 1e-6 * abs(float(np.mean(values))), 1e-12)

    rng = np.random.default_rng(seed)
    idx = rng.choice(np.arange(WARMUP_POINTS, n), size=k, replace=False)
    signs = rng.choice(np.array([-1.0, 1.0]), size=k)
    chosen = rng.choice(np.asarray(scales, dtype=float), size=k)
    injected = []
    for i, sign, scale in zip(idx, signs, chosen):
        values[i] += sign * scale * sigma
        labels[i] = 1
        injected.append((int(i), float(sign * scale)))
    injected.sort()
    return LabeledSeries(
        series=ts.with_values(values), labels=labels, injected=tuple(injected)
    )


# -- cost -------------------------------------------------------------------------


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clipped to [1e-6, 1-1e-6]."""
    p = np.clip(np.asarray(probs, dtype=float), PROB_CLIP, 1.0 - PROB_CLIP)
    y = np.asarray(labels, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def mape(pred: np.ndarray, actual: np.ndarray, floor: float = 1e-8) -> float:
    """Mean absolute percentage error (as a fraction) with floored denominators."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    return float(np.mean(np.abs(pred - actual) / np.maximum(np.abs(actual), floor)))


def cost(
    config: ModelConfig,
    labeled: LabeledSeries,
    alpha: float,
    profile: DataProfile,
    memo: Optional[dict] = None,
) -> float:
    """Convex combination of anomaly cross-entropy and holdout MAPE.

    Structural configurations pay alpha*CE + (1-alpha)*MAPE; filtering
    configurations pay CE regardless of alpha.  Any training failure (or
    a series whose missing fraction exceeds the configuration allowance)
    is absorbed as +inf.  ``memo`` is handed to :func:`fit_detector`; it
    never changes the cost.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if profile.missing_fraction > config.max_missing_fraction:
        return math.inf

    series = labeled.series
    labels = labeled.labels
    if config.truncate_at is not None and config.truncate_at > 0:
        if len(series) - config.truncate_at < 40:
            return math.inf
        series = series.truncated(config.truncate_at)
        labels = labels[config.truncate_at :]
    if series.missing_mask.any():
        return math.inf

    n = len(series)
    n_train = max(int(math.floor(n * (1.0 - HOLDOUT_FRACTION))), 1)
    train = series.with_values(series.values[:n_train])
    holdout = series.values[n_train:]

    try:
        detector, train_probs = fit_detector(train, profile, config, memo, horizon=holdout.size)
        hold_probs, preds = detector.score(np.arange(holdout.size), holdout)
    except (AutoAdError, np.linalg.LinAlgError):
        return math.inf
    probs = np.concatenate([train_probs, hold_probs])
    if not np.all(np.isfinite(probs)):
        return math.inf

    ce = cross_entropy(probs[WARMUP_POINTS:], labels[WARMUP_POINTS:])
    if config.method == "filtering":
        return ce
    forecast_error = mape(preds, holdout) if holdout.size else 0.0
    total = alpha * ce + (1.0 - alpha) * forecast_error
    return total if math.isfinite(total) else math.inf


# -- tree-Parzen search ------------------------------------------------------------


@dataclass(frozen=True)
class TuneResult:
    best_config: ModelConfig
    best_cost: float
    trials: tuple[tuple[ModelConfig, float], ...]
    seed: int
    profile: DataProfile  # of the tuned series; not part of the stored log

    def to_dict(self) -> dict:
        return {
            "best_config": self.best_config.to_dict(),
            "best_cost": self.best_cost,
            "seed": self.seed,
            "trials": [
                {"config": cfg.to_dict(), "cost": c} for cfg, c in self.trials
            ],
        }


#: Sampled values that never enter the cost: decision_threshold does not,
#: and max_missing_fraction only through the missing-fraction gate.
_COST_FREE = ("decision_threshold", "max_missing_fraction")


def _cost_key(row: dict, missing_fraction: float):
    """Projection of a sampled row onto the values that can influence its
    cost, so rows identical under this key share one evaluation."""
    gate_ok = missing_fraction <= row["max_missing_fraction"]
    kept = sorted((name, round(v, 12) if isinstance(v, float) else v)
                  for name, v in row.items() if name not in _COST_FREE)
    return (gate_ok, tuple(kept))


@dataclass(frozen=True)
class _CatDim:
    name: str
    choices: tuple

    def prior_sample(self, rng):
        return self.choices[int(rng.integers(len(self.choices)))]

    def density(self, observed) -> "_CatDensity":
        counts = [0.5] * len(self.choices)
        for v in observed:
            counts[self.choices.index(v)] += 1.0
        total = sum(counts)
        return _CatDensity(self.choices, [c / total for c in counts])


@dataclass(frozen=True)
class _CatDensity:
    """Category frequencies of one observation set, half a count added to each."""

    choices: tuple
    weights: list

    def __post_init__(self):
        # numpy's Generator.choice(n, p=weights) arithmetic, done once in
        # Python floats: it draws one rng.random() and bisects this
        # normalised cumulative sum, summed in order as np.cumsum does
        cdf = list(accumulate(self.weights))
        object.__setattr__(self, "_cdf", [c / cdf[-1] for c in cdf])
        object.__setattr__(self, "_log_weights", [math.log(w) for w in self.weights])

    def sample(self, rng):
        return self.choices[bisect_right(self._cdf, rng.random())]

    def log_pdf(self, values) -> list:
        return [self._log_weights[self.choices.index(v)] for v in values]


@dataclass(frozen=True)
class _FloatDim:
    name: str
    lo: float
    hi: float

    def prior_sample(self, rng):
        return float(rng.uniform(self.lo, self.hi))

    def density(self, observed) -> "_FloatDensity":
        span = self.hi - self.lo
        if len(observed) < 2:
            bw = span / 4.0
        else:
            sd = float(np.std(observed))
            bw = max(1.06 * sd * len(observed) ** -0.2, span / 50.0)
        return _FloatDensity(self, np.asarray(observed, dtype=float), bw)


@dataclass(frozen=True)
class _FloatDensity:
    """Gaussian kernels of bandwidth ``bw`` on one observation set, mixed
    with the dimension's uniform prior as one more component."""

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

    def log_pdf(self, values) -> list:
        span = self.dim.hi - self.dim.lo
        if not self.xs.size:
            return [-math.log(span)] * len(values)
        bw = self.bw
        x = np.asarray(values, dtype=float)[:, None]
        kernel = np.exp(-0.5 * ((x - self.xs) / bw) ** 2) / (bw * math.sqrt(2 * math.pi))
        dens = (kernel.sum(axis=1) + 1.0 / span) / (self.xs.size + 1.0)
        # math.log, not np.log, whose vector loop may differ from libm in the last bit
        return [math.log(d) for d in np.maximum(dens, 1e-300).tolist()]


def _densities(dims: list, rows: list[dict], method: Optional[str] = None) -> list:
    """Each dimension's density over the rows (of ``method`` only, if given) that carry it."""
    return [
        dim.density([
            row[dim.name] for row in rows
            if dim.name in row and (method is None or row["method"] == method)
        ])
        for dim in dims
    ]


def _build_space(prof: DataProfile, n: int):
    truncate_choices = (None,) + tuple(
        cp for cp in prof.change_points if n - cp >= 40
    )
    l_avail = min(len(prof.fourier_terms), 3)
    shared = [
        _CatDim("log_scale", (False, True)),
        _CatDim("truncate_at", truncate_choices),
        _FloatDim("max_missing_fraction", 0.0, 1.0),
        _FloatDim("decision_threshold", 0.5, 0.999),
    ]
    method = _CatDim("method", ("structural", "filtering"))
    structural = [
        _CatDim("p", (0, 1, 2, 3)),
        _CatDim("q", (0, 1, 2, 3)),
        _CatDim("l", tuple(range(l_avail + 1))),
    ]
    filtering = [
        _CatDim("state_dim", (1, 2)),
        _FloatDim("forgetting", 0.9, 0.9999),
    ]
    return method, shared, structural, filtering


def _sample_prior(rng, method, shared, structural, filtering) -> dict:
    values = {dim.name: dim.prior_sample(rng) for dim in shared}
    values["method"] = method.prior_sample(rng)
    branch = structural if values["method"] == "structural" else filtering
    for dim in branch:
        values[dim.name] = dim.prior_sample(rng)
    return values


def _ranked_candidates(rng, method, shared, structural, filtering, rows: list[dict],
                       costs: list[float]) -> list[tuple[float, dict]]:
    """N_EI candidates drawn from the good densities with their good/bad log
    density ratios, best first (a stable sort).  A category is drawn by
    bisecting its density's cumulative list, as ``Generator.choice`` draws
    it; each density scores every candidate that carries its dimension in
    one call, and a candidate's terms add up in the order, and so with the
    bits, of scoring it alone."""
    order = np.argsort(np.asarray(costs), kind="stable")
    n_good = max(1, math.ceil(GAMMA * len(costs)))
    good_rows = [rows[j] for j in order[:n_good]]
    bad_rows = [rows[j] for j in order[n_good:]]

    good_method = method.density([row["method"] for row in good_rows])
    bad_method = method.density([row["method"] for row in bad_rows])
    good_shared, bad_shared = _densities(shared, good_rows), _densities(shared, bad_rows)
    branches = {
        name: (dims, _densities(dims, good_rows, name), _densities(dims, bad_rows, name))
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
    score = [g - b for g, b in zip(good_method.log_pdf(methods), bad_method.log_pdf(methods))]
    for dim, good, bad in zip(shared, good_shared, bad_shared):
        values = [cand[dim.name] for cand in cands]
        score = [s + (g - b) for s, g, b in zip(score, good.log_pdf(values), bad.log_pdf(values))]
    for name, (branch, good_branch, bad_branch) in branches.items():
        idx = [i for i, m in enumerate(methods) if m == name]
        for dim, good, bad in zip(branch, good_branch, bad_branch):
            values = [cands[i][dim.name] for i in idx]
            for i, g, b in zip(idx, good.log_pdf(values), bad.log_pdf(values)):
                score[i] = score[i] + g - b
    return [(score[i], cands[i]) for i in sorted(range(N_EI), key=lambda i: -score[i])]


def prepare_labeled(ts: TimeSeries, seed: int) -> tuple[LabeledSeries, DataProfile]:
    """Impute, smooth and inject: the shared front half of every tuning run."""
    prof = profile_series(ts)
    clean = impute(ts, max_gap_fraction=1.0)
    window = min(SMOOTH_WINDOW, len(clean) if len(clean) % 2 == 1 else len(clean) - 1)
    smoothed = smooth(clean, max(1, window))
    labeled = inject_synthetic_anomalies(smoothed, seed=seed)
    return labeled, prof


def tune(
    ts: TimeSeries,
    budget: int = 40,
    alpha: float = 0.5,
    seed: int = 0,
    n_startup: Optional[int] = None,
) -> TuneResult:
    """Tree-Parzen search over the configuration space.

    The first ``n_startup`` (default budget//4) trials sample the prior;
    afterwards observed trials are split at the GAMMA cost quantile,
    each dimension is density-modeled within the good and bad sets, and
    the best of N_EI candidates by good/bad density ratio whose cost is not
    yet known is evaluated (:func:`_ranked_candidates`).  Deterministic
    given the seed.

    Filtering trials whose training values (after truncation and the log
    transform) and state size are the same share one memo entry, kept for
    this call only: the noise scan and the state half of the training
    pass, which the forgetting factor, what tells them apart, never enters
    (:func:`~autoad.filtering.fit_filtering`).
    """
    if budget < MIN_BUDGET:
        raise ValueError(f"budget must be at least {MIN_BUDGET}")
    labeled, prof = prepare_labeled(ts, seed=seed)
    if n_startup is None:
        n_startup = max(1, budget // 4)

    method, shared, structural, filtering = _build_space(prof, len(labeled.series))
    rng = np.random.default_rng(seed)

    trials: list[tuple[ModelConfig, float]] = []
    rows: list[dict] = []  # each trial's sampled values
    costs: list[float] = []
    cache: dict[tuple, float] = {}
    memo: dict = {}  # filter work the trials of this call share; see fit_filtering
    missing_fraction = prof.missing_fraction

    for i in range(budget):
        if i < n_startup or len(trials) < 2:
            row = _sample_prior(rng, method, shared, structural, filtering)
        else:
            ranked = _ranked_candidates(rng, method, shared, structural, filtering, rows, costs)
            # prefer the best not-yet-evaluated candidate: the cost is
            # deterministic, so re-evaluating a known configuration is a wasted trial
            row = next((cand for _, cand in ranked
                        if _cost_key(cand, missing_fraction) not in cache), ranked[0][1])
        config = ModelConfig(**row)
        key = _cost_key(row, missing_fraction)
        c = cache.get(key)
        if c is None:
            c = cost(config, labeled, alpha, profile=prof, memo=memo)
            cache[key] = c
        trials.append((config, c))
        rows.append(row)
        costs.append(c)

    best_idx = int(np.argmin(np.where(np.isfinite(costs), costs, math.inf)))
    return TuneResult(
        best_config=trials[best_idx][0],
        best_cost=costs[best_idx],
        trials=tuple(trials),
        seed=seed,
        profile=prof,
    )


def random_search(ts: TimeSeries, budget: int = 40, alpha: float = 0.5, seed: int = 0) -> TuneResult:
    """Pure prior sampling with the same seed stream as the TPE startup phase."""
    return tune(ts, budget=budget, alpha=alpha, seed=seed, n_startup=budget)
