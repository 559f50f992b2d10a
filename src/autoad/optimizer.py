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
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import AutoAdError, RateTooHigh
from .filtering import FilterDetector, FilterState, StateSpaceModel, fit_filtering
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


# -- configuration record ----------------------------------------------------


@dataclass(frozen=True)
class StructuralParams:
    p: int = 1
    q: int = 0
    l: int = 0

    def __post_init__(self):
        if not (0 <= self.p <= 3 and 0 <= self.q <= 3 and self.l >= 0):
            raise ValueError("structural orders out of range")


@dataclass(frozen=True)
class FilteringParams:
    state_dim: int = 1
    forgetting: float = 0.99

    def __post_init__(self):
        if self.state_dim not in (1, 2):
            raise ValueError("state_dim must be 1 or 2")
        if not 0.9 <= self.forgetting <= 0.9999:
            raise ValueError("forgetting must lie in [0.9, 0.9999]")


@dataclass(frozen=True)
class ModelConfig:
    """One point of the tunable configuration space."""

    method: str = "structural"
    truncate_at: Optional[int] = None
    max_missing_fraction: float = 0.3
    log_scale: bool = False
    structural_params: Optional[StructuralParams] = None
    filtering_params: Optional[FilteringParams] = None
    decision_threshold: float = 0.95

    def __post_init__(self):
        if self.method not in ("structural", "filtering"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.max_missing_fraction <= 1.0:
            raise ValueError("max_missing_fraction must lie in [0, 1]")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError("decision_threshold must lie in (0, 1)")
        if self.method == "structural":
            if self.structural_params is None:
                object.__setattr__(self, "structural_params", StructuralParams())
            if self.filtering_params is not None:
                raise ValueError("structural config must not carry filtering params")
        else:
            if self.filtering_params is None:
                object.__setattr__(self, "filtering_params", FilteringParams())
            if self.structural_params is not None:
                raise ValueError("filtering config must not carry structural params")

    def to_dict(self) -> dict:
        data = {
            "method": self.method,
            "truncate_at": self.truncate_at,
            "max_missing_fraction": self.max_missing_fraction,
            "log_scale": self.log_scale,
            "decision_threshold": self.decision_threshold,
        }
        if self.structural_params is not None:
            sp = self.structural_params
            data["structural_params"] = {"p": sp.p, "q": sp.q, "l": sp.l}
        if self.filtering_params is not None:
            fp = self.filtering_params
            data["filtering_params"] = {
                "state_dim": fp.state_dim,
                "forgetting": fp.forgetting,
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        sp = data.get("structural_params")
        fp = data.get("filtering_params")
        return cls(
            method=data["method"],
            truncate_at=data.get("truncate_at"),
            max_missing_fraction=float(data.get("max_missing_fraction", 0.3)),
            log_scale=bool(data.get("log_scale", False)),
            structural_params=StructuralParams(**sp) if sp else None,
            filtering_params=FilteringParams(**fp) if fp else None,
            decision_threshold=float(data.get("decision_threshold", 0.95)),
        )


Detector = Union[StructuralDetector, FilterDetector]


def fit_detector(
    ts: TimeSeries,
    prof: DataProfile,
    config: ModelConfig,
    noise_memo: Optional[dict] = None,
    horizon: int = 0,
) -> tuple[Detector, np.ndarray]:
    """Fit the configured model family on an imputed series.

    Returns the detector, set to score the ``horizon`` steps after the
    end of ``ts``, and the anomaly probability of each training point.
    Every detector has the same four members:

    - ``score(steps, values) -> (probs, expected)`` scores raw values and
      gives the expected raw values; ``steps`` counts from the end of
      training (0 is the first point after it), and a filter, which
      advances its live state instead, ignores it;
    - ``predictive(step) -> (center, scale)`` is the Gaussian that
      ``score`` would judge the value at ``step`` by, on the model's
      scale; it changes nothing, and the evaluation cycle's level sets
      are its intervals;
    - ``state()`` is the filter state to store (None for a structural
      detector), which :func:`load_detector` takes back;
    - ``model`` is the fitted model; its ``to_dict()`` is the stored payload.

    ``noise_memo`` is handed to :func:`~autoad.filtering.fit_filtering`.
    """
    if config.method == "structural":
        model = fit_structural(ts, prof, config)
        return StructuralDetector(model, horizon), in_sample_probabilities(model)
    model, state, probs = fit_filtering(ts, config, noise_memo)
    return FilterDetector(model, state), probs


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
        return ModelConfig(
            method="structural",
            log_scale=profile.log_recommended,
            structural_params=StructuralParams(p=1, q=0, l=l),
        )
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
    profile: Optional[DataProfile] = None,
    noise_memo: Optional[dict] = None,
) -> float:
    """Convex combination of anomaly cross-entropy and holdout MAPE.

    Structural configurations pay alpha*CE + (1-alpha)*MAPE; filtering
    configurations pay CE regardless of alpha.  Any training failure (or
    a series whose missing fraction exceeds the configuration allowance)
    is absorbed as +inf.  ``noise_memo`` is handed to :func:`fit_detector`;
    it never changes the cost.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    prof = profile if profile is not None else DataProfile()
    if prof.missing_fraction > config.max_missing_fraction:
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
        detector, train_probs = fit_detector(train, prof, config, noise_memo, horizon=holdout.size)
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

    def sample(self, rng):
        return self.choices[int(rng.choice(len(self.choices), p=self.weights))]

    def log_pdf(self, value):
        return math.log(self.weights[self.choices.index(value)])


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

    def log_pdf(self, value):
        span = self.dim.hi - self.dim.lo
        if not self.xs.size:
            return -math.log(span)
        bw = self.bw
        kernel = np.exp(-0.5 * ((value - self.xs) / bw) ** 2) / (bw * math.sqrt(2 * math.pi))
        dens = (kernel.sum() + 1.0 / span) / (self.xs.size + 1.0)
        return math.log(max(dens, 1e-300))


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


def _assemble(row: dict) -> ModelConfig:
    """The configuration of one sampled row."""
    shared = {name: row[name] for name in
              ("method", "truncate_at", "max_missing_fraction", "log_scale", "decision_threshold")}
    if row["method"] == "structural":
        return ModelConfig(**shared, structural_params=StructuralParams(
            p=row["p"], q=row["q"], l=row["l"]))
    return ModelConfig(**shared, filtering_params=FilteringParams(
        state_dim=row["state_dim"], forgetting=row["forgetting"]))


def _sample_prior(rng, method, shared, structural, filtering) -> dict:
    values = {dim.name: dim.prior_sample(rng) for dim in shared}
    values["method"] = method.prior_sample(rng)
    branch = structural if values["method"] == "structural" else filtering
    for dim in branch:
        values[dim.name] = dim.prior_sample(rng)
    return values


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
    the best of N_EI candidates by good/bad density ratio is
    evaluated.  Deterministic given the seed.

    Filtering trials whose training values (after truncation and the log
    transform) and state size are the same share one noise-ratio scan:
    the forgetting factor, which is what tells them apart, never enters
    it.  The scans are kept for this call only.
    """
    if budget < 10:
        raise ValueError("budget must be at least 10")
    labeled, prof = prepare_labeled(ts, seed=seed)
    if n_startup is None:
        n_startup = max(1, budget // 4)

    method, shared, structural, filtering = _build_space(prof, len(labeled.series))
    rng = np.random.default_rng(seed)

    trials: list[tuple[ModelConfig, float]] = []
    rows: list[dict] = []  # each trial's sampled values
    costs: list[float] = []
    cache: dict[tuple, float] = {}
    noise_memo: dict = {}  # filtering noise scans of this call only; see fit_filtering
    missing_fraction = prof.missing_fraction

    for i in range(budget):
        if i < n_startup or len(trials) < 2:
            row = _sample_prior(rng, method, shared, structural, filtering)
        else:
            order = np.argsort(np.asarray(costs), kind="stable")
            n_good = max(1, math.ceil(GAMMA * len(costs)))
            good_rows = [rows[j] for j in order[:n_good]]
            bad_rows = [rows[j] for j in order[n_good:]]

            # every density depends only on the good/bad split, so it is
            # built once here and shared by all N_EI candidates
            good_method = method.density([row["method"] for row in good_rows])
            bad_method = method.density([row["method"] for row in bad_rows])
            good_shared, bad_shared = _densities(shared, good_rows), _densities(shared, bad_rows)
            branches = {
                name: (dims, _densities(dims, good_rows, name), _densities(dims, bad_rows, name))
                for name, dims in (("structural", structural), ("filtering", filtering))
            }

            scored: list[tuple[float, dict]] = []
            for _ in range(N_EI):
                cand = {"method": good_method.sample(rng)}
                for dim, good in zip(shared, good_shared):
                    cand[dim.name] = good.sample(rng)
                branch, good_branch, bad_branch = branches[cand["method"]]
                for dim, good in zip(branch, good_branch):
                    cand[dim.name] = good.sample(rng)

                score = good_method.log_pdf(cand["method"]) - bad_method.log_pdf(cand["method"])
                for dim, good, bad in zip(shared, good_shared, bad_shared):
                    score += good.log_pdf(cand[dim.name]) - bad.log_pdf(cand[dim.name])
                for dim, good, bad in zip(branch, good_branch, bad_branch):
                    score += good.log_pdf(cand[dim.name])
                    score -= bad.log_pdf(cand[dim.name])
                scored.append((score, cand))
            # prefer the best not-yet-evaluated candidate: the cost is
            # deterministic, so re-evaluating a known configuration is a
            # wasted trial
            scored.sort(key=lambda sc: -sc[0])
            row = scored[0][1]
            for _, cand in scored:
                if _cost_key(cand, missing_fraction) not in cache:
                    row = cand
                    break
        config = _assemble(row)
        key = _cost_key(row, missing_fraction)
        c = cache.get(key)
        if c is None:
            c = cost(config, labeled, alpha, profile=prof, noise_memo=noise_memo)
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
    )


def random_search(ts: TimeSeries, budget: int = 40, alpha: float = 0.5, seed: int = 0) -> TuneResult:
    """Pure prior sampling with the same seed stream as the TPE startup phase."""
    return tune(ts, budget=budget, alpha=alpha, seed=seed, n_startup=budget)
