"""Unsupervised self-evaluation: score curves and health classification.

With no labels in production, detector quality is judged by where its
scoring function concentrates probability mass: Mass-Volume measures the
Lebesgue volume of score level sets at fixed mass, Excess-Mass the best
mass-minus-volume tradeoff.  Averages of both, anomaly-rate statistics
and model freshness roll up into a green/yellow/red health label per
series; red labels trigger configuration retuning.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.special import erfcinv

from .errors import EmptyScores
from .series import LOG_FLOOR
from .stats import EPS_VAR


def scoring_function(anomaly_probability):
    """Stability score s = 1 - anomaly probability (affine involution)."""
    p = np.asarray(anomaly_probability, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("anomaly probability must lie in [0, 1]")
    s = 1.0 - p
    return float(s) if s.ndim == 0 else s


_ALPHAS = np.round(np.arange(0.900, 0.9995, 0.001), 6)
_ALPHAS.flags.writeable = False


def default_alphas() -> np.ndarray:
    """Mass grid 0.900 .. 0.999 in steps of 0.001 (one shared, read-only array)."""
    return _ALPHAS


def default_em_ts(sample_scores, domain) -> np.ndarray:
    """50 log-spaced volume penalties from t_max / 1000 to t_max, t_max the
    score range over the domain length."""
    lo, hi = domain
    length = hi - lo
    if length <= 0:
        raise ValueError("domain must satisfy lo < hi")
    scores = np.asarray(sample_scores, dtype=float)
    span = float(scores.max() - scores.min()) if scores.size else 0.0
    t_max = max(span, 0.1) / length
    return np.geomspace(t_max / 1000.0, t_max, 50)


def level_set_volume(us, center: float, scale: float, domain, log_offset: Optional[float] = None) -> np.ndarray:
    """Exact Lebesgue length of {x in domain : s(x) >= u} for each u in ``us``.

    The scorer is a detector's predictive Gaussian, s(x) = erfc(|g(x) - c| /
    (h sqrt 2)) with g the identity, or with ``log_offset`` the floored log
    of :func:`~autoad.series.to_log`.  Each level set is then the interval
    g^-1([c - w, c + w]) with w = h sqrt(2) erfcinv(u): the whole domain at
    u = 0, a point at u = 1.  A scale <= 1e-12 scores every x within 1e-12
    of the center 1 and every other x 0, as
    :func:`~autoad.stats.gaussian_anomaly_probability` does.  On the log
    scale every x at or below the floor maps to log(1e-12), so the interval
    is unbounded below once c - w reaches it and empty once c + w is below
    it.
    """
    us = np.asarray(us, dtype=float)
    if np.any((us < 0) | (us > 1)):
        raise ValueError("thresholds must lie in [0, 1]")
    lo, hi = domain
    if not lo < hi:
        raise ValueError("domain must satisfy lo < hi")
    if scale <= EPS_VAR:
        width = np.where(us > 0, EPS_VAR, np.inf)
    else:
        width = scale * math.sqrt(2.0) * erfcinv(us)
    left, right = center - width, center + width
    if log_offset is not None:
        floor = math.log(LOG_FLOOR)
        with np.errstate(over="ignore"):
            right = np.where(right < floor, -np.inf, np.exp(right) - log_offset)
            left = np.where(left <= floor, -np.inf, np.exp(left) - log_offset)
    return np.maximum(np.minimum(right, hi) - np.maximum(left, lo), 0.0)


class Detector:
    """Both families' level sets, written once: ``predictive``'s, through the log where the model has one."""

    def level_set_volume(self, us, step: int, domain) -> np.ndarray:
        center, scale = self.predictive(step)
        return level_set_volume(us, center, scale, domain, self.model.log_offset if self.model.log_scale else None)


class ScoreSample:
    """A score sample sorted once, with its distinct scores.

    :func:`mv_curve` and :func:`em_curve` take one in place of the raw
    sample and sort nothing again; :meth:`shared_volume` lets both curves
    share one call of the volume over the distinct scores.
    """

    def __init__(self, sample_scores):
        self.sorted = np.sort(np.asarray(sample_scores, dtype=float))

    @cached_property
    def distinct(self) -> np.ndarray:
        return np.unique(self.sorted)

    def shared_volume(self, volume: Callable) -> Callable:
        """``volume`` called once, over the distinct scores, and a callable
        that looks up the volume of any threshold that is a sample score.

        Every threshold :func:`mv_curve` and :func:`em_curve` ask for is a
        sample score, and a level-set volume is elementwise in its
        thresholds, so each curve gets the bits its own call would give.
        """
        distinct = self.distinct
        volumes = np.asarray(volume(distinct), dtype=float)
        return lambda us: volumes[np.searchsorted(distinct, us)]


def _sample(sample_scores) -> ScoreSample:
    return sample_scores if isinstance(sample_scores, ScoreSample) else ScoreSample(sample_scores)


def mv_curve(volume: Callable, sample_scores, alphas) -> list[tuple[float, float]]:
    """Mass-Volume curve: level-set volume holding at least alpha score mass.

    For each alpha the threshold u* is the largest sample score with
    empirical P(s >= u*) >= alpha; ``volume`` maps an array of thresholds
    to the lengths of their level sets (:func:`level_set_volume`).
    ``sample_scores`` is an array or a :class:`ScoreSample`.
    """
    scores = _sample(sample_scores).sorted
    if scores.size == 0:
        raise EmptyScores("mv_curve needs a non-empty score sample")
    alphas = np.asarray(alphas, dtype=float)
    if np.any((alphas <= 0) | (alphas >= 1)):
        raise ValueError("alphas must lie strictly inside (0, 1)")
    n = scores.size
    idx = np.minimum(n - 1, np.floor((1.0 - alphas) * n).astype(int))
    return list(zip(alphas.tolist(), volume(scores[idx]).tolist()))


def em_curve(volume: Callable, sample_scores, t_values) -> list[tuple[float, float]]:
    """Excess-Mass curve: sup_u [P(s >= u) - t * Leb(s >= u)], floored at 0.

    Candidate thresholds are the unique sample scores, whose level-set
    lengths ``volume`` gives; choosing u above the maximum score yields
    the empty level set, which bounds every EM(t) below by zero.
    ``sample_scores`` is an array or a :class:`ScoreSample`.
    """
    sample = _sample(sample_scores)
    scores = sample.sorted
    if scores.size == 0:
        raise EmptyScores("em_curve needs a non-empty score sample")
    t_values = np.asarray(t_values, dtype=float)
    if np.any(t_values < 0):
        raise ValueError("t values must be non-negative")
    n = scores.size
    us = sample.distinct
    phat = (n - np.searchsorted(scores, us, side="left")) / n
    em = np.maximum((phat - t_values[:, None] * volume(us)).max(axis=1), 0.0)
    return list(zip(t_values.tolist(), em.tolist()))


def summarize_criteria(mv, em) -> tuple[float, float]:
    """Arithmetic means of the two curves over their configured domains."""
    if not mv or not em:
        raise EmptyScores("summarize_criteria needs non-empty curves")
    mv_avg = float(np.mean([v for _, v in mv]))
    em_avg = float(np.mean([v for _, v in em]))
    return mv_avg, em_avg


# -- health classification ---------------------------------------------------


RATE_RED = 0.2  # anomaly rate above which a series is red
CONSECUTIVE_RED = 5  # run of consecutive anomalies that turns a series red
SOFT_FACTOR = 0.8  # soft (yellow) levels sit at this share of each hard one


@dataclass(frozen=True)
class HealthThresholds:
    """The fleet-relative curve triggers: red above ``mv_red`` or below
    ``em_red``.

    Both default to None (disabled): the orchestrator fills them in as
    2x / 0.5x the fleet median once enough series report curves.
    """

    mv_red: Optional[float] = None
    em_red: Optional[float] = None


@dataclass(frozen=True)
class HealthSnapshot:
    mv_avg: float
    em_avg: float
    anomaly_rate: float
    consecutive_anomalies: int
    coefficient_of_variation: float
    model_age_fraction: float
    health: str

    def to_dict(self) -> dict:
        return asdict(self)


def classify_health(
    mv_avg: float,
    em_avg: float,
    anomaly_rate: float,
    consecutive_anomalies: int,
    model_age_fraction: float,
    thresholds: HealthThresholds = HealthThresholds(),
    last_training_failed: bool = False,
) -> str:
    """Deterministic G/Y/R label; red strictly dominates yellow.

    Red fires on any hard trigger (MV too high, EM too low, anomaly rate
    or consecutive anomalies over their limits, a model at or past the
    end of its TTL, failed training); yellow on any warning-band trigger
    at 80% of a hard level or a model past 80% of its life.
    """
    for v in (mv_avg, em_avg, anomaly_rate, model_age_fraction):
        if not math.isfinite(v):
            raise ValueError("health inputs must be finite")
    t = thresholds
    red = (
        (t.mv_red is not None and mv_avg > t.mv_red)
        or (t.em_red is not None and em_avg < t.em_red)
        or anomaly_rate > RATE_RED
        or consecutive_anomalies >= CONSECUTIVE_RED
        or model_age_fraction >= 1.0
        or last_training_failed
    )
    if red:
        return "R"
    yellow = (
        (t.mv_red is not None and mv_avg > SOFT_FACTOR * t.mv_red)
        or (t.em_red is not None and em_avg < t.em_red / SOFT_FACTOR)
        or anomaly_rate > SOFT_FACTOR * RATE_RED
        or consecutive_anomalies >= math.ceil(SOFT_FACTOR * CONSECUTIVE_RED)
        or model_age_fraction >= SOFT_FACTOR
    )
    return "Y" if yellow else "G"


# -- score log -----------------------------------------------------------------


class ScoreLog:
    """Per-series retention of the newest ``window`` scores for the
    evaluation cycle.

    The log holds its timestamp, probability and observation columns.
    :meth:`probabilities` and :meth:`observations` turn a column into a
    read-only array once per change of the log, and every reader of the
    cycle shares that array.
    """

    def __init__(self, series_id: str, window: int = 500, entries=()):
        self.series_id = series_id
        self.window = window
        self._timestamps: deque = deque(maxlen=window)
        self._probabilities: deque = deque(maxlen=window)
        self._observed: deque = deque(maxlen=window)
        self._arrays: dict[str, np.ndarray] = {}
        for entry in entries:
            self.append(*entry)

    def append(self, timestamp: int, probability: float, observed: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self._timestamps and timestamp <= self._timestamps[-1]:
            raise ValueError("entries must be appended in time order")
        self._timestamps.append(timestamp)
        self._probabilities.append(probability)
        self._observed.append(observed)
        if self._arrays:
            self._arrays = {}

    def __len__(self) -> int:
        return len(self._timestamps)

    @property
    def entries(self) -> list[tuple[int, float, float]]:
        """The (timestamp, probability, observed) entries, oldest first."""
        return list(zip(self._timestamps, self._probabilities, self._observed))

    def _array(self, name: str, column: deque) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None:
            array = self._arrays[name] = np.fromiter(column, dtype=float, count=len(column))
            array.flags.writeable = False
        return array

    def probabilities(self) -> np.ndarray:
        return self._array("probabilities", self._probabilities)

    def observations(self) -> np.ndarray:
        return self._array("observations", self._observed)

    def anomaly_rate(self, threshold: float, last: int = 48) -> float:
        probs = self.probabilities()[-last:]
        if probs.size == 0:
            return 0.0
        return float(np.mean(probs >= threshold))

    def consecutive_anomalies(self, threshold: float) -> int:
        count = 0
        for p in reversed(self._probabilities):
            if p >= threshold:
                count += 1
            else:
                break
        return count

    def coefficient_of_variation(self) -> float:
        obs = self.observations()
        if obs.size < 2:
            return 0.0
        mean = float(np.mean(obs))
        return float(np.std(obs) / max(abs(mean), 1e-12))

    def stable_scores(self, threshold: float, guard: int = 5) -> np.ndarray:
        """Stability scores with confirmed anomaly runs (and their
        neighborhoods) excluded, so the retained sample reflects steady
        operation."""
        probs = self.probabilities()
        if probs.size == 0:
            return probs
        # the starts and (exclusive) ends of the runs of decisions
        runs = np.flatnonzero(np.diff(np.concatenate(([False], probs >= threshold, [False])))).reshape(-1, 2)
        exclude = np.zeros(probs.size, dtype=bool)
        for start, end in runs[runs[:, 1] - runs[:, 0] >= 2].tolist():  # a run of >= 2 counts as confirmed
            exclude[max(0, start - guard):end + guard] = True
        # the probabilities were checked on append: s = 1 - p needs no check
        return 1.0 - probs[~exclude]
