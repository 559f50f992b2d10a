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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EmptyScores


def scoring_function(anomaly_probability):
    """Stability score s = 1 - anomaly probability (affine involution)."""
    p = np.asarray(anomaly_probability, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("anomaly probability must lie in [0, 1]")
    s = 1.0 - p
    return float(s) if s.ndim == 0 else s


def default_alphas() -> np.ndarray:
    """Mass grid 0.900 .. 0.999 in steps of 0.001."""
    return np.round(np.arange(0.900, 0.9995, 0.001), 6)


def default_em_ts(sample_scores, domain) -> np.ndarray:
    """50 log-spaced volume penalties spanning the score range over the domain length."""
    lo, hi = domain
    length = hi - lo
    if length <= 0:
        raise ValueError("domain must satisfy lo < hi")
    scores = np.asarray(sample_scores, dtype=float)
    span = float(scores.max() - scores.min()) if scores.size else 0.0
    t_max = max(span, 0.1) / length
    return np.geomspace(t_max / 1000.0, t_max, 50)


def _domain_sample(score_fn, domain, n_mc, seed):
    lo, hi = domain
    if not lo < hi:
        raise ValueError("domain must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n_mc)
    fx = np.asarray(score_fn(xs), dtype=float)
    if fx.shape != xs.shape:
        raise ValueError("score_fn must evaluate elementwise over an array")
    return hi - lo, np.sort(fx)


def mv_curve(
    score_fn: Callable,
    sample_scores,
    alphas,
    domain,
    n_mc: int = 10_000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Mass-Volume curve: level-set volume holding at least alpha score mass.

    For each alpha the threshold u* is the largest sample score with
    empirical P(s >= u*) >= alpha; the volume of {x : score_fn(x) >= u*}
    is estimated over one shared uniform Monte-Carlo draw on the domain,
    which also makes the curve exactly non-decreasing in alpha.
    """
    scores = np.sort(np.asarray(sample_scores, dtype=float))
    if scores.size == 0:
        raise EmptyScores("mv_curve needs a non-empty score sample")
    alphas = np.asarray(alphas, dtype=float)
    if np.any((alphas <= 0) | (alphas >= 1)):
        raise ValueError("alphas must lie strictly inside (0, 1)")
    if n_mc < 1000:
        raise ValueError("n_mc must be at least 1000")
    length, sorted_fx = _domain_sample(score_fn, domain, n_mc, seed)
    n = scores.size
    out = []
    for a in alphas:
        idx = min(n - 1, int(math.floor((1.0 - a) * n)))
        u = scores[idx]
        frac = (n_mc - np.searchsorted(sorted_fx, u, side="left")) / n_mc
        out.append((float(a), float(length * frac)))
    return out


def em_curve(
    score_fn: Callable,
    sample_scores,
    t_values,
    domain,
    n_mc: int = 10_000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Excess-Mass curve: sup_u [P(s >= u) - t * Leb(s >= u)], floored at 0.

    Candidate thresholds are the unique sample scores; choosing u above
    the maximum score yields the empty level set, which bounds every
    EM(t) below by zero.
    """
    scores = np.asarray(sample_scores, dtype=float)
    if scores.size == 0:
        raise EmptyScores("em_curve needs a non-empty score sample")
    t_values = np.asarray(t_values, dtype=float)
    if np.any(t_values < 0):
        raise ValueError("t values must be non-negative")
    length, sorted_fx = _domain_sample(score_fn, domain, n_mc, seed)
    sorted_scores = np.sort(scores)
    n = scores.size
    us = np.unique(scores)
    phat = (n - np.searchsorted(sorted_scores, us, side="left")) / n
    leb = length * (n_mc - np.searchsorted(sorted_fx, us, side="left")) / n_mc
    out = []
    for t in t_values:
        em = float(max(np.max(phat - t * leb), 0.0))
        out.append((float(t), em))
    return out


def summarize_criteria(mv, em) -> tuple[float, float]:
    """Arithmetic means of the two curves over their configured domains."""
    if not mv or not em:
        raise EmptyScores("summarize_criteria needs non-empty curves")
    mv_avg = float(np.mean([v for _, v in mv]))
    em_avg = float(np.mean([v for _, v in em]))
    return mv_avg, em_avg


# -- health classification ---------------------------------------------------


@dataclass(frozen=True)
class HealthThresholds:
    """Hard (red) trigger levels; soft levels sit at 80% of each hard one.

    mv_red / em_red default to None (disabled) because they are
    fleet-relative: the orchestrator fills them in as 2x / 0.5x the fleet
    median once enough series report curves.
    """

    mv_red: Optional[float] = None
    em_red: Optional[float] = None
    rate_red: float = 0.2
    consecutive_red: int = 5
    soft_factor: float = 0.8


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
        return {
            "mv_avg": self.mv_avg,
            "em_avg": self.em_avg,
            "anomaly_rate": self.anomaly_rate,
            "consecutive_anomalies": self.consecutive_anomalies,
            "coefficient_of_variation": self.coefficient_of_variation,
            "model_age_fraction": self.model_age_fraction,
            "health": self.health,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthSnapshot":
        return cls(
            mv_avg=float(data["mv_avg"]),
            em_avg=float(data["em_avg"]),
            anomaly_rate=float(data["anomaly_rate"]),
            consecutive_anomalies=int(data["consecutive_anomalies"]),
            coefficient_of_variation=float(data["coefficient_of_variation"]),
            model_age_fraction=float(data["model_age_fraction"]),
            health=str(data["health"]),
        )


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
    or consecutive anomalies over their limits, expired model, failed
    training); yellow on any warning-band trigger at 80% of a hard level
    or a model past 80% of its life.
    """
    for v in (mv_avg, em_avg, anomaly_rate, model_age_fraction):
        if not math.isfinite(v):
            raise ValueError("health inputs must be finite")
    t = thresholds
    red = (
        (t.mv_red is not None and mv_avg > t.mv_red)
        or (t.em_red is not None and em_avg < t.em_red)
        or anomaly_rate > t.rate_red
        or consecutive_anomalies >= t.consecutive_red
        or model_age_fraction >= 1.0
        or last_training_failed
    )
    if red:
        return "R"
    yellow = (
        (t.mv_red is not None and mv_avg > t.soft_factor * t.mv_red)
        or (t.em_red is not None and em_avg < t.em_red / t.soft_factor)
        or anomaly_rate > t.soft_factor * t.rate_red
        or consecutive_anomalies >= math.ceil(t.soft_factor * t.consecutive_red)
        or model_age_fraction >= t.soft_factor
    )
    return "Y" if yellow else "G"


# -- score log -----------------------------------------------------------------


@dataclass
class ScoreLog:
    """Per-series retention of recent scores for the evaluation cycle."""

    series_id: str
    window: int = 500
    entries: list = field(default_factory=list)  # (timestamp, probability, observed)

    def append(self, timestamp: int, probability: float, observed: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.entries and timestamp <= self.entries[-1][0]:
            raise ValueError("entries must be appended in time order")
        self.entries.append((timestamp, probability, observed))
        if len(self.entries) > self.window:
            del self.entries[: len(self.entries) - self.window]

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p, _ in self.entries], dtype=float)

    def observations(self) -> np.ndarray:
        return np.array([o for _, _, o in self.entries], dtype=float)

    def anomaly_rate(self, threshold: float, last: int = 48) -> float:
        probs = self.probabilities()[-last:]
        if probs.size == 0:
            return 0.0
        return float(np.mean(probs >= threshold))

    def consecutive_anomalies(self, threshold: float) -> int:
        count = 0
        for _, p, _ in reversed(self.entries):
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
        decisions = probs >= threshold
        exclude = np.zeros(probs.size, dtype=bool)
        i = 0
        while i < probs.size:
            if decisions[i]:
                j = i
                while j + 1 < probs.size and decisions[j + 1]:
                    j += 1
                if j - i + 1 >= 2:  # a run of >= 2 counts as confirmed
                    lo = max(0, i - guard)
                    hi = min(probs.size, j + 1 + guard)
                    exclude[lo:hi] = True
                i = j + 1
            else:
                i += 1
        kept = probs[~exclude]
        return scoring_function(kept) if kept.size else np.array([])
