"""Small shared numerics used by several pipeline stages."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

#: Variance floor used wherever a scale estimate may collapse to zero.
EPS_VAR = 1e-12
_SQRT2 = math.sqrt(2.0)


def gaussian_anomaly_probability(deviation, std, eps: float = EPS_VAR):
    """Two-sided Gaussian tail mapped to an anomaly probability.

    For z = |deviation| / std the two-sided tail mass is erfc(|z|/sqrt(2));
    the anomaly probability is its complement, so it is 0 at z=0, 0.95 at
    z=1.959964 and approaches 1 monotonically as |z| grows.  A degenerate
    std (<= eps) yields probability 1 unless the deviation is itself within
    eps of zero.

    Accepts scalars or numpy arrays; two Python floats take a scalar path
    that gives the same bits without the array set-up.
    """
    if type(deviation) is float and type(std) is float:
        if std <= eps:
            return 1.0 if abs(deviation) > eps else 0.0
        return 1.0 - float(erfc(abs(deviation) / std / _SQRT2))
    deviation = np.asarray(deviation, dtype=float)
    std = np.asarray(std, dtype=float)
    degenerate = std <= eps
    safe_std = np.where(degenerate, 1.0, std)
    z = np.abs(deviation) / safe_std
    prob = 1.0 - erfc(z / _SQRT2)
    prob = np.where(degenerate, np.where(np.abs(deviation) > eps, 1.0, 0.0), prob)
    if prob.ndim == 0:
        return float(prob)
    return prob


def skewness(values) -> float:
    """Third standardized moment; 0 for degenerate (constant) input."""
    x = np.asarray(values, dtype=float)
    if x.size < 3:
        return 0.0
    centered = x - x.mean()
    m2 = np.mean(centered**2)
    if m2 <= EPS_VAR:
        return 0.0
    return float(np.mean(centered**3) / m2**1.5)


def mad_std(values) -> float:
    """Robust standard deviation: median absolute deviation times 1.4826."""
    x = np.asarray(values, dtype=float)
    med = np.median(x)
    return float(1.4826 * np.median(np.abs(x - med)))


def lag1_autocorr(values) -> float:
    """Lag-1 sample autocorrelation; 0 when the series has no variance."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        return 0.0
    centered = x - x.mean()
    denom = np.dot(centered, centered)
    if denom <= EPS_VAR:
        return 0.0
    return float(np.dot(centered[:-1], centered[1:]) / denom)


def autocovariances(values, max_lag: int):
    """Biased sample autocovariances gamma_0..gamma_max_lag."""
    x = np.asarray(values, dtype=float)
    n = x.size
    centered = x - x.mean()
    gammas = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        if k >= n:
            gammas[k] = 0.0
        else:
            gammas[k] = np.dot(centered[: n - k], centered[k:]) / n
    return gammas

