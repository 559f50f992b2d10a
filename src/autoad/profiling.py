"""Batch profiling of a prepared series.

Produces the :class:`DataProfile` that downstream modeling consumes:
change points, differencing order, skewness and the log-scale
recommendation, and the dominant spectral frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SeriesTooShort
from .series import TimeSeries, impute
from .stats import EPS_VAR, lag1_autocorr, skewness

_LOG_2PI = math.log(2.0 * math.pi)
SKEW_THRESHOLD = 1.5  # |skewness| above which a positive series is modeled on the log scale


@dataclass(frozen=True)
class DataProfile:
    change_points: tuple[int, ...] = ()
    diff_order: int = 0
    skewness: float = 0.0
    log_recommended: bool = False
    fourier_terms: tuple[tuple[float, float], ...] = ()
    missing_fraction: float = 0.0


# -- change points ---------------------------------------------------------


def _segment_cost(d_sum, d_sq, lo: int, hi: int) -> float:
    """Gaussian -2 log-likelihood of the diff slice d[lo:hi] (exclusive)."""
    m = hi - lo
    if m <= 0:
        return 0.0
    s = d_sum[hi] - d_sum[lo]
    sq = d_sq[hi] - d_sq[lo]
    var = max(sq / m - (s / m) ** 2, EPS_VAR)
    return m * (_LOG_2PI + 1.0 + math.log(var))


def detect_change_points(
    ts: TimeSeries, penalty: Optional[float] = None, min_segment: int = 5
) -> list[int]:
    """Level/variance change points by penalized binary segmentation.

    Each segment is costed on its internal first differences, so a split
    at a jump removes the jump's diff from the likelihood while smooth
    trends contribute nothing a split could explain.  A split is accepted
    when it improves total cost by more than ``penalty`` (default 3 ln n).
    """
    values = ts.values
    n = values.size
    if min_segment < 2:
        raise ValueError("min_segment must be at least 2")
    if n < 2 * min_segment:
        raise SeriesTooShort(f"need at least {2 * min_segment} points, got {n}")
    if penalty is None:
        penalty = 3.0 * math.log(n)

    diffs = np.diff(values)
    d_sum = np.concatenate([[0.0], np.cumsum(diffs)])
    d_sq = np.concatenate([[0.0], np.cumsum(diffs**2)])

    def seg_cost(s: int, e: int) -> float:
        # values[s:e] has internal diffs diffs[s:e-1]
        return _segment_cost(d_sum, d_sq, s, e - 1)

    def split_costs(s: int, e: int, ks: np.ndarray) -> np.ndarray:
        m_l = ks - 1 - s
        m_r = e - 1 - ks
        sum_l = d_sum[ks - 1] - d_sum[s]
        sq_l = d_sq[ks - 1] - d_sq[s]
        sum_r = d_sum[e - 1] - d_sum[ks]
        sq_r = d_sq[e - 1] - d_sq[ks]
        var_l = np.maximum(sq_l / m_l - (sum_l / m_l) ** 2, EPS_VAR)
        var_r = np.maximum(sq_r / m_r - (sum_r / m_r) ** 2, EPS_VAR)
        return m_l * (_LOG_2PI + 1.0 + np.log(var_l)) + m_r * (
            _LOG_2PI + 1.0 + np.log(var_r)
        )

    change_points: list[int] = []

    def recurse(s: int, e: int) -> None:
        if e - s < 2 * min_segment:
            return
        parent = seg_cost(s, e)
        ks = np.arange(s + min_segment, e - min_segment + 1)
        gains = parent - split_costs(s, e, ks)
        best = int(np.argmax(gains))
        if gains[best] > penalty:
            k = int(ks[best])
            change_points.append(k)
            recurse(s, k)
            recurse(k, e)

    recurse(0, n)
    return sorted(change_points)


# -- stationarization ---------------------------------------------------------


def _segment_mean_spread(values: np.ndarray) -> float:
    """Squared spread of quarter means relative to variance.

    Integrated processes wander, so their segment means differ on the
    scale of the overall variance (statistic >~ 1); stationary series,
    periodic ones included, keep it near zero.
    """
    k = 4
    seg = values.size // k
    if seg < 2:
        return 0.0
    means = [float(values[i * seg : (i + 1) * seg].mean()) for i in range(k)]
    var = float(np.var(values))
    if var <= EPS_VAR:
        return 0.0
    return (max(means) - min(means)) ** 2 / var


def stationarize(ts: TimeSeries, max_d: int = 2) -> tuple[TimeSeries, int]:
    """Difference until the series stops looking integrated.

    A pass differences while any unit-root signal fires: lag-1
    autocorrelation >= 0.99, differencing collapsing the variance below
    an n-scaled share (integrated processes shrink like ~1/n under
    differencing; smooth periodic series level off at a constant share
    and must not be over-differenced, which would blow up d>=1 forecast
    variance), or a persistent series whose quarter means drift on the
    scale of its variance.  Stops at ``max_d`` regardless.
    """
    values = ts.values
    if values.size < 20:
        raise ValueError("stationarize needs at least 20 points")
    d = 0
    current = values
    while d < max_d and current.size >= 3:
        diffed = np.diff(current)
        var_cur = float(np.var(current))
        var_diff = float(np.var(diffed))
        collapse = min(20.0 / current.size, 0.05)
        acf1 = lag1_autocorr(current)
        integrated = (
            acf1 >= 0.99
            or var_diff < var_cur * collapse
            or (acf1 >= 0.8 and _segment_mean_spread(current) >= 0.6)
        )
        if integrated:
            current = diffed
            d += 1
        else:
            break
    return ts.with_values(current), d


# -- spectral selection ---------------------------------------------------------


def select_fourier_frequencies(
    ts: TimeSeries, l_max: int = 3, noise_floor_multiplier: float = 10.0
) -> list[tuple[float, float]]:
    """Dominant periodogram peaks as (cycles-per-step, power) pairs.

    The periodogram is |DFT|^2 / n with the mean removed.  Peak detection
    runs on a Daniell-smoothed copy (5-bin moving average) so that single
    noise bins cannot clear the threshold of ``noise_floor_multiplier``
    times the median smoothed power; reported frequency and power come
    from the raw periodogram bin at each accepted peak.  At most ``l_max``
    peaks are returned, strongest first.
    """
    values = ts.values
    n = values.size
    if n < max(2 * l_max, 16):
        raise ValueError("series too short for spectral selection")
    centered = values - values.mean()
    spectrum = np.abs(np.fft.rfft(centered)) ** 2 / n
    freqs = np.fft.rfftfreq(n)
    # drop DC; keep Nyquist out of peak candidates as well
    power = spectrum[1:-1] if n % 2 == 0 else spectrum[1:]
    bins = freqs[1:-1] if n % 2 == 0 else freqs[1:]
    if power.size < 5:
        return []

    kernel = np.ones(5) / 5.0
    padded = np.concatenate([power[:2][::-1], power, power[-2:][::-1]])
    smoothed = np.convolve(padded, kernel, mode="valid")
    floor = noise_floor_multiplier * float(np.median(smoothed))

    # local maxima of the smoothed periodogram (ties included) above the floor
    below_left = np.concatenate([[False], smoothed[1:] < smoothed[:-1]])
    below_right = np.concatenate([smoothed[:-1] < smoothed[1:], [False]])
    candidates = np.flatnonzero(~below_left & ~below_right & (smoothed > floor))
    peaks: list[tuple[float, float]] = []
    for i in candidates.tolist():
        # refine to the strongest raw bin near the smoothed peak
        wlo = max(0, i - 2)
        j = wlo + int(np.argmax(power[wlo:i + 3]))
        peaks.append((float(bins[j]), float(power[j])))
    peaks.sort(key=lambda fp: -fp[1])
    deduped: list[tuple[float, float]] = []
    for f, p in peaks:
        if all(abs(f - g) > 1.5 / n for g, _ in deduped):
            deduped.append((f, p))
    return deduped[:l_max]


# -- composite profile -----------------------------------------------------------


def profile(ts: TimeSeries) -> DataProfile:
    """Run the full profiling pass over a raw (possibly gappy) series."""
    missing_fraction = ts.missing_fraction
    clean = impute(ts, max_gap_fraction=1.0)
    n = len(clean)

    # each step's own minimum length at its default settings
    change_points = detect_change_points(clean) if n >= 10 else []

    if n >= 20:
        stationary, d = stationarize(clean)
    else:
        stationary, d = clean, 0

    skew = skewness(clean.values)
    log_recommended = abs(skew) > SKEW_THRESHOLD and float(clean.values.min()) > 0.0

    if len(stationary) >= 16:
        fourier_terms = select_fourier_frequencies(stationary)
    else:
        fourier_terms = []

    return DataProfile(
        change_points=tuple(change_points),
        diff_order=d,
        skewness=skew,
        log_recommended=log_recommended,
        fourier_terms=tuple(fourier_terms),
        missing_fraction=missing_fraction,
    )
