"""Canonical univariate time-series representation and elementary transforms.

A :class:`TimeSeries` lives on a uniform integer-second grid.  Missing
observations are carried explicitly as NaN so that every stage of the
pipeline can see (and must deal with) the holes.  All operations here are
pure: they return new series and never mutate their input.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .errors import (
    AllMissing,
    IncompatibleFrequency,
    MalformedCsv,
    TooManyMissing,
    WindowTooLarge,
)

#: Marker for a missing observation.
MISSING = float("nan")

#: Recognised grid labels and their step in seconds.
FREQ_STEPS = {
    "minutely5": 300,
    "minutely10": 600,
    "hourly": 3600,
    "daily": 86400,
}


def freq_label_for_step(step: int) -> str:
    for label, s in FREQ_STEPS.items():
        if s == step:
            return label
    return "custom"


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly indexed univariate series with explicit missing markers.

    Attributes:
        start_epoch: epoch seconds of the first grid point.
        step: grid spacing in seconds, > 0.
        values: float array; NaN encodes a missing observation.
        freq_label: one of minutely5/minutely10/hourly/daily/custom,
            consistent with ``step``.
    """

    start_epoch: int
    step: int
    values: np.ndarray
    freq_label: str = "custom"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty 1-d sequence")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.step <= 0:
            raise ValueError("step must be a positive number of seconds")
        if self.freq_label in FREQ_STEPS and FREQ_STEPS[self.freq_label] != self.step:
            raise ValueError(
                f"freq_label {self.freq_label!r} requires step {FREQ_STEPS[self.freq_label]}, got {self.step}"
            )
        if self.freq_label not in FREQ_STEPS and self.freq_label != "custom":
            raise ValueError(f"unknown freq_label {self.freq_label!r}")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def timestamps(self) -> np.ndarray:
        return self.start_epoch + self.step * np.arange(len(self), dtype=np.int64)

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values)

    @property
    def missing_fraction(self) -> float:
        return float(np.mean(self.missing_mask))

    def with_values(self, values) -> "TimeSeries":
        return replace(self, values=np.asarray(values, dtype=float))

    @classmethod
    def from_values(cls, values, step: int = 3600, start_epoch: int = 0) -> "TimeSeries":
        return cls(
            start_epoch=start_epoch,
            step=step,
            values=np.asarray(values, dtype=float),
            freq_label=freq_label_for_step(step),
        )


@dataclass(frozen=True)
class ImputePolicy:
    """How to fill missing observations.

    ``max_gap_fraction`` caps the tolerated fraction of missing points;
    ``period`` (in grid steps) is required by the seasonal_naive method.
    """

    method: str = "linear"
    max_gap_fraction: float = 0.3
    period: Optional[int] = None

    def __post_init__(self):
        if self.method not in ("linear", "locf", "seasonal_naive"):
            raise ValueError(f"unknown imputation method {self.method!r}")
        if not 0.0 <= self.max_gap_fraction <= 1.0:
            raise ValueError("max_gap_fraction must lie in [0, 1]")


def impute(ts: TimeSeries, policy: ImputePolicy = ImputePolicy()) -> TimeSeries:
    """Fill every missing value according to the policy.

    Observed values pass through unchanged.  Raises TooManyMissing when the
    missing fraction exceeds the policy allowance and AllMissing when there
    is nothing to anchor interpolation.
    """
    mask = ts.missing_mask
    frac = float(mask.mean())
    if frac == 0.0:
        return ts
    if frac > policy.max_gap_fraction:
        raise TooManyMissing(
            f"missing fraction {frac:.3f} exceeds allowance {policy.max_gap_fraction:.3f}"
        )
    observed = ~mask
    if int(observed.sum()) == 0:
        raise AllMissing("series has no observed values")
    if policy.method == "linear" and int(observed.sum()) < 2:
        raise AllMissing("linear imputation needs at least 2 observed values")

    values = ts.values.copy()
    idx = np.arange(len(ts))
    if policy.method == "linear":
        values[mask] = np.interp(idx[mask], idx[observed], values[observed])
    elif policy.method == "locf":
        # forward fill, then backfill any leading gap
        last = None
        for i in range(len(values)):
            if np.isnan(values[i]):
                if last is not None:
                    values[i] = last
            else:
                last = values[i]
        first_obs = values[observed][0]
        still = np.isnan(values)
        values[still] = first_obs
    else:  # seasonal_naive
        period = policy.period
        if period is None or period <= 0:
            raise ValueError("seasonal_naive imputation requires a positive period")
        for i in idx[mask]:
            j = i - period
            while j >= 0 and np.isnan(values[j]):
                j -= period
            if j >= 0:
                values[i] = values[j]
        # any gap with no earlier season falls back to interpolation
        still = np.isnan(values)
        if still.any():
            obs_now = ~still
            if int(obs_now.sum()) == 1:
                values[still] = values[obs_now][0]
            else:
                values[still] = np.interp(idx[still], idx[obs_now], values[obs_now])
    return ts.with_values(values)


def smooth(ts: TimeSeries, window: int, kind: str = "median") -> TimeSeries:
    """Centered rolling median/mean; edges use shrunken windows."""
    if ts.missing_mask.any():
        raise ValueError("smooth requires an imputed series")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 1")
    if window > len(ts):
        raise WindowTooLarge(f"window {window} exceeds series length {len(ts)}")
    if window == 1:
        return ts
    if kind not in ("median", "mean"):
        raise ValueError(f"unknown smoothing kind {kind!r}")
    half = window // 2
    values = ts.values
    n = len(values)
    out = np.empty_like(values)
    stat = np.median if kind == "median" else np.mean
    out[half : n - half] = stat(np.lib.stride_tricks.sliding_window_view(values, window), axis=1)
    for i in (*range(half), *range(n - half, n)):
        out[i] = stat(values[max(0, i - half) : min(n, i + half + 1)])
    return ts.with_values(out)


def aggregate(
    ts: TimeSeries,
    target: str,
    agg: str = "mean",
    target_step: Optional[int] = None,
) -> TimeSeries:
    """Bucket to a coarser grid; trailing partial buckets are dropped.

    ``target`` is a freq label; pass target_step for a custom target.
    """
    if target in FREQ_STEPS:
        t_step = FREQ_STEPS[target]
    elif target == "custom" and target_step:
        t_step = int(target_step)
    else:
        raise IncompatibleFrequency(f"cannot resolve target frequency {target!r}")
    if t_step % ts.step != 0 or t_step < ts.step:
        raise IncompatibleFrequency(
            f"target step {t_step} is not an integer multiple of source step {ts.step}"
        )
    if agg not in ("mean", "sum"):
        raise ValueError(f"unknown aggregation {agg!r}")
    k = t_step // ts.step
    n_buckets = len(ts) // k
    if n_buckets == 0:
        raise IncompatibleFrequency("series shorter than one target bucket")
    trimmed = ts.values[: n_buckets * k].reshape(n_buckets, k)
    out = trimmed.mean(axis=1) if agg == "mean" else trimmed.sum(axis=1)
    return TimeSeries(
        start_epoch=ts.start_epoch,
        step=t_step,
        values=out,
        freq_label=freq_label_for_step(t_step),
    )


#: Floor of the log argument, so a value far below the training range
#: maps to a large negative number rather than -inf or NaN.
LOG_FLOOR = 1e-12


def log_offset(values) -> float:
    """Additive offset that lifts the smallest finite value's log argument to 1."""
    return max(0.0, 1.0 - float(np.nanmin(values)))


def to_log(values, offset: float) -> np.ndarray:
    """The log scale both model families work on: log(values + offset), floored."""
    return np.log(np.maximum(np.asarray(values, dtype=float) + offset, LOG_FLOOR))


def from_log(values, offset: float) -> np.ndarray:
    """Inverse of :func:`to_log` above the floor: exp(values) - offset."""
    return np.exp(values) - offset


def to_model_scale(values, model) -> np.ndarray:
    """Raw values on the scale a fitted model works on (its ``log_scale``
    and ``log_offset`` say which)."""
    values = np.asarray(values, dtype=float)
    return to_log(values, model.log_offset) if model.log_scale else values


def from_model_scale(values, model) -> np.ndarray:
    """Values on a fitted model's scale back to raw values."""
    return from_log(values, model.log_offset) if model.log_scale else values


# -- CSV ingestion -------------------------------------------------------


def _parse_timestamp(text: str) -> int:
    text = text.strip()
    if not text:
        raise MalformedCsv("empty timestamp field")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        stamp = text.replace("Z", "+00:00")
        dt = datetime.fromisoformat(stamp)
    except ValueError as exc:
        raise MalformedCsv(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def read_csv(source, step: Optional[int] = None) -> TimeSeries:
    """Parse a two-column ``timestamp,value`` CSV onto a uniform grid.

    Timestamps may be RFC-3339 strings or epoch seconds; an empty value
    field marks a missing observation.  Grid points absent from the file
    are materialized as missing.  ``step`` overrides grid inference.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            return read_csv(fh, step=step)

    reader = csv.reader(source)
    rows = []
    for lineno, row in enumerate(reader):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if lineno == 0 and row[0].strip().lower() in ("timestamp", "time", "ts"):
            continue
        if len(row) < 2:
            raise MalformedCsv(f"row {lineno + 1} does not have two columns: {row!r}")
        epoch = _parse_timestamp(row[0])
        text = row[1].strip()
        value = MISSING if not text else float(text)
        rows.append((epoch, value))
    if not rows:
        raise MalformedCsv("no data rows")
    rows.sort(key=lambda r: r[0])
    epochs = np.array([r[0] for r in rows], dtype=np.int64)
    vals = np.array([r[1] for r in rows], dtype=float)

    if step is None:
        if len(epochs) < 2:
            raise MalformedCsv("cannot infer grid step from a single row")
        diffs = np.diff(epochs)
        diffs = diffs[diffs > 0]
        if diffs.size == 0:
            raise MalformedCsv("duplicate timestamps only; cannot infer step")
        step = int(np.gcd.reduce(diffs))
    start = int(epochs[0])
    offsets = epochs - start
    if np.any(offsets % step != 0):
        raise MalformedCsv("timestamps do not align to a uniform grid")
    n = int(offsets[-1] // step) + 1
    grid = np.full(n, MISSING)
    grid[offsets // step] = vals
    return TimeSeries(
        start_epoch=start, step=step, values=grid, freq_label=freq_label_for_step(step)
    )


def write_csv(ts: TimeSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for epoch, value in zip(ts.timestamps, ts.values):
            writer.writerow([int(epoch), "" if math.isnan(value) else repr(float(value))])
