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


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly indexed univariate series with explicit missing markers.

    Attributes:
        start_epoch: epoch seconds of the first grid point.
        step: grid spacing in seconds, > 0.
        values: float array; NaN encodes a missing observation, and
            +-inf is rejected.
    """

    start_epoch: int
    step: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty 1-d sequence")
        if np.isinf(vals).any():
            raise ValueError("values must be finite or NaN (missing)")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.step <= 0:
            raise ValueError("step must be a positive number of seconds")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def freq_label(self) -> str:
        """The grid label of ``step`` (see FREQ_STEPS), or ``"custom"``."""
        for label, s in FREQ_STEPS.items():
            if s == self.step:
                return label
        return "custom"

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
        return cls(start_epoch=start_epoch, step=step, values=np.asarray(values, dtype=float))


def impute(ts: TimeSeries, max_gap_fraction: float) -> TimeSeries:
    """Fill every missing value by linear interpolation between its
    observed neighbours (a leading or trailing gap takes the nearest one).

    Observed values pass through unchanged.  Raises TooManyMissing when the
    missing fraction exceeds ``max_gap_fraction`` and AllMissing when
    fewer than two values are observed.
    """
    mask = ts.missing_mask
    frac = float(mask.mean())
    if frac == 0.0:
        return ts
    if frac > max_gap_fraction:
        raise TooManyMissing(
            f"missing fraction {frac:.3f} exceeds allowance {max_gap_fraction:.3f}"
        )
    observed = ~mask
    if int(observed.sum()) < 2:
        raise AllMissing("linear imputation needs at least 2 observed values")
    values = ts.values.copy()
    idx = np.arange(len(ts))
    values[mask] = np.interp(idx[mask], idx[observed], values[observed])
    return ts.with_values(values)


def smooth(ts: TimeSeries, window: int) -> TimeSeries:
    """Centered rolling median; edges use shrunken windows."""
    if ts.missing_mask.any():
        raise ValueError("smooth requires an imputed series")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 1")
    if window > len(ts):
        raise WindowTooLarge(f"window {window} exceeds series length {len(ts)}")
    if window == 1:
        return ts
    half = window // 2
    values = ts.values
    n = len(values)
    out = np.empty_like(values)
    out[half : n - half] = np.median(np.lib.stride_tricks.sliding_window_view(values, window), axis=1)
    for i in (*range(half), *range(n - half, n)):
        out[i] = np.median(values[max(0, i - half) : min(n, i + half + 1)])
    return ts.with_values(out)


def aggregate(ts: TimeSeries, target: str, agg: str = "mean") -> TimeSeries:
    """Bucket to the coarser grid named ``target`` (a FREQ_STEPS label);
    trailing partial buckets are dropped."""
    if target not in FREQ_STEPS:
        raise IncompatibleFrequency(f"cannot resolve target frequency {target!r}")
    t_step = FREQ_STEPS[target]
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
    return TimeSeries(start_epoch=ts.start_epoch, step=t_step, values=out)


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


def _parse_value(text: str, row: int) -> float:
    """A value field: empty marks a missing observation, anything else
    must be a finite number."""
    if not text:
        return MISSING
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise MalformedCsv(f"row {row} value {text!r} is not a finite number")
    return value


def read_csv(source) -> TimeSeries:
    """Parse a two-column ``timestamp,value`` CSV onto a uniform grid.

    Timestamps may be RFC-3339 strings or epoch seconds; an empty value
    field marks a missing observation, and any other value must be a
    finite number.  The grid step is the gcd of the timestamp gaps, and
    grid points absent from the file are materialized as missing.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            return read_csv(fh)

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
        rows.append((epoch, _parse_value(row[1].strip(), lineno + 1)))
    if not rows:
        raise MalformedCsv("no data rows")
    rows.sort(key=lambda r: r[0])
    epochs = np.array([r[0] for r in rows], dtype=np.int64)
    vals = np.array([r[1] for r in rows], dtype=float)

    if len(epochs) < 2:
        raise MalformedCsv("cannot infer grid step from a single row")
    diffs = np.diff(epochs)
    diffs = diffs[diffs > 0]
    if diffs.size == 0:
        raise MalformedCsv("duplicate timestamps only; cannot infer step")
    step = int(np.gcd.reduce(diffs))
    start = int(epochs[0])
    offsets = epochs - start
    n = int(offsets[-1] // step) + 1
    grid = np.full(n, MISSING)
    grid[offsets // step] = vals
    return TimeSeries(start_epoch=start, step=step, values=grid)


def write_csv(ts: TimeSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for epoch, value in zip(ts.timestamps, ts.values):
            writer.writerow([int(epoch), "" if math.isnan(value) else repr(float(value))])
