import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from autoad.errors import (
    AllMissing,
    IncompatibleFrequency,
    MalformedCsv,
    TooManyMissing,
    WindowTooLarge,
)
from autoad.series import (
    MISSING,
    ImputePolicy,
    TimeSeries,
    aggregate,
    from_log,
    impute,
    log_offset,
    read_csv,
    smooth,
    to_log,
    write_csv,
)
from autoad.stats import skewness

finite_values = st.floats(-1e6, 1e6, allow_nan=False)


def ts_of(values, step=3600):
    return TimeSeries.from_values(values, step=step)


class TestTimeSeries:
    def test_freq_label_inferred(self):
        assert ts_of([1, 2], step=3600).freq_label == "hourly"
        assert ts_of([1, 2], step=300).freq_label == "minutely5"
        assert ts_of([1, 2], step=7).freq_label == "custom"

    def test_freq_label_step_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(start_epoch=0, step=60, values=np.ones(3), freq_label="hourly")

    def test_values_are_read_only(self):
        ts = ts_of([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestImpute:
    def test_linear_midpoint(self):
        out = impute(ts_of([2.0, MISSING, 4.0]), ImputePolicy(max_gap_fraction=0.5))
        assert np.allclose(out.values, [2.0, 3.0, 4.0])

    def test_identity_on_complete_series(self):
        out = impute(ts_of([5.0, 5.0, 5.0]), ImputePolicy(method="locf"))
        assert np.array_equal(out.values, [5.0, 5.0, 5.0])

    def test_seasonal_naive_fills_from_one_period_back(self):
        # ten-point gap inside a known sine; compare against the analytic wave
        period = 24
        t = np.arange(24 * 8, dtype=float)
        truth = np.sin(2 * np.pi * t / period)
        values = truth.copy()
        gap = slice(100, 110)
        values[gap] = MISSING
        out = impute(
            ts_of(values), ImputePolicy(method="seasonal_naive", max_gap_fraction=0.2, period=period)
        )
        one_step = abs(math.sin(2 * math.pi / period))
        assert np.max(np.abs(out.values[gap] - truth[gap])) <= 2 * one_step
        assert not out.missing_mask.any()

    def test_too_many_missing(self):
        with pytest.raises(TooManyMissing):
            impute(ts_of([1.0, MISSING, MISSING, MISSING]), ImputePolicy(max_gap_fraction=0.5))

    def test_all_missing(self):
        with pytest.raises(AllMissing):
            impute(ts_of([MISSING, MISSING]), ImputePolicy(max_gap_fraction=1.0))

    def test_observed_values_unchanged(self):
        values = [1.0, MISSING, 7.5, MISSING, 3.25]
        out = impute(ts_of(values), ImputePolicy(max_gap_fraction=0.5))
        for i, v in enumerate(values):
            if not math.isnan(v):
                assert out.values[i] == v

    @given(
        data=hnp.arrays(np.float64, st.integers(4, 40), elements=finite_values),
        holes=st.sets(st.integers(0, 39), max_size=10),
    )
    def test_imputation_idempotent(self, data, holes):
        values = data.copy()
        hole_idx = [h for h in holes if h < len(values)]
        if len(hole_idx) >= len(values) - 1:
            return
        values[hole_idx] = np.nan
        policy = ImputePolicy(max_gap_fraction=1.0)
        once = impute(ts_of(values), policy)
        twice = impute(once, policy)
        assert np.array_equal(once.values, twice.values)
        assert not once.missing_mask.any()


class TestSmooth:
    def test_median_removes_single_spike(self):
        out = smooth(ts_of([1.0, 1.0, 9.0, 1.0, 1.0]), 3, "median")
        assert np.array_equal(out.values, np.ones(5))

    @given(data=hnp.arrays(np.float64, st.integers(1, 30), elements=finite_values))
    def test_window_one_is_identity(self, data):
        ts = ts_of(data)
        assert np.array_equal(smooth(ts, 1, "mean").values, ts.values)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            smooth(ts_of([1.0, 2.0, 3.0]), 5)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            smooth(ts_of([1.0, 2.0, 3.0, 4.0]), 2)

    def test_mean_smoothing_reduces_variance_about_fivefold(self, rng):
        # variance of a w-point mean of white noise shrinks by w
        noise = rng.normal(0, 1, 500)
        out = smooth(ts_of(noise), 5, "mean")
        ratio = np.var(out.values[2:-2]) / np.var(noise)
        assert 0.7 / 5 < ratio < 1.3 / 5

    def test_median_constant_unchanged(self):
        out = smooth(ts_of(np.full(20, 3.3)), 5, "median")
        assert np.array_equal(out.values, np.full(20, 3.3))

    @given(
        kind=st.sampled_from(["median", "mean"]),
        half=st.integers(0, 25),
        extra=st.integers(0, 200),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_matches_per_window_oracle(self, kind, half, extra, data):
        window = 2 * half + 1
        n = window + extra
        values = data.draw(hnp.arrays(np.float64, n, elements=finite_values))
        stat = np.median if kind == "median" else np.mean
        oracle = np.array(
            [stat(values[max(0, i - half) : min(n, i + half + 1)]) for i in range(n)]
        )
        assert np.array_equal(smooth(ts_of(values), window, kind).values, oracle)


class TestAggregate:
    def test_constant_mean(self):
        ts = ts_of(np.full(12, 2.0), step=300)
        out = aggregate(ts, "hourly", "mean")
        assert len(out) == 1 and out.values[0] == 2.0 and out.step == 3600

    def test_arithmetic_series_sum(self):
        ts = ts_of(np.arange(1.0, 25.0), step=3600)
        out = aggregate(ts, "daily", "sum")
        assert np.array_equal(out.values, [300.0])

    @pytest.mark.parametrize("n", [24, 100, 1000, 1439])
    def test_length_bookkeeping(self, n):
        ts = ts_of(np.arange(float(n)), step=300)
        out = aggregate(ts, "hourly")
        assert len(out) == n // 12

    def test_incompatible_frequency(self):
        with pytest.raises(IncompatibleFrequency):
            aggregate(ts_of([1.0, 2.0], step=7), "hourly")

    def test_same_frequency_is_identity(self):
        ts = ts_of(np.arange(5.0), step=3600)
        out = aggregate(ts, "hourly", "mean")
        assert np.array_equal(out.values, ts.values)

    @given(
        value=st.floats(-100, 100, allow_nan=False),
        n=st.integers(12, 60),
    )
    def test_mean_of_constant_is_constant(self, value, n):
        ts = ts_of(np.full(n, value), step=300)
        out = aggregate(ts, "hourly", "mean")
        assert np.allclose(out.values, value)


class TestLogTransform:
    def test_exact_logs(self):
        values = ts_of([math.e, math.e**2, math.e**3]).values
        offset = log_offset(values)
        assert offset == 0.0
        assert np.allclose(to_log(values, offset), [1.0, 2.0, 3.0])

    @given(data=hnp.arrays(np.float64, st.integers(1, 50), elements=st.floats(-1e5, 1e5, allow_nan=False)))
    def test_round_trip(self, data):
        values = ts_of(data).values
        offset = log_offset(values)
        back = from_log(to_log(values, offset), offset)
        scale = np.maximum(np.abs(values), 1.0)
        assert np.all(np.abs(back - values) / scale <= 1e-9)

    def test_reduces_lognormal_skewness(self, rng):
        sample = np.exp(rng.normal(0, 1.5, 2000))
        out = to_log(sample, log_offset(sample))
        assert abs(skewness(out)) < abs(skewness(sample))

    def test_arguments_at_least_one(self):
        values = ts_of([-5.0, 0.0, 3.0]).values
        offset = log_offset(values)
        assert np.all(to_log(values, offset) >= 0.0)  # ln of arguments >= 1
        assert offset == 6.0


class TestCsv:
    def test_rfc3339_and_empty_value(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "timestamp,value\n"
            "2020-01-01 00:00:00,1.5\n"
            "2020-01-01 01:00:00,\n"
            "2020-01-01 02:00:00,3.5\n"
        )
        ts = read_csv(path)
        assert ts.step == 3600 and ts.freq_label == "hourly"
        assert math.isnan(ts.values[1])
        assert ts.values[2] == 3.5

    def test_epoch_seconds_and_gap_materialization(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,value\n0,1\n600,2\n1800,4\n")
        ts = read_csv(path)
        assert ts.step == 600
        assert len(ts) == 4
        assert math.isnan(ts.values[2])

    def test_round_trip(self, tmp_path):
        ts = ts_of([1.0, MISSING, 2.5], step=300)
        path = tmp_path / "out.csv"
        write_csv(ts, path)
        back = read_csv(path)
        assert back.step == ts.step
        assert np.array_equal(np.isnan(back.values), np.isnan(ts.values))
        assert back.values[0] == 1.0 and back.values[2] == 2.5

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\nnot-a-time,3\n")
        with pytest.raises(MalformedCsv):
            read_csv(path)
