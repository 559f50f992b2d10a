import itertools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoad.bench import (
    BenchConfig,
    LabeledBenchSeries,
    aggregate_labeled,
    align_labels,
    auc,
    fixture_datasets,
    forecast_metrics,
    labels_from_windows,
    load_nab,
    replay,
    roc_points,
    rolling_origin_forecast,
    run_benchmark,
)
from autoad.errors import LengthMismatch, MissingData, SingleClass, UnknownDataset
from autoad.reference_values import NAB_DATA_PATHS, NAB_WINDOWS_FILE
from autoad.series import TimeSeries

NAB_DIR = Path(os.environ.get("AUTOAD_NAB_DIR", Path(__file__).resolve().parents[1] / "data" / "nab"))

needs_nab = pytest.mark.skipif(
    not (NAB_DIR / NAB_WINDOWS_FILE).exists(),
    reason="NAB datasets not downloaded (run scripts/download_nab.py)",
)


def write_nab_fixture(tmp_path, rows, windows):
    data = tmp_path / "synthetic_metric.csv"
    lines = ["timestamp,value"] + [f"{ts},{v}" for ts, v in rows]
    data.write_text("\n".join(lines) + "\n")
    wfile = tmp_path / "combined_windows.json"
    wfile.write_text(json.dumps({"synthetic/synthetic_metric.csv": windows}))
    return data, wfile


class TestLoadNab:
    def test_three_row_fixture_window_membership(self, tmp_path):
        rows = [
            ("2020-01-01 00:00:00", 1.0),
            ("2020-01-01 00:05:00", 2.0),
            ("2020-01-01 00:10:00", 3.0),
        ]
        windows = [["2020-01-01 00:05:00.000000", "2020-01-01 00:05:00.000000"]]
        data, wfile = write_nab_fixture(tmp_path, rows, windows)
        lbs = load_nab(data, wfile)
        assert lbs.series.step == 300
        assert lbs.point_labels.tolist() == [0, 1, 0]

    def test_empty_windows_all_zero(self, tmp_path):
        rows = [(f"2020-01-01 0{h}:00:00", float(h)) for h in range(5)]
        data, wfile = write_nab_fixture(tmp_path, rows, [])
        lbs = load_nab(data, wfile)
        assert not lbs.point_labels.any()

    def test_unknown_dataset(self, tmp_path):
        rows = [("0", 1.0), ("300", 2.0)]
        data, wfile = write_nab_fixture(tmp_path, rows, [])
        other = tmp_path / "other_metric.csv"
        other.write_text(data.read_text())
        with pytest.raises(UnknownDataset):
            load_nab(other, wfile)

    def test_missing_files(self, tmp_path):
        with pytest.raises(MissingData):
            load_nab(tmp_path / "nope.csv", tmp_path / "nope.json")

    @needs_nab
    def test_real_nyc_taxi_shape(self):
        lbs = load_nab(NAB_DIR / NAB_DATA_PATHS["nyc_taxi"], NAB_DIR / NAB_WINDOWS_FILE)
        assert len(lbs.series) == 10320
        assert lbs.series.step == 1800
        assert len(lbs.anomaly_windows) == 5


class TestAggregateLabeled:
    def _base(self):
        values = np.arange(48.0)
        series = TimeSeries.from_values(values, step=300, start_epoch=0)
        labels = np.zeros(48, dtype=np.int8)
        labels[13] = 1
        return LabeledBenchSeries(
            name="x", series=series, anomaly_windows=((13 * 300, 13 * 300),), point_labels=labels
        )

    def test_any_semantics(self):
        out = aggregate_labeled(self._base(), "hourly")
        assert out.point_labels.tolist() == [0, 1, 0, 0]

    def test_all_zero_stays_zero(self):
        base = self._base()
        cleared = LabeledBenchSeries(
            name="x",
            series=base.series,
            anomaly_windows=(),
            point_labels=np.zeros(48, dtype=np.int8),
        )
        out = aggregate_labeled(cleared, "hourly")
        assert not out.point_labels.any()

    def test_window_straddling_bucket_boundary(self):
        values = np.arange(48.0)
        series = TimeSeries.from_values(values, step=300, start_epoch=0)
        windows = ((10 * 300, 14 * 300),)  # crosses the 12-point boundary
        labels = labels_from_windows(series, windows)
        lbs = LabeledBenchSeries(
            name="x", series=series, anomaly_windows=windows, point_labels=labels
        )
        out = aggregate_labeled(lbs, "hourly")
        assert out.point_labels.tolist() == [1, 1, 0, 0]

    def test_label_count_never_below_disjoint_windows(self):
        base = self._base()
        out = aggregate_labeled(base, "hourly")
        assert out.point_labels.sum() >= len(base.anomaly_windows)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_example_with_pair_enumeration(self):
        probs = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        # brute force over all (positive, negative) pairs with tie splitting
        pos = [p for p, y in zip(probs, labels) if y == 1]
        neg = [p for p, y in zip(probs, labels) if y == 0]
        wins = sum(
            1.0 if p > n else 0.5 if p == n else 0.0
            for p, n in itertools.product(pos, neg)
        )
        expected = wins / (len(pos) * len(neg))
        assert expected == 0.75
        assert auc(probs, labels) == pytest.approx(expected)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_exhaustive_pair_oracle(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(30).round(1)  # coarse grid to force ties
        labels = rng.integers(0, 2, 30)
        if labels.sum() in (0, 30):
            return
        pos = probs[labels == 1]
        neg = probs[labels == 0]
        wins = sum(
            1.0 if p > n else 0.5 if p == n else 0.0
            for p, n in itertools.product(pos, neg)
        )
        assert auc(probs, labels) == pytest.approx(wins / (len(pos) * len(neg)))

    @given(seed=st.integers(0, 50), scale=st.floats(0.1, 10))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transform(self, seed, scale):
        rng = np.random.default_rng(seed)
        probs = rng.random(40)
        labels = rng.integers(0, 2, 40)
        if labels.sum() in (0, 40):
            return
        transformed = 1.0 / (1.0 + np.exp(-scale * probs))
        assert auc(probs, labels) == pytest.approx(auc(transformed, labels))

    def test_complement_labels_sum_to_one(self, rng):
        probs = rng.random(50)  # continuous, tie-free with probability 1
        labels = rng.integers(0, 2, 50)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        assert auc(probs, labels) + auc(probs, 1 - labels) == pytest.approx(1.0)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            auc([0.1], [1, 0])

    def test_matches_trapezoid_roc_area(self, rng):
        probs = rng.random(200)
        labels = (probs + rng.normal(0, 0.3, 200) > 0.5).astype(int)
        if labels.sum() in (0, 200):
            return
        points = roc_points(probs, labels)
        fpr = np.array([p[0] for p in points])
        tpr = np.array([p[1] for p in points])
        area = np.trapezoid(tpr, fpr)
        assert auc(probs, labels) == pytest.approx(area, abs=1e-9)


class TestRocPoints:
    def test_monotone_and_terminal(self, rng):
        probs = rng.random(100)
        labels = rng.integers(0, 2, 100)
        labels[0], labels[1] = 0, 1
        pts = roc_points(probs, labels)
        fpr = [p[0] for p in pts]
        tpr = [p[1] for p in pts]
        assert fpr == sorted(fpr)
        assert tpr == sorted(tpr)
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)


class TestForecastMetrics:
    def test_identical_is_zero(self):
        assert forecast_metrics([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_uniform_ten_percent(self):
        actual = np.array([10.0, 20.0, 30.0])
        mdape, _ = forecast_metrics(actual * 1.1, actual)
        assert mdape == pytest.approx(10.0)

    def test_hand_arithmetic(self):
        mdape, rmse = forecast_metrics([1.0, 2.0], [2.0, 2.0])
        assert mdape == pytest.approx(25.0)
        assert rmse == pytest.approx(math.sqrt(0.5))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            forecast_metrics([1.0], [1.0, 2.0])


class TestReplay:
    def test_stationary_series_rarely_retunes(self):
        rng = np.random.default_rng(5)
        t = np.arange(480)
        values = 10 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, 480)
        lbs = LabeledBenchSeries(
            name="flat",
            series=TimeSeries.from_values(values, step=3600),
            anomaly_windows=(),
            point_labels=np.zeros(480, dtype=np.int8),
        )
        records, retunes = replay(lbs, tune_budget=10, seed=0)
        assert retunes <= 1
        assert len(records) == 480 - 96  # everything after the warmup

    def test_regime_change_forces_retune(self):
        rng = np.random.default_rng(6)
        t = np.arange(480)
        values = 10 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, 480)
        values[240:] *= 3.0
        lbs = LabeledBenchSeries(
            name="drift",
            series=TimeSeries.from_values(values, step=3600),
            anomaly_windows=(),
            point_labels=np.zeros(480, dtype=np.int8),
        )
        _, retunes = replay(lbs, tune_budget=10, seed=0)
        assert retunes >= 1


class TestFixturesAndReport:
    def test_fixture_rows_and_missing_marking(self, tmp_path):
        config = BenchConfig(
            out_dir=str(tmp_path / "report"),
            nab_dir=None,
            datasets=("nyc_taxi",),
            freqs=("daily",),
            include_fixtures=True,
            tune_budget=10,
        )
        report = run_benchmark(config)
        status = {(r["dataset"], r["freq"]): r["status"] for r in report.auc_rows}
        assert status[("nyc_taxi", "daily")] == "missing"
        assert status[("fixture_seasonal_spikes", "daily")] == "ok"
        auc_csv = (tmp_path / "report" / "auc.csv").read_text()
        assert "0.65151" in auc_csv  # published reference emitted for the missing row
        assert (tmp_path / "report" / "forecast.csv").exists()
        assert (tmp_path / "report" / "roc_points.csv").exists()

    def test_rolling_origin_skips_anomalous_targets(self):
        fx = fixture_datasets(0)["fixture_seasonal_spikes"]
        hourly = aggregate_labeled(fx, "hourly")
        preds, actuals = rolling_origin_forecast(hourly, horizon=24, warmup=96)
        assert preds.size == actuals.size > 0
        # every kept target is non-anomalous by construction; MDAPE is small
        mdape, _ = forecast_metrics(preds, actuals)
        assert mdape < 10.0


@needs_nab
class TestRealNab:
    def test_machine_temperature_hourly_auc(self):
        lbs = load_nab(
            NAB_DIR / NAB_DATA_PATHS["machine_temperature_system_failure"],
            NAB_DIR / NAB_WINDOWS_FILE,
        )
        hourly = aggregate_labeled(lbs, "hourly")
        records, _ = replay(hourly, tune_budget=16, seed=0)
        probs, labels = align_labels(hourly, records)
        assert auc(probs, labels) >= 0.90
