import csv
import json
import math

import numpy as np
import pytest

import autoad.optimizer as optimizer
import autoad.orchestrator as orch
from autoad.errors import DuplicateId, InvalidSpec, NonConvergence
from autoad.orchestrator import Engine, JobSpec, series_to_doc, series_from_doc
from autoad.series import TimeSeries, to_log
from autoad.stats import gaussian_anomaly_probability
from autoad.structural import StructuralModel, forecast


def make_series(n=480, seed=0, shift_at=None, shift_factor=3.0, step=3600):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = 10 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n)
    if shift_at is not None:
        values[shift_at:] *= shift_factor
    return TimeSeries.from_values(values, step=step)


def job_for(series, metric="m1", job="job1", train_every=48, ttl=96, **kw):
    return JobSpec(
        job_id=job,
        metric_id=metric,
        source={"inline": series_to_doc(series)},
        train_every=train_every,
        score_every=1,
        model_ttl=ttl,
        **kw,
    )


@pytest.fixture
def engine(tmp_path):
    return Engine(tmp_path / "data", tune_budget=10, n_mc=2000, seed=1)


class TestRegistry:
    def test_register_and_idempotent(self, engine):
        spec = job_for(make_series(100))
        assert engine.register_job(spec) == "job1"
        assert engine.register_job(spec) == "job1"
        assert len(engine.jobs()) == 1

    def test_conflicting_spec_rejected(self, engine):
        spec = job_for(make_series(100))
        engine.register_job(spec)
        other = job_for(make_series(100), train_every=24, ttl=48)
        with pytest.raises(DuplicateId):
            engine.register_job(other)

    def test_duplicate_metric_under_new_job(self, engine):
        engine.register_job(job_for(make_series(100)))
        with pytest.raises(DuplicateId):
            engine.register_job(job_for(make_series(100), job="job2"))

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            JobSpec(job_id="", metric_id="m", source="x.csv", train_every=48)
        with pytest.raises(InvalidSpec):
            JobSpec(job_id="j", metric_id="m", source="x.csv", train_every=4, score_every=8)
        with pytest.raises(InvalidSpec):
            JobSpec(job_id="j", metric_id="m", source="x.csv", train_every=48, model_ttl=10)

    def test_series_doc_round_trip(self):
        ts = TimeSeries.from_values([1.0, math.nan, 3.0], step=300)
        back = series_from_doc(series_to_doc(ts))
        assert back.step == 300
        assert math.isnan(back.values[1])


class TestTrainingCycle:
    def test_first_training_uses_default_config_without_tuning(self, engine):
        engine.register_job(job_for(make_series()))
        report = engine.run_training_cycle(96)
        assert report[0]["status"] == "trained"
        assert report[0]["tuned"] is False
        assert engine.tune_generation("m1") == 0
        record = engine._active_record("m1")
        assert record["expires_at"] == 96 + 96
        assert record["tune_generation"] == 0

    def test_red_health_triggers_tune(self, engine, tmp_path):
        engine.register_job(job_for(make_series()))
        engine.run_training_cycle(96)
        # force a red label, then retrain
        health = {"at": 96, "snapshot": {"mv_avg": 0, "em_avg": 0, "anomaly_rate": 1.0,
                                          "consecutive_anomalies": 9, "coefficient_of_variation": 0,
                                          "model_age_fraction": 0.1, "health": "R"}}
        engine._read_json  # readability no-op
        path = engine._health_path("m1")
        path.write_text(json.dumps(health))
        report = engine.run_training_cycle(144, force=True)
        assert report[0]["tuned"] is True
        assert engine.tune_generation("m1") == 1
        assert (engine.root / "tunes" / "m1-g1.json").exists()

    def test_structural_failure_falls_back_to_filtering(self, engine, monkeypatch):
        engine.register_job(job_for(make_series()))

        def boom(*args, **kwargs):
            raise NonConvergence("forced failure")

        monkeypatch.setattr(optimizer, "fit_structural", boom)
        report = engine.run_training_cycle(96)
        assert report[0]["status"] == "trained_fallback"
        assert report[0]["method"] == "filtering"
        assert "structural fit failed" in report[0]["error"]
        assert engine._active_record("m1")["method"] == "filtering"

    def test_per_metric_failures_are_isolated(self, engine, tmp_path):
        engine.register_job(job_for(make_series(), metric="good", job="jg"))
        bad_csv = tmp_path / "missing.csv"  # nonexistent source
        engine.register_job(
            JobSpec(job_id="jb", metric_id="bad", source=str(bad_csv), train_every=48)
        )
        report = engine.run_training_cycle(96, force=True)
        by_metric = {r["metric_id"]: r for r in report}
        assert by_metric["good"]["status"] in ("trained", "trained_fallback")
        assert by_metric["bad"]["status"] == "failed"
        assert engine._scoring_state("bad")["last_training_failed"] is True

    def test_one_active_model_per_metric(self, engine):
        engine.register_job(job_for(make_series()))
        engine.run_training_cycle(96)
        first = engine._active_record("m1")["model_id"]
        engine.run_training_cycle(144, force=True)
        second = engine._active_record("m1")["model_id"]
        assert first != second  # superseded, single active document

    def test_workers_do_not_change_results(self, tmp_path):
        results = []
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            eng = Engine(root, tune_budget=10, n_mc=2000, seed=1, workers=workers)
            for i in range(3):
                eng.register_job(
                    job_for(make_series(seed=i), metric=f"m{i}", job=f"job{i}")
                )
            eng.run_training_cycle(96, force=True)
            results.append(
                {m: eng._active_record(m)["payload"] for m in ("m0", "m1", "m2")}
            )
        assert results[0] == results[1]


class TestScoringCycle:
    def test_scores_flow_and_idempotence(self, engine):
        engine.register_job(job_for(make_series()))
        engine.run_training_cycle(96)
        records = engine.run_scoring_cycle(97)
        assert len(records) == 1
        assert records[0]["timestamp"] == make_series().start_epoch + 96 * 3600
        again = engine.run_scoring_cycle(97)
        assert again == []

    def test_no_model_is_skipped(self, engine):
        engine.register_job(job_for(make_series()))
        assert engine.run_scoring_cycle(10) == []

    def test_probability_zero_without_alert_at_forecast_mean(self, engine, tmp_path):
        # constant series: the forecast equals the constant, so scoring it
        # yields probability ~0 and no alert
        values = np.full(200, 25.0)
        series = TimeSeries.from_values(values, step=3600)
        engine.register_job(job_for(series, metric="flat", job="jf", train_every=48, ttl=96))
        engine.run_training_cycle(96, force=True)
        records = engine.run_scoring_cycle(97)
        assert records[0]["probability"] <= 1e-9
        assert not (engine.root / "alerts" / "flat.jsonl").exists()

    def test_spike_alerts(self, engine):
        series = make_series()
        values = series.values.copy()
        values[100] += 50.0  # enormous spike well past any forecast band
        spiked = TimeSeries.from_values(values, step=3600)
        engine.register_job(job_for(spiked, metric="spiky", job="js"))
        engine.run_training_cycle(96, force=True)
        records = []
        for t in range(97, 102):
            records.extend(engine.run_scoring_cycle(t))
        spike_rec = [r for r in records if r["observed"] > 40][0]
        assert spike_rec["probability"] > 0.999
        alerts = (engine.root / "alerts" / "spiky.jsonl").read_text().splitlines()
        assert any(json.loads(a)["observed"] > 40 for a in alerts)

    def test_expired_model_forces_red(self, engine):
        engine.register_job(job_for(make_series(), train_every=48, ttl=48))
        engine.run_training_cycle(96)
        engine.run_scoring_cycle(144)  # expires_at == 96 + 48
        doc = engine._read_json(engine._health_path("m1"))
        assert doc["snapshot"]["health"] == "R"
        assert doc["reason"] == "expired model"

    def test_score_csv_schema(self, engine):
        engine.register_job(job_for(make_series()))
        engine.run_training_cycle(96)
        engine.run_scoring_cycle(97)
        with open(engine.root / "scores" / "m1.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "metric_id", "timestamp", "observed", "expected",
            "probability", "is_anomaly", "model_id",
        ]


class TestEvaluationCycle:
    def test_empty_log_is_yellow(self, engine):
        engine.register_job(job_for(make_series()))
        snaps = engine.run_evaluation_cycle(10)
        assert snaps["m1"].health == "Y"

    def test_partition_covers_all_metrics(self, engine):
        for i in range(3):
            engine.register_job(job_for(make_series(seed=i), metric=f"m{i}", job=f"j{i}"))
        snaps = engine.run_evaluation_cycle(5)
        assert set(snaps) == {"m0", "m1", "m2"}
        assert all(s.health in "GYR" for s in snaps.values())

    def test_expired_structural_model_is_judged_on_a_fresh_forecast(self, engine, monkeypatch):
        """Training that keeps failing leaves the structural model past its
        TTL; the evaluation scorer then uses row horizon - 1 of
        forecast(model, horizon), past the stored table's end."""
        engine.register_job(job_for(make_series(), ttl=100))
        engine.advance_clock(96)
        record = engine._active_record("m1")
        assert record["method"] == "structural"

        def boom(*args, **kwargs):
            raise RuntimeError("forced training failure")

        monkeypatch.setattr(orch, "fit_detector", boom)
        engine.advance_clock(144)  # trainings at 144, 192 and 240 fail; the model expires at 196
        assert engine._active_record("m1")["model_id"] == record["model_id"]
        assert engine._scoring_state("m1")["last_training_failed"] is True
        # tick 240's evaluation labelled the metric itself, with no error
        assert "reason" not in engine._read_json(engine._health_path("m1"))

        horizon, ttl = 240 - record["published_at"], record["expires_at"] - record["published_at"]
        score_fn, _, domain = engine.metric_scorer(engine.jobs()[0], 240)
        model = StructuralModel.from_dict(record["payload"])
        table = forecast(model, horizon, transformed=True)
        mean, std = table[horizon - 1]
        assert horizon > ttl and table[ttl - 1] != (mean, std)
        values = np.linspace(*domain, 9)
        scaled = to_log(values, model.log_offset) if model.log_scale else values
        want = 1.0 - gaussian_anomaly_probability(scaled - mean, np.full_like(values, std))
        assert np.array_equal(score_fn(values), want)

    def test_fleet_labels_quiet_vs_drifted(self, tmp_path):
        eng = Engine(tmp_path / "fleet", tune_budget=10, n_mc=2000, seed=1)
        eng.register_job(job_for(make_series(seed=1), metric="quiet", job="j1"))
        eng.register_job(job_for(make_series(seed=2, shift_at=240), metric="drifted", job="j2"))
        eng.advance_clock(288)
        snaps = eng.run_evaluation_cycle(288)
        assert snaps["quiet"].health == "G"
        assert snaps["drifted"].health == "R"
        assert snaps["drifted"].anomaly_rate > 0.2


class TestClock:
    def test_training_fires_once_per_cadence(self, engine):
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)
        assert engine._active_record("m1") is not None
        first_id = engine._active_record("m1")["model_id"]
        engine.advance_clock(47)
        assert engine._active_record("m1")["model_id"] == first_id
        engine.advance_clock(1)
        assert engine._active_record("m1")["model_id"] != first_id

    def test_scoring_every_tick_after_model(self, engine):
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96 + 48)
        assert engine._scoring_state("m1")["last_scored"] == 144

    def test_score_before_train_at_coincident_tick(self, engine):
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)
        model_at_96 = engine._active_record("m1")["model_id"]
        engine.advance_clock(48)
        rows = []
        with open(engine.root / "scores" / "m1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # the observation at the coincident tick was scored by the old model
        last = rows[-1]
        assert last["model_id"] == model_at_96

    def test_clock_persists_across_engines(self, tmp_path):
        root = tmp_path / "persist"
        eng = Engine(root, tune_budget=10, n_mc=2000)
        eng.register_job(job_for(make_series()))
        eng.advance_clock(10)
        eng2 = Engine(root, tune_budget=10, n_mc=2000)
        assert eng2.now == 10


class TestSelfAwareness:
    def test_drift_triggers_retune_then_recovers(self, tmp_path):
        eng = Engine(tmp_path / "drift", tune_budget=12, n_mc=2000, seed=1)
        spec = job_for(make_series(seed=0, shift_at=240), metric="drift", job="jd")
        eng.register_job(spec)
        healths = []
        for _ in range(10):
            eng.advance_clock(48)
            doc = eng._read_json(eng._health_path("drift"))
            if doc:
                healths.append((eng.now, doc["snapshot"]["health"]))
        assert ("240", "G") not in healths  # sanity: tuples hold ints
        trace = dict(healths)
        assert trace[240] == "G"
        assert trace[288] == "R"  # within 48 post-shift scores
        assert eng.tune_generation("drift") >= 1
        assert trace[480] == "G"  # leaves R after the retune

    def test_stationary_control_stays_green(self, tmp_path):
        eng = Engine(tmp_path / "flat", tune_budget=12, n_mc=2000, seed=1)
        eng.register_job(job_for(make_series(seed=0), metric="flat", job="jf"))
        eng.advance_clock(480)
        assert eng.tune_generation("flat") <= 1
        doc = eng._read_json(eng._health_path("flat"))
        assert doc["snapshot"]["health"] == "G"


class TestStatus:
    def test_status_rows(self, engine):
        engine.register_job(job_for(make_series()))
        engine.advance_clock(100)
        rows = engine.status()
        assert rows[0]["metric_id"] == "m1"
        assert rows[0]["health"] in "GYR"
        assert rows[0]["method"] in ("structural", "filtering")


class TestSourcesAndChannels:
    def test_csv_file_source(self, tmp_path):
        from autoad.series import write_csv

        series = make_series(200)
        csv_path = tmp_path / "metric.csv"
        write_csv(series, csv_path)
        eng = Engine(tmp_path / "store", tune_budget=10, n_mc=2000)
        eng.register_job(
            JobSpec(job_id="jc", metric_id="csvm", source=str(csv_path), train_every=48)
        )
        eng.advance_clock(120)
        assert eng._active_record("csvm") is not None
        assert (eng.root / "scores" / "csvm.csv").exists()

    def _spiked_job(self):
        series = make_series()
        values = series.values.copy()
        values[100] += 50.0
        return job_for(TimeSeries.from_values(values, step=3600), metric="ch", job="jch")

    def test_stdout_channel(self, tmp_path, capsys):
        eng = Engine(tmp_path / "s", tune_budget=10, n_mc=2000, alert_channel="stdout")
        eng.register_job(self._spiked_job())
        eng.advance_clock(101)
        out = capsys.readouterr().out
        assert '"metric_id": "ch"' in out
        assert '"channel": "stdout"' in out

    def test_webhook_stub_channel(self, tmp_path):
        eng = Engine(tmp_path / "w", tune_budget=10, n_mc=2000, alert_channel="webhook_stub")
        eng.register_job(self._spiked_job())
        eng.advance_clock(101)
        outbox = eng.root / "alerts" / "webhook_outbox.jsonl"
        assert outbox.exists()
        event = json.loads(outbox.read_text().splitlines()[0])
        assert event["channel"] == "webhook_stub"
        assert event["anomaly_probability"] >= 0.95
