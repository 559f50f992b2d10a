import csv
import json
import math

import numpy as np
import pytest

import autoad.evaluation as ev
import autoad.filtering as filtering
import autoad.optimizer as optimizer
import autoad.orchestrator as orch
from autoad.errors import DuplicateId, InvalidSpec, NonConvergence
from autoad.orchestrator import Engine, JobSpec, series_to_doc, series_from_doc
from autoad.profiling import profile
from autoad.series import TimeSeries
from autoad.structural import StructuralModel, forecast

from .conftest import stored_doc


def make_series(n=480, seed=0, shift_at=None, shift_factor=3.0, step=3600):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = 10 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n)
    if shift_at is not None:
        values[shift_at:] *= shift_factor
    return TimeSeries.from_values(values, step=step)


def count_profiles(monkeypatch) -> list:
    """Count every profile the engine or the tuner builds from now on."""
    calls = []

    def counted(ts):
        calls.append(len(ts))
        return profile(ts)

    monkeypatch.setattr(orch, "profile_series", counted)
    monkeypatch.setattr(optimizer, "profile_series", counted)
    return calls


def count_noise_scans(monkeypatch) -> list:
    """Count every noise-ratio scan a filter fit runs from now on."""
    calls = []
    scan = filtering._select_noise

    def counted(y, state_dim):
        calls.append(y.size)
        return scan(y, state_dim)

    monkeypatch.setattr(filtering, "_select_noise", counted)
    return calls


def failing_fit(*args, **kwargs):
    raise NonConvergence("forced failure")


def mark_red(engine, at):
    """Hand-write a red health document into ``engine``'s store at a
    checkpoint; returns an engine reopened on the store, which reads it."""
    health = {"at": at, "snapshot": {"mv_avg": 0, "em_avg": 0, "anomaly_rate": 1.0,
                                      "consecutive_anomalies": 9, "coefficient_of_variation": 0,
                                      "model_age_fraction": 0.1, "health": "R"}}
    stored_doc(engine.root, "health/m1.json", health)
    engine.close()
    return Engine(engine.root, tune_budget=engine.tune_budget, print_alerts=engine.print_alerts,
                  seed=engine.seed)


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
    return Engine(tmp_path / "data", tune_budget=10, seed=1)


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

    @pytest.mark.parametrize("bad", [7, None, "", "sub/m", "../escaped", "a\0b"])
    @pytest.mark.parametrize("field", ["job_id", "metric_id"])
    def test_ids_that_name_no_file_in_the_store_are_refused(self, field, bad):
        """An id names files under the data directory: one that is not a
        string, or that holds a '/' or a NUL, would write elsewhere or fail
        at every cycle."""
        ids = {"job_id": "j", "metric_id": "m", field: bad}
        with pytest.raises(InvalidSpec, match=field):
            JobSpec(**ids, source="x.csv", train_every=48)

    def test_ids_with_csv_specials_stay_valid(self, engine):
        spec = job_for(make_series(100), metric='cpu,"eu"\r\n', job="j 1,\"x\"")
        assert engine.register_job(spec) == spec.job_id
        assert engine.jobs() == [spec]

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
        engine = mark_red(engine, 96)  # force a red label, then retrain
        report = engine.run_training_cycle(144)
        assert report[0]["tuned"] is True
        assert engine.tune_generation("m1") == 1
        assert (engine.root / "tunes" / "m1-g1.json").exists()

    def test_tune_budget_below_the_floor_is_refused(self, tmp_path):
        """A budget the tuner would refuse is refused when the engine opens,
        before it touches the directory, not at the first retune."""
        with pytest.raises(ValueError, match="tune_budget"):
            Engine(tmp_path / "store", tune_budget=optimizer.MIN_BUDGET - 1)
        assert not (tmp_path / "store").exists()

    def test_structural_failure_falls_back_to_filtering(self, engine, monkeypatch):
        engine.register_job(job_for(make_series()))
        monkeypatch.setattr(optimizer, "fit_structural", failing_fit)
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
        report = engine.run_training_cycle(96)
        by_metric = {r["metric_id"]: r for r in report}
        assert by_metric["good"]["status"] in ("trained", "trained_fallback")
        assert by_metric["bad"]["status"] == "failed"
        assert engine._scoring_state("bad")["last_training_error"] == by_metric["bad"]["error"]
        assert "missing.csv" in by_metric["bad"]["error"]

    def test_infinite_inline_value_fails_only_its_metric(self, engine):
        engine.register_job(job_for(make_series(), metric="good", job="jg"))
        doc = series_to_doc(make_series())
        doc["values"][250] = math.inf
        engine.register_job(JobSpec(job_id="jb", metric_id="bad", source={"inline": doc},
                                    train_every=48, score_every=1, model_ttl=96))
        engine.advance_clock(120)
        assert engine._scoring_state("bad")["last_training_error"] == "values must be finite or NaN (missing)"
        assert engine._active_record("bad") is None
        assert not (engine.root / "scores" / "bad.csv").exists()
        assert (engine.root / "scores" / "good.csv").exists()

    def test_profile_only_where_the_fit_reads_it(self, engine, monkeypatch):
        calls = count_profiles(monkeypatch)
        engine.register_job(job_for(make_series()))
        engine.run_training_cycle(96)
        assert len(calls) == 1  # the default config reads it
        assert engine._active_record("m1")["method"] == "structural"
        engine.run_training_cycle(144)
        assert len(calls) == 2  # a structural refit reads it
        engine = mark_red(engine, 144)
        report = engine.run_training_cycle(192)
        assert report[0]["tuned"] is True
        assert len(calls) == 3  # tune's own profile serves the fit

    def test_filter_refit_does_not_profile(self, engine, monkeypatch):
        engine.register_job(job_for(make_series()))
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "fit_structural", failing_fit)
            assert engine.run_training_cycle(96)[0]["status"] == "trained_fallback"
        assert engine._active_record("m1")["method"] == "filtering"
        calls = count_profiles(monkeypatch)
        report = engine.run_training_cycle(144)
        assert report[0]["status"] == "trained"
        assert report[0]["method"] == "filtering"
        assert calls == []

    def test_only_a_first_training_or_a_retune_scans_for_the_noise_ratio(self, engine, monkeypatch):
        engine.register_job(job_for(make_series()))
        monkeypatch.setattr(optimizer, "fit_structural", failing_fit)
        scans = count_noise_scans(monkeypatch)
        assert engine.run_training_cycle(96)[0]["status"] == "trained_fallback"
        assert len(scans) == 1  # the first training's fallback filter
        first = engine._active_record("m1")["payload"]

        report = engine.run_training_cycle(144)
        assert (report[0]["status"], report[0]["method"]) == ("trained", "filtering")
        assert len(scans) == 1  # a refit keeps the model's ratio
        kept = engine._active_record("m1")["payload"]
        assert filtering.scan_ratio(kept["Q"][0][0], kept["R"]) == \
            filtering.scan_ratio(first["Q"][0][0], first["R"])
        engine.store.commit(144)  # so the reopened engine's retune replaces the stored filter

        after_tune = []

        def counted_tune(*args, **kwargs):
            result = optimizer.tune(*args, **kwargs)
            after_tune.append(len(scans))
            return result

        monkeypatch.setattr(orch, "tune", counted_tune)
        engine = mark_red(engine, 144)
        report = engine.run_training_cycle(192)
        assert report[0]["tuned"] is True and report[0]["method"] == "filtering"
        assert after_tune[0] > 1  # the tuner's cost scans too
        assert len(scans) == after_tune[0] + 1  # and so does the retuned fit

    def test_one_active_model_per_metric(self, engine):
        engine.register_job(job_for(make_series()))
        engine.run_training_cycle(96)
        first = engine._active_record("m1")["model_id"]
        engine.run_training_cycle(144)
        second = engine._active_record("m1")["model_id"]
        assert first != second  # superseded, single active document

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
        spec = job_for(series, metric="flat", job="jf", train_every=48, ttl=96)
        engine.register_job(spec)
        engine.run_training_cycle(96)
        records = engine.run_scoring_cycle(97)
        assert records[0]["probability"] <= 1e-9
        assert engine.alerts(spec) == []

    def test_spike_alerts(self, engine):
        series = make_series()
        values = series.values.copy()
        values[100] += 50.0  # enormous spike well past any forecast band
        spiked = TimeSeries.from_values(values, step=3600)
        spec = job_for(spiked, metric="spiky", job="js")
        engine.register_job(spec)
        engine.run_training_cycle(96)
        records = []
        for t in range(97, 102):
            records.extend(engine.run_scoring_cycle(t))
        spike_rec = [r for r in records if r["observed"] > 40][0]
        assert spike_rec["probability"] > 0.999
        alerts = [json.loads(a) for a in engine.alerts(spec)]
        assert [(a["timestamp"], a["anomaly_probability"]) for a in alerts] == \
            [(r["timestamp"], r["probability"]) for r in records if r["probability"] >= spec.alert_threshold]
        assert any(a["observed"] > 40 for a in alerts)
        assert not (engine.root / "alerts").exists()  # no file holds them

    def test_a_model_scores_through_its_ttl_and_no_later(self, engine):
        """A model scores the points of its TTL, through tick expires_at,
        and nothing after; the scoring cycle puts no health document."""
        engine.register_job(job_for(make_series(), train_every=48, ttl=48))
        engine.run_training_cycle(96)
        records = engine.run_scoring_cycle(144)  # expires_at == 96 + 48
        assert [r["timestamp"] for r in records] == [3600 * i for i in range(96, 144)]
        assert engine.run_scoring_cycle(145) == engine.run_scoring_cycle(160) == []
        assert engine._scoring_state("m1")["last_scored"] == 144
        assert engine.store.doc("health/m1.json") is None

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

    def test_a_metric_whose_every_training_fails_is_red(self, tmp_path, monkeypatch):
        """A metric whose source is missing never gets a model: every
        evaluation from its first training on labels it R, naming the
        error, and the healthy metric beside it scores as it would alone."""

        def fleet(root, with_failing):
            eng = Engine(root, tune_budget=10, seed=1)
            eng.register_job(job_for(make_series(seed=1), metric="good", job="jg"))
            if with_failing:
                eng.register_job(JobSpec(job_id="jb", metric_id="bad", source=str(tmp_path / "missing.csv"),
                                         train_every=48, score_every=1, model_ttl=96))
            return eng

        with fleet(tmp_path / "alone", False) as alone:
            alone.advance_clock(480)
        engine = fleet(tmp_path / "fleet", True)
        evaluate, labels = engine.run_evaluation_cycle, {}

        def recorded(now):
            snapshots = evaluate(now)
            labels[now] = (snapshots["bad"].health, engine.store.doc("health/bad.json")["reason"])
            return snapshots

        monkeypatch.setattr(engine, "run_evaluation_cycle", recorded)
        engine.advance_clock(480)
        engine.close()
        assert sorted(labels) == list(range(96, 481, 48))
        for health, reason in labels.values():
            assert health == "R"
            assert reason.startswith("training failed: ") and "missing.csv" in reason
        assert engine._active_record("bad") is None
        good = "scores/good.csv"
        assert (engine.root / good).read_bytes() == (alone.root / good).read_bytes()

    def test_a_metric_whose_every_fit_fails_tunes_once(self, tmp_path, monkeypatch):
        """A metric whose every fit fails is labelled R at every evaluation
        from its first training on.  Its first retune is never published,
        so later trainings refit with the default config rather than tune
        again; the healthy metric beside it scores as it would alone."""
        fit = orch.train_detector

        def fit_unless_minutely(window, *args, **kwargs):
            if window.step == 60:  # the failing metric's series, sampled each minute
                raise NonConvergence("forced fit failure")
            return fit(window, *args, **kwargs)

        def fleet(root, with_failing):
            eng = Engine(root, tune_budget=10, seed=1)
            eng.register_job(job_for(make_series(seed=1), metric="good", job="jg"))
            if with_failing:
                eng.register_job(job_for(make_series(seed=2, step=60), metric="bad", job="jb"))
            return eng

        with fleet(tmp_path / "alone", False) as alone:
            alone.advance_clock(480)
        monkeypatch.setattr(orch, "train_detector", fit_unless_minutely)
        engine = fleet(tmp_path / "fleet", True)
        evaluate, labels = engine.run_evaluation_cycle, {}

        def recorded(now):
            snapshots = evaluate(now)
            labels[now] = snapshots["bad"].health
            return snapshots

        monkeypatch.setattr(engine, "run_evaluation_cycle", recorded)
        engine.advance_clock(480)
        engine.close()
        assert labels == {now: "R" for now in range(96, 481, 48)}
        assert [p.name for p in (engine.root / "tunes").glob("bad-g*.json")] == ["bad-g1.json"]
        assert engine.tune_generation("bad") == 1
        assert engine._active_record("bad") is None
        good = "scores/good.csv"
        assert (engine.root / good).read_bytes() == (alone.root / good).read_bytes()

    def test_expired_structural_model_is_judged_at_its_last_served_step(self, engine, monkeypatch):
        """Training that keeps failing leaves the structural model past its
        TTL; the evaluation then judges by the stored table's last row,
        step ttl - 1, the newest point the model scored."""
        engine.register_job(job_for(make_series(), ttl=100))
        engine.advance_clock(96)
        record = engine._active_record("m1")
        assert record["method"] == "structural"

        def boom(*args, **kwargs):
            raise RuntimeError("forced training failure")

        monkeypatch.setattr(orch, "train_detector", boom)
        engine.advance_clock(144)  # trainings at 144, 192 and 240 fail; the model expires at 196
        assert engine._active_record("m1")["model_id"] == record["model_id"]
        assert engine._scoring_state("m1")["last_training_error"] == "forced training failure"
        # tick 240's evaluation labelled the metric itself, naming the training's error
        assert stored_doc(engine.root, "health/m1.json")["reason"] == "training failed: forced training failure"

        ttl = record["expires_at"] - record["published_at"]
        assert 240 - record["published_at"] > ttl
        assert engine._scoring_state("m1")["last_scored"] == record["expires_at"]
        model = StructuralModel.from_dict(record["payload"])
        table = forecast(model, ttl, transformed=True)
        assert engine._detector(record).predictive(ttl - 1) == table[ttl - 1]
        # the curves judge the stable scores by that row's level sets
        spec = engine.jobs()[0]
        log = engine._score_log("m1")
        scores = log.stable_scores(spec.alert_threshold, guard=5)
        obs = log.observations()
        span = obs.max() - obs.min()
        domain = (obs.min() - 0.1 * span, obs.max() + 0.1 * span)
        mean, std = table[ttl - 1]
        offset = model.log_offset if model.log_scale else None
        volume = lambda us: ev.level_set_volume(us, mean, std, domain, offset)
        mv, em = engine.metric_curves(spec, 240)
        assert mv == ev.mv_curve(volume, scores, ev.default_alphas())
        assert em == ev.em_curve(volume, scores, ev.default_em_ts(scores, domain))

    def test_fleet_labels_quiet_vs_drifted(self, tmp_path):
        eng = Engine(tmp_path / "fleet", tune_budget=10, seed=1)
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
        eng = Engine(root, tune_budget=10)
        eng.register_job(job_for(make_series()))
        eng.advance_clock(10)
        eng2 = Engine(root, tune_budget=10)
        assert eng2.now == 10


class TestSelfAwareness:
    def test_drift_triggers_retune_then_recovers(self, tmp_path):
        eng = Engine(tmp_path / "drift", tune_budget=12, seed=1)
        spec = job_for(make_series(seed=0, shift_at=240), metric="drift", job="jd")
        eng.register_job(spec)
        healths = []
        for _ in range(10):
            eng.advance_clock(48)
            doc = stored_doc(eng.root, "health/drift.json")
            if doc:
                healths.append((eng.now, doc["snapshot"]["health"]))
        assert ("240", "G") not in healths  # sanity: tuples hold ints
        trace = dict(healths)
        assert trace[240] == "G"
        assert trace[288] == "R"  # within 48 post-shift scores
        assert eng.tune_generation("drift") >= 1
        assert trace[480] == "G"  # leaves R after the retune

    def test_stationary_control_stays_green(self, tmp_path):
        eng = Engine(tmp_path / "flat", tune_budget=12, seed=1)
        eng.register_job(job_for(make_series(seed=0), metric="flat", job="jf"))
        eng.advance_clock(480)
        assert eng.tune_generation("flat") <= 1
        doc = stored_doc(eng.root, "health/flat.json")
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
        eng = Engine(tmp_path / "store", tune_budget=10)
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

    def test_printed_alerts(self, tmp_path, capsys):
        eng = Engine(tmp_path / "s", tune_budget=10, print_alerts=True)
        eng.register_job(self._spiked_job())
        eng.advance_clock(101)
        out = capsys.readouterr().out
        assert '"metric_id": "ch"' in out
        assert "channel" not in out

    def test_printed_alerts_are_the_view(self, tmp_path, capsys):
        """An alert is printed as its row is scored, and the line is byte
        for byte the one the view reads back."""
        eng = Engine(tmp_path / "s", tune_budget=10, print_alerts=True)
        spec = self._spiked_job()
        eng.register_job(spec)
        eng.advance_clock(101)
        printed = capsys.readouterr().out.splitlines()
        assert printed
        assert printed == eng.alerts(spec)

    def test_alerts_are_not_printed_by_default(self, tmp_path, capsys):
        eng = Engine(tmp_path / "s", tune_budget=10)
        spec = self._spiked_job()
        eng.register_job(spec)
        eng.advance_clock(101)
        assert eng.alerts(spec) and capsys.readouterr().out == ""
