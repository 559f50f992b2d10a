"""The engine's in-memory store: caches, restarts, gaps and failure isolation."""

import csv
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autoad.orchestrator as orch
from autoad.errors import NonConvergence
from autoad.orchestrator import Engine
from autoad.series import TimeSeries

from .test_orchestrator import job_for, make_series

RESTART_TICKS = 400


def fleet_engine(root) -> Engine:
    return Engine(root, tune_budget=10, n_mc=2000, seed=1)


def register_fleet(engine: Engine) -> None:
    engine.register_job(job_for(make_series(seed=1), metric="quiet", job="j1"))
    engine.register_job(job_for(make_series(seed=2, shift_at=240), metric="drifted", job="j2"))


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def score_rows(engine: Engine, metric: str) -> list[dict]:
    path = engine.root / "scores" / f"{metric}.csv"
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_log(engine: Engine, metric: str) -> list[tuple]:
    return [(int(r["timestamp"]), float(r["probability"]), float(r["observed"]))
            for r in score_rows(engine, metric)][-orch.LOG_WINDOW:]


@pytest.fixture(scope="module")
def single_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("single")
    engine = fleet_engine(root)
    register_fleet(engine)
    engine.advance_clock(RESTART_TICKS)
    assert engine.tune_generation("drifted") >= 1  # the run covers a retune
    return snapshot(root)


class TestRestart:
    @settings(max_examples=5, deadline=None)
    @example(cuts=[97, 247])
    @given(cuts=st.lists(st.integers(1, RESTART_TICKS - 1), max_size=4, unique=True))
    def test_chunked_run_with_restarts_matches_single_run(self, single_run, cuts):
        bounds = [0, *sorted(cuts), RESTART_TICKS]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            register_fleet(fleet_engine(root))
            for a, b in zip(bounds, bounds[1:]):
                fleet_engine(root).advance_clock(b - a)
            assert snapshot(root) == single_run

    def test_rebuilt_log_equals_memory(self, tmp_path):
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.advance_clock(300)
        fresh = fleet_engine(tmp_path)
        for metric in ("quiet", "drifted"):
            assert fresh._score_log(metric).entries == engine._score_log(metric).entries
            assert len(engine._score_log(metric).entries) == 300 - 96


class TestCaches:
    def test_registration_after_cached_jobs_is_seen(self, tmp_path):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(seed=1), metric="a", job="ja"))
        assert [s.metric_id for s in engine.jobs()] == ["a"]
        engine.advance_clock(10)
        engine.register_job(job_for(make_series(seed=2), metric="b", job="jb"))
        assert [s.metric_id for s in engine.jobs()] == ["a", "b"]
        engine.advance_clock(90)
        assert engine._active_record("b") is not None
        assert engine._scoring_state("b")["last_scored"] == 100

    def test_hand_written_health_is_honoured_with_warm_caches(self, tmp_path):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(100)
        doc = json.loads(engine._health_path("m1").read_text())
        doc["snapshot"]["health"] = "R"
        engine._health_path("m1").write_text(json.dumps(doc))
        report = engine.run_training_cycle(101, force=True)
        assert report[0]["tuned"] is True
        assert engine.tune_generation("m1") == 1

    def test_state_document_has_no_log(self, tmp_path):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(100)
        state = json.loads(engine._state_path("m1").read_text())
        assert set(state) == {"origin", "last_scored", "filter_state",
                              "tune_generation", "last_training_failed"}
        assert state["last_scored"] == 100

    def test_old_state_log_is_ignored(self, tmp_path):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(100)
        path = engine._state_path("m1")
        state = json.loads(path.read_text())
        path.write_text(json.dumps({**state, "log": [[0, 0.5, 1.0]]}))
        fresh = fleet_engine(tmp_path)
        assert "log" not in fresh._scoring_state("m1")
        assert fresh._score_log("m1").entries == csv_log(fresh, "m1")


def gapped_series(start=100, length=6):
    series = make_series()
    values = series.values.copy()
    values[start:start + length] = np.nan
    return TimeSeries.from_values(values, step=series.step, start_epoch=series.start_epoch)


class TestMissingObservations:
    @pytest.mark.parametrize("method", ["structural", "filtering"])
    def test_gap_is_skipped_without_advancing_the_model(self, tmp_path, monkeypatch, method):
        if method == "filtering":
            def boom(*args, **kwargs):
                raise NonConvergence("forced failure")

            monkeypatch.setattr(orch, "fit_structural", boom)
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(gapped_series()))
        engine.run_training_cycle(96, force=True)
        assert engine._active_record("m1")["method"] == method
        assert len(engine.run_scoring_cycle(100)) == 4
        before = engine._scoring_state("m1")["filter_state"]
        assert engine.run_scoring_cycle(106) == []
        state = engine._scoring_state("m1")
        assert state["last_scored"] == 106
        assert state["filter_state"] == before
        assert len(engine.run_scoring_cycle(110)) == 4
        stamps = [int(r["timestamp"]) for r in score_rows(engine, "m1")]
        epoch, step = make_series().start_epoch, make_series().step
        assert stamps == [epoch + i * step for i in (*range(96, 100), *range(106, 110))]
        assert not engine._health_path("m1").exists()  # no failure forced it red

    @pytest.mark.parametrize("method", ["structural", "filtering"])
    def test_batch_cadence_writes_the_same_scores(self, tmp_path, monkeypatch, method):
        """Scoring every tick and every sixth tick write the same bytes; the
        batch at tick 204 covers indices 198..203, with a gap at 200..202."""
        if method == "filtering":
            def boom(*args, **kwargs):
                raise NonConvergence("forced failure")

            monkeypatch.setattr(orch, "fit_structural", boom)
        written = {}
        for every in (1, 6):
            engine = fleet_engine(tmp_path / f"every{every}")
            spec = dataclasses.replace(job_for(gapped_series(start=200, length=3)), score_every=every)
            engine.register_job(spec)
            engine.advance_clock(300)
            assert engine._active_record("m1")["method"] == method
            written[every] = engine._scores_path("m1").read_bytes()
        assert written[1] == written[6]
        assert written[1].count(b"\n") == 1 + 300 - 96 - 3

    def test_clock_runs_through_a_gap(self, tmp_path):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(gapped_series(start=150), metric="gap", job="jg"))
        engine.register_job(job_for(make_series(seed=3), metric="ok", job="jo"))
        engine.advance_clock(200)
        assert engine.now == 200
        assert len(score_rows(engine, "gap")) == 200 - 96 - 6
        assert len(score_rows(engine, "ok")) == 200 - 96
        assert all(math.isfinite(float(r["probability"])) for r in score_rows(engine, "gap"))


class TestFailureIsolation:
    def test_scoring_failure_drops_cache_and_spares_other_metrics(self, tmp_path, monkeypatch):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(seed=1), metric="bad", job="jb"))
        engine.register_job(job_for(make_series(seed=2), metric="good", job="jg"))
        engine.run_training_cycle(96, force=True)
        engine.run_scoring_cycle(100)
        original = engine._finish_score
        calls = {"bad": 0}

        def flaky(spec, *args):
            if spec.metric_id == "bad":
                calls["bad"] += 1
                if calls["bad"] == 5:
                    raise RuntimeError("injected")
            return original(spec, *args)

        monkeypatch.setattr(engine, "_finish_score", flaky)
        records = engine.run_scoring_cycle(110)
        assert {r["metric_id"] for r in records} == {"good"}
        assert engine._score_log("bad").entries == csv_log(engine, "bad")
        assert engine._scoring_state("bad")["last_scored"] == 100
        doc = json.loads(engine._health_path("bad").read_text())
        assert doc["snapshot"]["health"] == "R"
        assert doc["reason"] == "scoring failed: injected"
        monkeypatch.setattr(engine, "_finish_score", original)
        assert len(engine.run_scoring_cycle(111)) == 11 + 1

    def test_training_failure_drops_cache(self, tmp_path, monkeypatch):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(100)

        def boom(*args, **kwargs):
            raise RuntimeError("store down")

        engine._scoring_state("m1")["last_scored"] = -1  # a change never written through
        monkeypatch.setattr(orch, "profile_series", boom)
        report = engine.run_training_cycle(101, force=True)
        assert report[0]["status"] == "failed"
        state = engine._scoring_state("m1")
        assert state["last_scored"] == 100
        assert state["last_training_failed"] is True

    def test_evaluation_failure_is_isolated(self, tmp_path, monkeypatch):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(seed=1), metric="bad", job="jb"))
        engine.register_job(job_for(make_series(seed=2), metric="good", job="jg"))
        engine.advance_clock(150)
        original = engine._curve_stats

        def flaky(spec, now):
            if spec.metric_id == "bad":
                raise RuntimeError("injected")
            return original(spec, now)

        monkeypatch.setattr(engine, "_curve_stats", flaky)
        snaps = engine.run_evaluation_cycle(150)
        assert snaps["bad"].health == "R"
        assert snaps["good"].health in "GY"
        doc = json.loads(engine._health_path("bad").read_text())
        assert doc["reason"] == "evaluation failed: injected"
