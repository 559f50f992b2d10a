"""The engine's in-memory store: caches, restarts, gaps and failure isolation."""

import csv
import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autoad.optimizer as optimizer
import autoad.orchestrator as orch
from autoad.errors import NonConvergence
from autoad.filtering import FilterState
from autoad.orchestrator import Engine
from autoad.series import TimeSeries

from .test_orchestrator import job_for, make_series

RESTART_TICKS = 400
TRAINING_TICKS = range(96, RESTART_TICKS + 1, 48)  # the fleet's checkpoint ticks
RETUNE_TICK = 336  # the drifted metric's first retune
STATE_KEYS = {"last_scored", "filter_state", "tune_generation", "last_training_failed"}
FILTER_STATE_KEYS = {"delays", "P_post", "w_sum", "eta_sum", "s_accum"}


def fleet_engine(root) -> Engine:
    return Engine(root, tune_budget=10, seed=1)


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


class Crash(BaseException):
    """A process dying mid-tick: no cycle's failure isolation catches it."""


def crash_after(engine: Engine, cycle: str, tick: int) -> None:
    """Make ``engine`` die right after its ``cycle`` has run at ``tick``."""
    original = getattr(engine, cycle)

    def crashing(now, *args, **kwargs):
        result = original(now, *args, **kwargs)
        if now == tick:
            raise Crash(f"{cycle} at {tick}")
        return result

    setattr(engine, cycle, crashing)


def finish_run(root: Path) -> None:
    engine = fleet_engine(root)
    engine.advance_clock(RESTART_TICKS - engine.now)


crash_points = st.one_of(
    st.tuples(st.just("run_scoring_cycle"), st.integers(1, RESTART_TICKS)),
    st.tuples(st.sampled_from(["run_training_cycle", "run_evaluation_cycle"]),
              st.sampled_from(TRAINING_TICKS)),
)


class TestCrashRecovery:
    @settings(max_examples=10, deadline=None)
    @example(point=("run_evaluation_cycle", 144))
    @example(point=("run_evaluation_cycle", 192))
    @example(point=("run_evaluation_cycle", 240))
    @example(point=("run_evaluation_cycle", 288))
    @example(point=("run_evaluation_cycle", 336))
    @given(point=crash_points)
    def test_restart_after_a_crashed_cycle_matches_single_run(self, single_run, point):
        cycle, tick = point
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            engine = fleet_engine(root)
            register_fleet(engine)
            crash_after(engine, cycle, tick)
            with pytest.raises(Crash):
                engine.advance_clock(RESTART_TICKS)
            assert fleet_engine(root).now == tick - 1
            finish_run(root)
            assert snapshot(root) == single_run

    def test_crash_at_every_write_of_a_checkpoint_tick(self, single_run, tmp_path, monkeypatch):
        """The retune tick's writes come in the order: appended rows and the
        tune, the commit record, the held documents, the checkpoint, the
        journal truncation.  A crash at any one of them restarts exactly."""
        base = tmp_path / "base"
        engine = fleet_engine(base)
        register_fleet(engine)
        engine.advance_clock(RETUNE_TICK - 1)
        originals = {kind: getattr(orch, kind) for kind in ("_append", "_atomic_write")}

        def run_tick(root, fail_at=None):
            """Tick RETUNE_TICK on a copy of ``base``; its store writes, in order."""
            shutil.copytree(base, root)
            writes = []
            for kind, original in originals.items():
                def write(path, data, kind=kind, original=original):
                    writes.append((kind, str(Path(path).relative_to(root))))
                    if len(writes) == fail_at:
                        raise Crash(f"write {fail_at}")
                    return original(path, data)

                monkeypatch.setattr(orch, kind, write)
            try:
                fleet_engine(root).advance_clock(1)
            finally:
                for kind, original in originals.items():
                    monkeypatch.setattr(orch, kind, original)
            return writes

        writes = run_tick(tmp_path / "probe")
        after_tick = snapshot(tmp_path / "probe")
        names = [name for _, name in writes]
        commit = names.index("journal.jsonl")
        assert writes[commit][0] == "_append"
        assert "tunes/drifted-g1.json" in names[:commit]
        assert {n.split("/")[0] for n in names[:commit]} <= {"scores", "alerts", "tunes"}
        assert [n.split("/")[0] for n in names[commit + 1:]] == [
            "health", "health", "models", "models", "state", "state", "meta.json", "journal.jsonl"]
        for k in range(1, len(writes) + 1):
            root = tmp_path / f"crash{k}"
            with pytest.raises(Crash):
                run_tick(root, fail_at=k)
            crashed = snapshot(root)
            engine = fleet_engine(root)
            assert snapshot(root) == crashed  # opening the store writes nothing
            assert engine.now == (RETUNE_TICK - 1 if k <= commit + 1 else RETUNE_TICK)
            if engine.now < RETUNE_TICK:
                engine.advance_clock(1)
            else:
                engine._repair()  # what the engine's first write starts with
            assert snapshot(root) == after_tick, f"crash at write {k}: {writes[k - 1]}"
            finish_run(root)
            assert snapshot(root) == single_run, f"crash at write {k}: {writes[k - 1]}"

    def test_torn_journal_line_and_uncommitted_rows_are_dropped(self, tmp_path):
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.advance_clock(300)
        committed = snapshot(tmp_path)
        with open(tmp_path / "journal.jsonl", "a") as fh:
            fh.write('{"docs":{"state/quiet.json":{"last_sc')
        with open(tmp_path / "scores" / "quiet.csv", "a") as fh:
            fh.write("quiet,1,2.0,2.0,0.5,0,quiet-t288-g0\r\n")
        (tmp_path / "alerts" / "fresh.jsonl").write_text("{}\n")
        torn = snapshot(tmp_path)
        fresh = fleet_engine(tmp_path)
        assert fresh.now == 300
        assert fresh._score_log("quiet").entries == engine._score_log("quiet").entries
        assert snapshot(tmp_path) == torn  # opening the store writes nothing
        fresh._repair()
        assert snapshot(tmp_path) == committed

    def test_engine_opened_mid_tick_changes_nothing(self, single_run, tmp_path):
        """An engine opened while another is inside a tick (``autoad status``
        beside ``autoad run``) sees the last committed tick and leaves the
        running engine's uncommitted rows and held documents alone."""
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        train = engine.run_training_cycle
        opened = []

        def open_reader_then_train(now, *args, **kwargs):
            before = snapshot(tmp_path)
            reader = fleet_engine(tmp_path)
            assert reader.now == now - 1
            scored = now - 1 if now > TRAINING_TICKS[0] else 0  # the first model comes at 96
            assert [row["last_scored"] for row in reader.status()] == [scored, scored]
            for metric in ("quiet", "drifted"):
                assert reader._score_log(metric).entries == engine._score_log(metric).entries[:-1]
            assert snapshot(tmp_path) == before
            opened.append(now)
            return train(now, *args, **kwargs)

        engine.run_training_cycle = open_reader_then_train
        engine.advance_clock(RESTART_TICKS)
        assert opened == list(TRAINING_TICKS)
        assert snapshot(tmp_path) == single_run

    def test_restart_after_a_red_label_between_checkpoints(self, tmp_path):
        """A scoring failure labels its metric R at a tick that does not
        train, so the health document waits in the journal; an engine opened
        after it writes the document and carries on as one that never stopped."""

        def fail_drifted_at_120(engine):
            original = engine._finish_score

            def flaky(spec, *args):
                if spec.metric_id == "drifted" and engine.now == 120:
                    raise RuntimeError("injected")
                return original(spec, *args)

            engine._finish_score = flaky

        single, restarted = tmp_path / "single", tmp_path / "restarted"
        engine = fleet_engine(single)
        register_fleet(engine)
        fail_drifted_at_120(engine)
        engine.advance_clock(200)
        engine = fleet_engine(restarted)
        register_fleet(engine)
        fail_drifted_at_120(engine)
        engine.advance_clock(130)
        assert '"health/drifted.json"' in (restarted / "journal.jsonl").read_text()
        engine = fleet_engine(restarted)
        engine.advance_clock(70)  # through the retune at 144 and the checkpoint at 192
        assert engine.tune_generation("drifted") >= 1
        assert snapshot(restarted) == snapshot(single)

    def test_scoring_tick_appends_one_journal_line_and_writes_no_document(self, tmp_path, monkeypatch):
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.advance_clock(96)
        writes = []
        for kind in ("_append", "_atomic_write"):
            def write(path, data, kind=kind, original=getattr(orch, kind)):
                writes.append((kind, str(Path(path).relative_to(tmp_path))))
                return original(path, data)

            monkeypatch.setattr(orch, kind, write)
        engine.advance_clock(47)  # ticks 97..143 score and do not train
        assert sorted(set(writes)) == [("_append", "alerts/drifted.jsonl"), ("_append", "alerts/quiet.jsonl"),
                                       ("_append", "journal.jsonl"), ("_append", "scores/drifted.csv"),
                                       ("_append", "scores/quiet.csv")]
        assert writes.count(("_append", "journal.jsonl")) == 47
        assert writes.count(("_append", "scores/quiet.csv")) == 47

    def test_same_tick_training_sees_the_red_label_scoring_held(self, tmp_path):
        """A model expiring at a training tick is labelled R by that tick's
        scoring cycle; the training cycle that follows reads the label before
        it is written and retunes."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(), train_every=48, ttl=48))
        engine.advance_clock(144)  # the model of tick 96 expires at 144
        assert engine.tune_generation("m1") == 1
        assert (tmp_path / "tunes" / "m1-g1.json").exists()

    def test_cycles_called_on_their_own_commit(self, tmp_path):
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.run_training_cycle(96, force=True)
        for tick in range(97, 104):
            engine.run_scoring_cycle(tick)
        engine.run_evaluation_cycle(103)
        assert (tmp_path / "journal.jsonl").read_bytes() == b""  # each one checkpoints
        fresh = fleet_engine(tmp_path)
        assert fresh.now == 0
        for metric in ("quiet", "drifted"):
            assert fresh._scoring_state(metric) == engine._scoring_state(metric)
            assert fresh._active_record(metric)["model_id"] == engine._active_record(metric)["model_id"]
            assert fresh._score_log(metric).entries == engine._score_log(metric).entries
            assert json.loads(fresh._health_path(metric).read_text())["at"] == 103


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
        assert set(state) == STATE_KEYS
        # the file is the checkpoint of tick 96; ticks 97..100 are redone from the journal
        assert fleet_engine(tmp_path)._scoring_state("m1")["last_scored"] == 100

    @pytest.mark.parametrize("stale", ["log", "origin", "filter_prior"])
    def test_old_state_log_is_ignored(self, tmp_path, monkeypatch, stale):
        """A checkpointed state document of a filter model that holds what
        older stores kept there (the score log, the training tick, the
        filter's predicted state and last residual) loads with the keys of
        a fresh state only, and the run carries on as one that never had
        them."""
        def boom(*args, **kwargs):
            raise NonConvergence("forced failure")

        monkeypatch.setattr(optimizer, "fit_structural", boom)
        old, straight = tmp_path / "old", tmp_path / "straight"
        engine = fleet_engine(old)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)  # a checkpoint tick: the files hold the whole store
        assert engine._active_record("m1")["method"] == "filtering"
        path = engine._state_path("m1")
        state = json.loads(path.read_text())
        filter_state = state["filter_state"]
        path.write_text(json.dumps({
            "log": {**state, "log": [[0, 0.5, 1.0]]},
            "origin": {**state, "origin": 96},
            "filter_prior": {**state, "filter_state": {
                **filter_state, "x_prior": filter_state["delays"][:1],
                "P_prior": filter_state["P_post"], "eta": 0.5}},
        }[stale]))
        fresh = fleet_engine(old)
        assert set(fresh._scoring_state("m1")) == STATE_KEYS
        assert fresh._score_log("m1").entries == csv_log(fresh, "m1")
        fresh.advance_clock(48)  # to the next checkpoint
        engine = fleet_engine(straight)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(144)
        assert snapshot(old) == snapshot(straight)

    def test_filter_state_stored_as_posterior_converts_once(self, tmp_path, monkeypatch):
        """A checkpointed filter state in the form stored before the delays
        (the posterior ``x_post`` and the residual mean ``eta_mean``) loads;
        its next 48 scores lie within 1e-9 of an uninterrupted run's, and
        the next checkpoint writes the new keys only."""
        def boom(*args, **kwargs):
            raise NonConvergence("forced failure")

        monkeypatch.setattr(optimizer, "fit_structural", boom)
        old, straight = tmp_path / "old", tmp_path / "straight"
        engine = fleet_engine(old)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)  # a checkpoint tick: the files hold the whole store
        assert engine._active_record("m1")["method"] == "filtering"
        path = engine._state_path("m1")
        state = json.loads(path.read_text())
        fs = FilterState.from_dict(state["filter_state"])
        z = fs.delays
        state["filter_state"] = {
            "x_post": [z[0]] if len(z) == 1 else [-z[1], z[0] + z[1]], "P_post": fs.P_post.tolist(),
            "eta_mean": fs.eta_mean, "eta_var": fs.eta_var, "w_sum": fs.w_sum, "s_accum": fs.s_accum}
        path.write_text(json.dumps(state))
        fresh = fleet_engine(old)
        fresh.advance_clock(48)  # to the next checkpoint
        engine = fleet_engine(straight)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(144)
        got, want = csv_log(fresh, "m1"), csv_log(engine, "m1")
        assert [(t, obs) for t, _, obs in got] == [(t, obs) for t, _, obs in want]
        scored = [(g[1], w[1]) for g, w in zip(got, want) if g[0] >= 96 * 3600]
        assert len(scored) == 48
        assert all(abs(g - w) <= 1e-9 for g, w in scored)
        assert set(json.loads(path.read_text())["filter_state"]) == FILTER_STATE_KEYS

    def test_pre_journal_store_drops_the_state_log(self, tmp_path):
        """A store kept before the journal (``meta.json`` holds only the clock)
        whose state document still holds the score log carries on as a run
        that never had it."""
        old, straight = tmp_path / "old", tmp_path / "straight"
        engine = fleet_engine(old)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)  # a checkpoint tick: the files hold the whole store
        path = engine._state_path("m1")
        state = json.loads(path.read_text())
        path.write_text(json.dumps({**state, "log": [[0, 0.5, 1.0]]}))
        (old / "meta.json").write_text(json.dumps({"now": 96}))
        (old / "journal.jsonl").unlink()
        fresh = fleet_engine(old)
        assert fresh.now == 96
        assert "log" not in fresh._scoring_state("m1")
        fresh.advance_clock(48)  # to the next checkpoint
        assert "log" not in json.loads(path.read_text())
        engine = fleet_engine(straight)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(144)
        assert snapshot(old) == snapshot(straight)


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

            monkeypatch.setattr(optimizer, "fit_structural", boom)
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

            monkeypatch.setattr(optimizer, "fit_structural", boom)
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
        original = engine.metric_curves

        def flaky(spec, now):
            if spec.metric_id == "bad":
                raise RuntimeError("injected")
            return original(spec, now)

        monkeypatch.setattr(engine, "metric_curves", flaky)
        snaps = engine.run_evaluation_cycle(150)
        assert snaps["bad"].health == "R"
        assert snaps["good"].health in "GY"
        doc = json.loads(engine._health_path("bad").read_text())
        assert doc["reason"] == "evaluation failed: injected"
