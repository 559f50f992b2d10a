"""The engine's in-memory store: caches, restarts, gaps and failure isolation."""

import csv
import dataclasses
import gc
import io
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

import autoad.evaluation as ev
import autoad.optimizer as optimizer
import autoad.orchestrator as orch
import autoad.store as store
from autoad import cli
from autoad.errors import NonConvergence, NumericalBreakdown, UnsupportedStore
from autoad.optimizer import ModelConfig
from autoad.orchestrator import Engine
from autoad.series import TimeSeries
from autoad.store import Store

from .conftest import stored_doc
from .test_orchestrator import failing_fit, job_for, make_series, mark_red

RESTART_TICKS = 400
TRAINING_TICKS = range(96, RESTART_TICKS + 1, 48)  # the fleet's training ticks
RETUNE_TICK = 336  # the drifted metric's first retune, which only appends
COMPACTION_TICK = 207  # a scoring tick whose record takes the journal past its bound
STATE_KEYS = {"last_scored", "tune_generation", "last_training_error"}
MODEL_KEYS = {"model_id", "metric_id", "method", "payload", "config",
              "published_at", "expires_at", "tune_generation", "published_state", "scores_offset"}


def fleet_engine(root) -> Engine:
    return Engine(root, tune_budget=10, seed=1)


def register_fleet(engine: Engine) -> None:
    engine.register_job(job_for(make_series(seed=1), metric="quiet", job="j1"))
    engine.register_job(job_for(make_series(seed=2, shift_at=240), metric="drifted", job="j2"))


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def store_name(target, root: Path) -> str:
    """The store name of a write hook's target: a path, or a held handle."""
    return str(Path(target if isinstance(target, Path) else target.name).relative_to(root))


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
    @example(cuts=[COMPACTION_TICK - 1, COMPACTION_TICK])  # chunks ending before, at and after a compaction
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


def crash_at_every_write(single_run, tmp_path, monkeypatch, tick) -> list:
    """Crash a run at each store write of ``tick`` in turn, and check that
    the store the crash left, once an engine has opened and repaired it,
    finishes as one run that never crashed.  Returns the tick's store
    writes, in order, as (writer, store name) pairs."""
    base = tmp_path / "base"
    engine = fleet_engine(base)
    register_fleet(engine)
    engine.advance_clock(tick - 1)
    engine.close()
    originals = {kind: getattr(store, kind) for kind in ("_write", "_atomic_write")}

    def run_tick(root, fail_at=None):
        """Tick ``tick`` on a copy of ``base``; its store writes, in order."""
        shutil.copytree(base, root)
        writes = []
        for kind, original in originals.items():
            def write(target, *args, kind=kind, original=original, **kwargs):
                writes.append((kind, store_name(target, root)))
                if len(writes) == fail_at:
                    raise Crash(f"write {fail_at}")
                return original(target, *args, **kwargs)

            monkeypatch.setattr(store, kind, write)
        try:
            fleet_engine(root).advance_clock(1)
        finally:
            for kind, original in originals.items():
                monkeypatch.setattr(store, kind, original)
        return writes

    writes = run_tick(tmp_path / "probe")
    after_tick = snapshot(tmp_path / "probe")
    commit = writes.index(("_write", "journal.jsonl")) + 1  # the record's append
    for k in range(1, len(writes) + 1):
        root = tmp_path / f"crash{k}"
        with pytest.raises(Crash):
            run_tick(root, fail_at=k)
        crashed = snapshot(root)
        engine = fleet_engine(root)
        assert snapshot(root) == crashed  # opening the store writes nothing
        assert engine.now == (tick - 1 if k <= commit else tick)
        if engine.now < tick:
            engine.advance_clock(1)
        else:
            engine.store.repair()  # what the engine's first write starts with
        assert snapshot(root) == after_tick, f"crash at write {k}: {writes[k - 1]}"
        finish_run(root)
        assert snapshot(root) == single_run, f"crash at write {k}: {writes[k - 1]}"
    return writes


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
        """A tick whose record takes the journal past its bound writes, in
        order: its appended rows, its journal record, which is its commit,
        the checkpoint ``meta.json`` and the journal's truncation.  A crash
        at any one of them restarts exactly.  At the first training the
        first models make ``meta.json`` many times larger, so a crash before
        the truncation leaves a journal within the new bound; the engine
        tells it is spent because its last record is of the checkpoint's
        tick."""
        for tick in (TRAINING_TICKS[0], COMPACTION_TICK):
            writes = crash_at_every_write(single_run, tmp_path / str(tick), monkeypatch, tick)
            names = [name for _, name in writes]
            commit = names.index("journal.jsonl")
            assert {n.split("/")[0] for n in names[:commit]} <= {"scores"}
            assert writes[commit + 1:] == [("_atomic_write", "meta.json"), ("_write", "journal.jsonl")]

    def test_crash_at_every_write_of_the_retune_tick(self, single_run, tmp_path, monkeypatch):
        """The retune tick writes its appended rows and its new ``tunes/``
        file, then commits by appending its journal record, and renames no
        ``meta.json``.  A crash at any one of them restarts exactly."""
        writes = crash_at_every_write(single_run, tmp_path, monkeypatch, RETUNE_TICK)
        names = [name for _, name in writes]
        assert ("_atomic_write", "tunes/drifted-g1.json") in writes
        assert {n.split("/")[0] for n in names[:-1]} <= {"scores", "tunes"}
        assert writes[-1] == ("_write", "journal.jsonl")

    def test_torn_journal_line_and_uncommitted_rows_are_dropped(self, tmp_path):
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.advance_clock(300)
        committed = snapshot(tmp_path)
        with open(tmp_path / "journal.jsonl", "a") as fh:
            fh.write('{"docs":{"state/quiet.json":{"last_sc')
        with open(tmp_path / "scores" / "quiet.csv", "a") as fh:
            fh.write("quiet,1,2.0,2.0,0.5,0,quiet-t288-g0\r\n")
        (tmp_path / "scores" / "fresh.csv").write_text(orch.SCORES_HEADER)  # a metric's first, uncommitted rows
        torn = snapshot(tmp_path)
        fresh = fleet_engine(tmp_path)
        assert fresh.now == 300
        assert fresh._score_log("quiet").entries == engine._score_log("quiet").entries
        assert snapshot(tmp_path) == torn  # opening the store writes nothing
        fresh.store.repair()
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
            assert not reader.store._handles  # reading opens no append handle
            opened.append(now)
            return train(now, *args, **kwargs)

        engine.run_training_cycle = open_reader_then_train
        engine.advance_clock(RESTART_TICKS)
        assert opened == list(TRAINING_TICKS)
        assert snapshot(tmp_path) == single_run

    def test_reader_across_a_compaction_loads_the_later_checkpoint(self, tmp_path, monkeypatch):
        """An engine opened beside a running one, which compacts between the
        reader's read of ``meta.json`` and its read of the journal, reads both
        again: it loads the running engine's models, not the old
        checkpoint's under the newer records."""
        writer = fleet_engine(tmp_path)
        register_fleet(writer)
        writer.advance_clock(143)  # the checkpoint of tick 96 holds the first models
        read_journal = Store._read_journal
        raced = []

        def compact_then_read(store):
            if not raced:  # the writer trains at 144 and 192 and compacts at COMPACTION_TICK
                raced.append(writer.advance_clock(COMPACTION_TICK + 5 - writer.now))
            return read_journal(store)

        monkeypatch.setattr(Store, "_read_journal", compact_then_read)
        reader = fleet_engine(tmp_path)
        assert raced == [COMPACTION_TICK + 5]
        assert json.loads((tmp_path / "meta.json").read_text())["now"] == COMPACTION_TICK
        assert reader.now == writer.now
        assert reader.store._lengths == writer.store._lengths
        for metric in ("quiet", "drifted"):
            assert reader._active_record(metric)["model_id"] == f"{metric}-t192-g0"
        assert reader.store._committed == writer.store._committed

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
        for kind in ("_write", "_atomic_write"):
            def write(target, *args, kind=kind, original=getattr(store, kind), **kwargs):
                writes.append((kind, store_name(target, tmp_path)))
                return original(target, *args, **kwargs)

            monkeypatch.setattr(store, kind, write)
        engine.advance_clock(47)  # ticks 97..143 score and do not train
        assert sorted(set(writes)) == [("_write", "journal.jsonl"), ("_write", "scores/drifted.csv"),
                                       ("_write", "scores/quiet.csv")]
        assert writes.count(("_write", "journal.jsonl")) == 47
        assert writes.count(("_write", "scores/quiet.csv")) == 47

    def test_a_training_tick_renames_nothing_and_appends_one_record(self, tmp_path, monkeypatch):
        """Over ticks 96..RETUNE_TICK every tick appends one journal record.
        It renames ``meta.json`` exactly when that record takes the journal
        past CHECKPOINT_RATIO times ``meta.json``, whether it trains or not;
        otherwise a training tick renames nothing, and the retune tick only
        its new ``tunes/`` file."""
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.advance_clock(TRAINING_TICKS[0] - 1)
        renamed, journal = [], []

        def replace(src, dst, original=os.replace):
            renamed.append(store_name(Path(dst), tmp_path))
            return original(src, dst)

        def write(fh, data, truncate=False, original=store._write):
            if store_name(fh, tmp_path) == "journal.jsonl" and not truncate:
                journal.append(data)
            return original(fh, data, truncate)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(store, "_write", write)
        appending_trainings = 0
        for tick in range(TRAINING_TICKS[0], RETUNE_TICK + 1):
            renamed.clear()
            journal.clear()
            bound = store.CHECKPOINT_RATIO * (tmp_path / "meta.json").stat().st_size
            before = (tmp_path / "journal.jsonl").stat().st_size
            engine.advance_clock(1)
            assert [json.loads(record)["tick"] for record in journal] == [tick]
            compacted = before + len(journal[0]) > bound
            tunes = ["tunes/drifted-g1.json"] if tick == RETUNE_TICK else []
            assert renamed == tunes + (["meta.json"] if compacted else []), tick
            appending_trainings += tick in TRAINING_TICKS and not compacted
        assert appending_trainings == 5  # 144, 192, 240, 288 and the retune at 336
        assert engine.tune_generation("drifted") == 1

    def test_journal_stays_within_its_bound(self, tmp_path, monkeypatch):
        """Over 1,440 ticks of a two-metric fleet the journal, once the first
        training has given the store its documents, never holds more than
        CHECKPOINT_RATIO times ``meta.json`` plus one record, and a tick
        leaves it within the bound.  The warm-up's records are not compacted:
        after the new store's first checkpoint, the next is the first
        training's.  It is compacted no more often than the fleet trains."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(n=1440, seed=1), metric="quiet", job="j1"))
        engine.register_job(job_for(make_series(n=1440, seed=2, shift_at=240), metric="drifted", job="j2"))
        journal, meta = tmp_path / "journal.jsonl", tmp_path / "meta.json"
        appends, checkpoints = [], []

        def within_bound():
            return journal.stat().st_size <= store.CHECKPOINT_RATIO * meta.stat().st_size

        def write(fh, data, truncate=False, original=store._write):
            if store_name(fh, tmp_path) == "journal.jsonl":
                if truncate:
                    checkpoints.append(engine.now)
                else:  # so the journal holds at most the bound plus this record
                    assert within_bound() or engine.now <= TRAINING_TICKS[0]
                    appends.append(engine.now)
            return original(fh, data, truncate)

        monkeypatch.setattr(store, "_write", write)
        for _ in range(1440):
            engine.advance_clock(1)
            assert within_bound() or engine.now < TRAINING_TICKS[0]
        assert appends == list(range(1, 1441))
        assert checkpoints[:2] == [0, TRAINING_TICKS[0]]
        assert engine.tune_generation("drifted") >= 1
        assert 0 < len(checkpoints) <= 1440 // 48

    def test_same_tick_training_sees_the_red_label_scoring_held(self, tmp_path):
        """A scoring failure at a training tick labels its metric R in that
        tick's scoring cycle; the training cycle that follows reads the
        label before it is written and retunes."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(), train_every=48, ttl=48))
        original = engine._finish_score

        def flaky(spec, *args):
            if engine.now == 144:
                raise RuntimeError("injected")
            return original(spec, *args)

        engine._finish_score = flaky
        engine.advance_clock(144)
        assert engine.tune_generation("m1") == 1
        assert (tmp_path / "tunes" / "m1-g1.json").exists()
        engine.close()

    def test_only_a_tick_commits(self, tmp_path):
        """Only a tick commits: cycles called on their own leave the journal
        and the checkpoint as they were, and the engine's next tick commits
        their changes."""
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.advance_clock(1)  # the new store's checkpoint and tick 1's record
        committed = {name: (tmp_path / name).read_bytes() for name in ("meta.json", "journal.jsonl")}
        engine.run_training_cycle(96)
        for tick in range(97, 104):
            engine.run_scoring_cycle(tick)
        engine.run_evaluation_cycle(103)
        assert {name: (tmp_path / name).read_bytes() for name in committed} == committed
        fresh = fleet_engine(tmp_path)
        assert fresh.now == 1
        assert [fresh._active_record(metric) for metric in ("quiet", "drifted")] == [None, None]
        engine.advance_clock(1)  # tick 2 has no work of its own
        fresh = fleet_engine(tmp_path)
        assert fresh.now == 2
        for metric in ("quiet", "drifted"):
            assert fresh._scoring_state(metric) == engine._scoring_state(metric)
            assert fresh._active_record(metric)["model_id"] == engine._active_record(metric)["model_id"]
            assert fresh._score_log(metric).entries == engine._score_log(metric).entries
            assert stored_doc(tmp_path, f"health/{metric}.json")["at"] == 103

    def test_eval_inside_a_tick_changes_nothing(self, single_run, tmp_path, capsys):
        """``autoad eval`` run while an engine is inside a tick writes no
        file: it reads the store as ``status`` does, and the running engine
        finishes the same store as a run nobody evaluated."""
        root = tmp_path / "store"
        engine = fleet_engine(root)
        register_fleet(engine)
        train = engine.run_training_cycle
        evaluated = []

        def eval_then_train(now):
            if now == 192:
                before = snapshot(root)
                argv = ["eval", "--metric", "quiet", "--data-dir", str(root),
                        "--emit-curves", str(tmp_path / "curves.csv")]
                assert cli.main(argv) == 0
                assert snapshot(root) == before
                evaluated.append(json.loads(capsys.readouterr().out.split("\ncurves written")[0])["health"])
            return train(now)

        engine.run_training_cycle = eval_then_train
        engine.advance_clock(RESTART_TICKS)
        assert len(evaluated) == 1 and evaluated[0] in "GYR"
        assert (tmp_path / "curves.csv").stat().st_size > 0
        assert snapshot(root) == single_run


class TestHeldHandles:
    """The engine appends through held, unbuffered handles."""

    def test_record_after_a_checkpoint_is_on_disk(self, tmp_path):
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        engine.advance_clock(TRAINING_TICKS[0])
        assert (tmp_path / "journal.jsonl").read_bytes() == b""  # emptied through its held handle
        engine.advance_clock(1)
        records = [json.loads(line) for line in (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert [record["tick"] for record in records] == [TRAINING_TICKS[0] + 1]
        assert set(records[0]["lengths"]) == {"scores/quiet.csv", "scores/drifted.csv"}

    def test_crashed_engine_dropped_after_a_restart_adds_nothing(self, single_run, tmp_path):
        """An engine that died with rows its tick never committed holds
        their files open; dropping it after a new engine has cut them
        back and finished the run leaves the finished store alone."""
        crashed = fleet_engine(tmp_path)
        register_fleet(crashed)
        crash_after(crashed, "run_scoring_cycle", 150)
        with pytest.raises(Crash):
            crashed.advance_clock(RESTART_TICKS)
        assert "scores/quiet.csv" in crashed.store._handles
        finish_run(tmp_path)
        assert snapshot(tmp_path) == single_run
        del crashed
        gc.collect()
        assert snapshot(tmp_path) == single_run

    def test_handles_stay_within_the_bound(self, single_run, tmp_path, monkeypatch):
        monkeypatch.setattr(store, "MAX_HANDLES", 2)
        engine = fleet_engine(tmp_path)
        register_fleet(engine)
        written, held = set(), []
        original = store._write

        def write(fh, *args, **kwargs):
            written.add(fh.name)
            held.append(len(engine.store._handles))
            return original(fh, *args, **kwargs)

        monkeypatch.setattr(store, "_write", write)
        engine.advance_clock(RESTART_TICKS)
        assert len(written) == 3  # two scores files and the journal
        assert max(held) == 2
        assert snapshot(tmp_path) == single_run

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_engines_dropped_unclosed_release_their_descriptors(self, tmp_path):
        gc.collect()  # engines earlier tests left behind
        before = len(os.listdir("/proc/self/fd"))
        register_fleet(fleet_engine(tmp_path))
        engines = []
        for _ in range(20):
            engines.append(fleet_engine(tmp_path))
            engines[-1].advance_clock(10)
        assert len(os.listdir("/proc/self/fd")) > before  # the engines hold their handles
        del engines
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_store_dropped_in_a_garbage_cycle_closes_its_handles(self, tmp_path, monkeypatch):
        """A store that only a garbage cycle holds closes its handles before
        the collector finalizes any of them, whatever order it meets them
        in, so none is dropped open.  Here the handle is older than the
        store, so the collector meets it first."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            older = open(tmp_path / "older.jsonl", "ab", buffering=0)
            held = Store(tmp_path)
            held._handles["older.jsonl"] = older
            held.cycle = held
            del older, held
            gc.collect()
        assert unraisable == []

    def test_close_is_idempotent_and_appending_reopens(self, tmp_path):
        with fleet_engine(tmp_path) as engine:
            register_fleet(engine)
            engine.advance_clock(100)
        assert not engine.store._handles
        engine.close()
        engine.advance_clock(1)
        assert set(engine.store._handles) >= {"journal.jsonl", "scores/quiet.csv"}
        engine.close()
        assert fleet_engine(tmp_path).now == 101


class ShortWrite(io.FileIO):
    """A held append handle whose write of the bytes ``cut`` picks stops
    halfway, as a write to a full disk can."""

    def __init__(self, path, cut):
        super().__init__(path, "ab")
        self.cut = cut

    def write(self, data):
        return super().write(data[: len(data) // 2] if self.cut(data) else data)


def hold_short_writes(engine: Engine, name: str, cut) -> None:
    """Make ``engine``'s held handle of the appended file ``name`` a ShortWrite."""
    held = engine.store._handles
    if name in held:
        held.pop(name).close()
    held[name] = ShortWrite(engine.root / name, cut)


class TestFailedWrites:
    """A write that stops halfway is cut back, and the engine goes on as
    if it had never been made."""

    def test_a_torn_journal_write_loses_no_later_tick(self, tmp_path):
        """The failed tick commits nothing, and the next tick's record
        carries its documents and lengths: a tick loop that counts the
        failed tick and goes on ends with the store of an uninterrupted run.
        The torn tick trains, so its models and labels are put at no other
        tick, and no checkpoint follows it (the fleet compacts at 96 and 207)."""
        runs = {}
        for torn in (False, True):
            engine = fleet_engine(tmp_path / str(torn))
            register_fleet(engine)
            engine.advance_clock(TRAINING_TICKS[2] - 1)
            if torn:
                hold_short_writes(engine, store.JOURNAL, lambda data: engine.now == TRAINING_TICKS[2])
            for _ in range(TRAINING_TICKS[2], 201):
                try:
                    engine.advance_clock(1)
                except OSError as exc:
                    assert (torn, engine.now) == (True, TRAINING_TICKS[2]), exc
            engine.close()
            reopened = fleet_engine(engine.root)
            reopened.store.repair()
            files = {name: data for name, data in snapshot(engine.root).items()
                     if name.split("/")[0] == "scores"}
            runs[torn] = (reopened.now, reopened.store._committed, files)
            reopened.close()
        assert runs[True][0] == 200
        assert runs[True] == runs[False]

    def test_a_failed_score_append_scores_its_points_again(self, tmp_path):
        """The metric keeps its scoring position, so the next tick scores
        the failed tick's points again: up to and including the next
        training, which the red label makes retune, the rows are an
        uninterrupted run's, and none is torn.  The failed tick scores a
        spike, whose alert comes out once."""
        rows, alerts = {}, {}
        values = make_series().values.copy()
        values[149] += 50.0  # scored at tick 150
        spec = job_for(TimeSeries.from_values(values, step=3600))
        for failing in (False, True):
            engine = fleet_engine(tmp_path / str(failing))
            engine.register_job(spec)
            engine.advance_clock(149)
            if failing:
                hold_short_writes(engine, "scores/m1.csv", lambda data: engine.now == 150)
            engine.advance_clock(1)
            if failing:
                assert engine.store.doc("health/m1.json")["reason"].startswith("scoring failed: short write")
                assert engine._scoring_state("m1")["last_scored"] == 149
            engine.advance_clock(192 - 150)
            rows[failing] = (engine.root / "scores" / "m1.csv").read_bytes()
            alerts[failing] = engine.alerts(spec)
            engine.close()
        assert rows[True] == rows[False]
        assert alerts[True] == alerts[False]
        assert [json.loads(line)["observed"] > 40 for line in alerts[True]].count(True) == 1


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
        """A health document edited by hand at a checkpoint is read by the
        next engine opened on the store (a running engine reads no document
        back from disk), also once its caches are warm again."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)  # a checkpoint tick
        doc = stored_doc(tmp_path, "health/m1.json")
        doc["snapshot"]["health"] = "R"
        stored_doc(tmp_path, "health/m1.json", doc)
        engine = fleet_engine(tmp_path)
        engine.advance_clock(4)  # scoring ticks warm the caches
        report = engine.run_training_cycle(144)
        assert report[0]["tuned"] is True
        assert engine.tune_generation("m1") == 1

    def test_model_records_store_no_profile(self, single_run):
        docs = json.loads(single_run["meta.json"])["docs"]  # the checkpoint of the last training tick
        records = [doc for name, doc in docs.items() if name.startswith("models/")]
        assert {r["metric_id"] for r in records} == {"quiet", "drifted"}
        for record in records:
            assert set(record) == MODEL_KEYS

    def test_state_document_has_no_log(self, tmp_path):
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)  # a checkpoint tick
        state = stored_doc(tmp_path, "state/m1.json")
        assert set(state) == STATE_KEYS
        engine.advance_clock(4)
        # the checkpoint is of tick 96; ticks 97..100 are redone from the journal
        assert fleet_engine(tmp_path)._scoring_state("m1")["last_scored"] == 100


class TestFilterStateRedo:
    """A filter model's live state is not stored: an engine that loads the
    model scores the model's committed rows again from its state at
    publication, and goes on as if it had never stopped."""

    @pytest.mark.parametrize("case", ["level", "log-scale", "gap", "quoted-id"])
    def test_engine_opened_at_every_tick_scores_on_bit_identical(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(optimizer, "fit_structural", failing_fit)  # every fit falls back to a filter
        if case == "log-scale":
            monkeypatch.setattr(orch, "default_config",
                                lambda prof, n: ModelConfig(method="filtering", log_scale=True))
        metric = 'cpu,"eu"' if case == "quoted-id" else "m1"
        spec = job_for(gapped_series(start=120) if case == "gap" else make_series(), metric=metric)
        single = fleet_engine(tmp_path / "single")
        single.register_job(spec)
        single.advance_clock(96)
        live = {}
        for tick in range(97, 200):  # the models of 96, 144 and 192
            single.advance_clock(1)
            live[tick] = single._detectors[metric][1].state()
        record = single._active_record(metric)
        assert record["method"] == "filtering"
        assert record["config"]["log_scale"] is (case == "log-scale")
        root = tmp_path / "reopened"
        engine = fleet_engine(root)
        engine.register_job(spec)
        engine.advance_clock(96)
        for tick in range(97, 200):
            engine = fleet_engine(root)
            engine.advance_clock(1)
            assert engine._detectors[metric][1].state() == live[tick], tick
            reader = fleet_engine(root)  # the state the next engine starts from
            assert reader._detector(reader._active_record(metric)).state() == live[tick], tick
            assert reader._score_log(metric).entries == csv_log(reader, metric), tick
        assert snapshot(root) == snapshot(tmp_path / "single")
        if case == "gap":
            assert len(score_rows(engine, metric)) == 199 - 96 - 6

    def test_reload_after_a_scoring_failure_redoes_the_state(self, tmp_path, monkeypatch):
        """A scoring failure drops the metric's detector; the next tick
        loads it again from the committed rows and scores the failed tick's
        point with its own, writing the rows a run without the failure
        writes, with the same filter state after each tick."""
        monkeypatch.setattr(optimizer, "fit_structural", failing_fit)
        runs = {}
        for failing in (False, True):
            engine = fleet_engine(tmp_path / str(failing))
            engine.register_job(job_for(make_series()))
            engine.advance_clock(109)
            if failing:
                original = engine._finish_score

                def flaky(spec, *args, engine=engine, original=original):
                    if engine.now == 110:
                        raise RuntimeError("injected")
                    return original(spec, *args)

                engine._finish_score = flaky
            states = []
            for _ in range(110, 144):  # up to the next training, which the red label would retune
                engine.advance_clock(1)
                states.append(engine._detectors["m1"][1].state() if "m1" in engine._detectors else None)
            runs[failing] = (states, (engine.root / "scores" / "m1.csv").read_bytes())
        assert runs[True][0][0] is None  # the failure dropped the detector
        assert runs[True][0][1:] == runs[False][0][1:]
        assert runs[True][1] == runs[False][1]
        assert stored_doc(tmp_path / "True", "health/m1.json")["reason"] == "scoring failed: injected"


csv_ids = st.text(st.sampled_from(list('ab1-_ ,"\r\n\'é')), min_size=1, max_size=8)


class TestScoreRows:
    @settings(max_examples=200, deadline=None)
    @given(metric=csv_ids, model=csv_ids, rows=st.lists(
        st.tuples(st.integers(0, 2**40), st.floats(), st.floats(), st.floats(0, 1), st.integers(0, 1)),
        min_size=1, max_size=4))
    def test_score_lines_are_what_csv_writer_writes(self, metric, model, rows):
        """The scores CSV's lines are built as one string, byte for byte as
        ``csv.writer`` writes them, and read back field for field, whatever
        commas, quotes and line breaks the ids hold."""
        records = [{"metric_id": metric, "timestamp": ts, "observed": obs, "expected": exp,
                    "probability": prob, "is_anomaly": flag, "model_id": model}
                   for ts, obs, exp, prob, flag in rows]
        fields = [[metric, str(ts), repr(obs), repr(exp), repr(prob), str(flag), model]
                  for ts, obs, exp, prob, flag in rows]
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["metric_id", "timestamp", "observed", "expected", "probability", "is_anomaly",
                         "model_id"])
        writer.writerows(fields)
        assert orch.SCORES_HEADER + orch._score_lines(records) == text.getvalue()
        assert list(orch._csv_rows(text.getvalue().encode(), 0)) == fields


class TestSchema:
    def test_opening_a_missing_directory_creates_nothing(self, tmp_path):
        missing = tmp_path / "typo"
        assert Engine(missing).status() == []
        assert not missing.exists()

    @pytest.mark.parametrize("form", ["no-schema", "schema-1", "schema-2", "schema-3", "pre-journal"])
    def test_store_of_another_schema_is_refused_unchanged(self, tmp_path, form):
        """A new store's first checkpoint writes the schema.  A store whose
        meta.json holds another schema, or none, is refused when an engine
        opens on it, and no file under it changes."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(1)  # the first write checkpoints the new store
        assert json.loads((tmp_path / "meta.json").read_text())["schema"] == store.SCHEMA == 4
        engine.advance_clock(99)  # a checkpoint at tick 96, then journal records
        engine.close()
        meta = json.loads((tmp_path / "meta.json").read_text())
        del meta["schema"]
        (tmp_path / "meta.json").write_text(json.dumps(
            {"no-schema": meta, "schema-1": {**meta, "schema": 1}, "schema-2": {**meta, "schema": 2},
             "schema-3": {**meta, "schema": 3}, "pre-journal": {"now": 96}}[form]))
        before = snapshot(tmp_path)
        with pytest.raises(UnsupportedStore, match="new data directory"):
            fleet_engine(tmp_path)
        assert snapshot(tmp_path) == before


class TestStoreAlone:
    """The store driven with no engine: what it commits is what a store
    reopened on the directory holds."""

    @staticmethod
    def reopened_equal(s: Store, names, appended) -> Store:
        s.close()
        again = Store(s.root)
        assert again.now == s.now
        assert {name: again.doc(name) for name in names} == {name: s.doc(name) for name in names}
        for name in appended:
            assert again.length(name) == s.length(name)
            assert again.committed(name) == s.committed(name)
        return again

    def test_put_append_commit_then_reopen(self, tmp_path):
        s = Store(tmp_path / "new")
        assert not s.root.exists()  # opening creates nothing
        s.repair()
        s.put("state/m.json", {"last_scored": 1})
        s.append("scores/m.csv", "header\r\n")
        s.append("scores/n.csv", "header\r\n")
        s.commit(1)
        s.put("state/m.json", {"last_scored": 2})
        s.put("health/m.json", {"at": 2})
        s.append("scores/m.csv", "row\r\n")
        s.commit(2)
        s.commit(3)  # a tick with no work
        s.write("tunes/m-g1.json", {"trials": [1, 2]})  # whole, at once, never journaled
        again = self.reopened_equal(s, ["state/m.json", "health/m.json", "models/m.json"],
                                    ["scores/m.csv", "scores/n.csv", "scores/other.csv"])
        assert (again.now, again.doc("state/m.json"), again.doc("models/m.json")) == (3, {"last_scored": 2}, None)
        assert again.committed("scores/m.csv") == b"header\r\nrow\r\n"
        assert json.loads((s.root / "tunes" / "m-g1.json").read_text()) == {"trials": [1, 2]}
        assert "tunes" not in (s.root / store.JOURNAL).read_text()
        again.close()

    def test_uncommitted_appends_are_cut_back(self, tmp_path):
        s = Store(tmp_path)
        s.repair()
        s.append("scores/m.csv", "header\r\n")
        s.commit(1)
        committed = snapshot(tmp_path)
        s.append("scores/m.csv", "lost\r\n")
        s.append("scores/new.csv", "header\r\n")
        s.put("state/m.json", {"last_scored": 2})
        s.close()  # a crash before the commit of tick 2
        crashed = snapshot(tmp_path)
        again = Store(tmp_path)
        assert snapshot(tmp_path) == crashed  # opening the store writes nothing
        assert (again.now, again.doc("state/m.json"), again.length("scores/m.csv")) == (1, None, 8)
        assert again.committed("scores/m.csv") == b"header\r\n"
        again.repair()
        assert snapshot(tmp_path) == committed
        assert not (tmp_path / "scores" / "new.csv").exists()
        again.close()

    def test_commits_past_the_ratio_checkpoint(self, tmp_path):
        """A commit whose record takes the journal past CHECKPOINT_RATIO
        times ``meta.json`` rewrites ``meta.json`` and empties the journal,
        once the store holds a document."""
        s = Store(tmp_path)
        s.repair()  # a new store's first write is its checkpoint
        meta, journal = tmp_path / "meta.json", tmp_path / store.JOURNAL
        assert json.loads(meta.read_text()) == {"docs": {}, "lengths": {}, "now": 0, "schema": store.SCHEMA}
        tick = 0
        while journal.stat().st_size <= store.CHECKPOINT_RATIO * meta.stat().st_size:
            tick += 1
            s.commit(tick)  # past the bound, and not compacted: the store holds no document
        first, compactions = tick + 1, []
        while len(compactions) < 2:
            tick += 1
            before, bound = journal.stat().st_size, store.CHECKPOINT_RATIO * meta.stat().st_size
            s.put("state/m.json", {"last_scored": tick})
            s.append("scores/m.csv", f"{tick}\r\n")
            record = store._compact({"docs": {"state/m.json": {"last_scored": tick}},
                                     "lengths": {"scores/m.csv": s.length("scores/m.csv")}, "tick": tick})
            s.commit(tick)
            compacted = before + len(record) + 1 > bound
            assert journal.stat().st_size == (0 if compacted else before + len(record) + 1), tick
            compactions += [tick] if compacted else []
        assert compactions[0] == first < compactions[1] - 1  # the first document compacts at once
        assert json.loads(meta.read_text()) == {"docs": {"state/m.json": {"last_scored": tick}},
                                                "lengths": {"scores/m.csv": s.length("scores/m.csv")},
                                                "now": tick, "schema": store.SCHEMA}
        self.reopened_equal(s, ["state/m.json"], ["scores/m.csv"]).close()

    def test_torn_last_journal_line_is_dropped(self, tmp_path):
        s = Store(tmp_path)
        s.repair()
        s.put("state/m.json", {"last_scored": 1})
        s.commit(1)
        s.close()
        committed = snapshot(tmp_path)
        with open(tmp_path / store.JOURNAL, "ab") as fh:
            fh.write(b'{"docs":{"state/m.json":{"last_sc')
        again = Store(tmp_path)
        assert (again.now, again.doc("state/m.json")) == (1, {"last_scored": 1})
        again.repair()
        assert snapshot(tmp_path) == committed
        again.close()

    def test_store_of_another_schema_is_refused_unchanged(self, tmp_path):
        (tmp_path / "meta.json").write_text(json.dumps({"docs": {}, "lengths": {}, "now": 5, "schema": 2}))
        (tmp_path / store.JOURNAL).write_text('{"tick":6}\n')
        before = snapshot(tmp_path)
        with pytest.raises(UnsupportedStore, match="schema 2"):
            Store(tmp_path)
        assert snapshot(tmp_path) == before


def structural_unless_minutely(ts, *args, fit=optimizer.fit_structural):
    """A structural fit that fails on a series sampled each minute, so that
    such a metric's every training publishes a filter."""
    if ts.step == 60:
        raise NonConvergence("forced failure")
    return fit(ts, *args)


# where a program may crash: (owner, method), the engine's or its store's
CRASH_POINTS = [("engine", "run_scoring_cycle"), ("engine", "run_training_cycle"),
                ("engine", "run_evaluation_cycle"), ("store", "commit"), ("store", "_checkpoint"),
                ("store", "append")]
TICKS = st.sampled_from([1, 8, 24, 60])  # how far a rule runs the clock


class StoreMachine(RuleBasedStateMachine):
    """Random engine programs, built on the store alone's round trip
    (:class:`TestStoreAlone`): jobs registered at any tick, with random
    cadences, TTLs, gaps, level shifts, quoted ids and model families, run
    in chunks, reopened, crashed at the k-th call of a cycle or of a store
    method, and read beside the running engine.  Whatever the program, the
    store ends byte for byte as one uninterrupted engine that registers the
    same jobs at the same ticks, and every reader opened on the way sees
    what that engine had committed at the reader's tick."""

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.root, reference = Path(self.tmp.name) / "run", Path(self.tmp.name) / "reference"
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(optimizer, "fit_structural", structural_unless_minutely)
        self.engine = None  # the running engine; None once it has crashed
        self.reference = fleet_engine(reference)  # never reopened, never crashed
        self.specs = []

    def running(self) -> Engine:
        if self.engine is None:
            self.engine = fleet_engine(self.root)
        return self.engine

    def reference_at(self, now: int) -> Engine:
        """The uninterrupted engine, advanced to ``now``."""
        if now > self.reference.now:
            self.reference.advance_clock(now - self.reference.now)
        assert self.reference.now == now
        return self.reference

    @precondition(lambda self: len(self.specs) < 5)
    @rule(metric=csv_ids, n=st.integers(60, 140), seed=st.integers(0, 3), minutely=st.booleans(),
          train_every=st.sampled_from([8, 12, 16]), score_every=st.sampled_from([1, 2, 5]),
          ttl=st.sampled_from([0, 1, 3]), shift_at=st.none() | st.integers(40, 120),
          gap=st.none() | st.tuples(st.integers(20, 130), st.integers(1, 8)))
    def register(self, metric, n, seed, minutely, train_every, score_every, ttl, shift_at, gap):
        series = make_series(n, seed, shift_at=shift_at, step=60 if minutely else 3600)
        if gap is not None:
            values = series.values.copy()
            values[gap[0]:sum(gap)] = np.nan
            series = series.with_values(values)
        # the index makes the metric unique; a metric sampled each minute trains only filters
        spec = orch.JobSpec(job_id=f"j{len(self.specs)}", metric_id=f"{metric}{len(self.specs)}",
                            source={"inline": orch.series_to_doc(series)}, train_every=train_every,
                            score_every=score_every, model_ttl=ttl * train_every)
        engine = self.running()
        engine.register_job(spec)
        self.reference_at(engine.now).register_job(spec)
        self.specs.append(spec)

    @rule(k=TICKS)
    def advance(self, k):
        self.running().advance_clock(k)

    @rule()
    def reopen(self):
        """Close the engine, and check that a store reopened on its
        directory holds what it committed."""
        engine = self.running()
        store = engine.store
        TestStoreAlone.reopened_equal(store, list(store._committed), list(store._lengths)).close()
        self.engine = fleet_engine(self.root)

    @rule(point=st.sampled_from(CRASH_POINTS), k=st.integers(1, 8), after=st.booleans(), steps=TICKS)
    def crash(self, point, k, after, steps):
        """Run ``steps`` ticks that die at the ``k``-th call of ``point``,
        before or ``after`` it runs; the directory stays as the crash left
        it until the next engine's first write."""
        engine, self.engine = self.running(), None
        owner = engine if point[0] == "engine" else engine.store
        original, calls = getattr(owner, point[1]), []

        def crashing(*args, **kwargs):
            calls.append(None)
            if len(calls) == k and not after:
                raise Crash(f"before call {k} of {point[1]}")
            result = original(*args, **kwargs)
            if len(calls) == k:
                raise Crash(f"after call {k} of {point[1]}")
            return result

        setattr(owner, point[1], crashing)
        try:
            engine.advance_clock(steps)
        except Crash:
            pass
        finally:
            engine.close()

    def beside(self) -> tuple[Engine, Engine]:
        """An engine opened on the directory beside the running one, and
        the uninterrupted engine at its tick."""
        reader = fleet_engine(self.root)
        return reader, self.reference_at(reader.now)

    @rule()
    def status_beside(self):
        before = snapshot(self.root)
        reader, reference = self.beside()
        assert reader.status() == reference.status()
        assert snapshot(self.root) == before
        assert not reader.store._handles

    @precondition(lambda self: self.specs)
    @rule()
    def eval_beside(self):
        """An evaluation beside the running engine labels as one of the
        uninterrupted engine's committed store does, and writes nothing."""
        before = snapshot(self.root)
        reader, reference = self.beside()
        labels = [json.dumps({m: s.to_dict() for m, s in engine.run_evaluation_cycle(engine.now).items()})
                  for engine in (reader, fleet_engine(reference.root))]
        assert labels[0] == labels[1]
        assert snapshot(self.root) == before

    @rule(threshold=st.sampled_from([0.01, 0.5, 0.95]))
    def alerts_beside(self, threshold):
        """A reader's alerts, at any threshold, are those of the
        uninterrupted engine's committed rows, and reading them writes
        nothing.  A low threshold makes nearly every row an alert."""
        before = snapshot(self.root)
        reader, reference = self.beside()
        specs = [dataclasses.replace(s, alert_threshold=threshold) for s in self.specs]
        assert [reader.alerts(s) for s in specs] == [reference.alerts(s) for s in specs]
        assert snapshot(self.root) == before

    def teardown(self):
        try:
            if self.engine is not None:
                self.engine.close()
            # one more tick runs again a tick that crashed, which rewrites the
            # tunes/ file it may have written whole before its commit
            engine = fleet_engine(self.root)
            engine.advance_clock(1)
            self.reference_at(engine.now)
            assert snapshot(self.root) == snapshot(self.reference.root)
            assert [engine.alerts(s) for s in self.specs] == [self.reference.alerts(s) for s in self.specs]
            engine.close()
        finally:
            self.reference.close()
            self.patch.undo()
            self.tmp.cleanup()


# a few programs here; CI runs 200, derandomised
TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(max_examples=8, stateful_step_count=20, deadline=None)


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
        engine.run_training_cycle(96)
        assert engine._active_record("m1")["method"] == method
        assert len(engine.run_scoring_cycle(100)) == 4
        detector = engine._detector(engine._active_record("m1"))
        before = detector.state()
        assert engine.run_scoring_cycle(106) == []
        state = engine._scoring_state("m1")
        assert state["last_scored"] == 106
        assert detector.state() == before
        assert len(engine.run_scoring_cycle(110)) == 4
        stamps = [int(r["timestamp"]) for r in score_rows(engine, "m1")]
        epoch, step = make_series().start_epoch, make_series().step
        assert stamps == [epoch + i * step for i in (*range(96, 100), *range(106, 110))]
        assert engine.store.doc("health/m1.json") is None  # no failure forced it red

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
            written[every] = (engine.root / "scores" / "m1.csv").read_bytes()
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
        engine.run_training_cycle(96)
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
        doc = engine.store.doc("health/bad.json")  # held for the next tick's commit
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
        monkeypatch.setattr(orch, "train_detector", boom)
        report = engine.run_training_cycle(144)
        assert report[0]["status"] == "failed"
        state = engine._scoring_state("m1")
        assert state["last_scored"] == 100
        assert state["last_training_error"] == "store down"

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
        doc = engine.store.doc("health/bad.json")  # held for the next tick's commit
        assert doc["reason"] == "evaluation failed: injected"

    def test_training_error_reaches_the_health_document(self, tmp_path, monkeypatch):
        """A failed retune's error is kept in the scoring state, and the
        health document of the tick's evaluation gives it as the reason; the
        next training that publishes a model clears it."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series()))
        engine.advance_clock(96)
        engine = mark_red(engine, 96)
        tune = orch.tune

        def boom(*args, **kwargs):
            raise RuntimeError("tuner down")

        monkeypatch.setattr(orch, "tune", boom)
        engine.advance_clock(48)  # the red label makes the training at 144 retune
        assert engine._scoring_state("m1")["last_training_error"] == "tuner down"
        doc = stored_doc(tmp_path, "health/m1.json")
        assert (doc["at"], doc["snapshot"]["health"]) == (144, "R")
        assert doc["reason"] == "training failed: tuner down"
        monkeypatch.setattr(orch, "tune", tune)
        engine.advance_clock(48)  # the training at 192 retunes and publishes
        assert engine._scoring_state("m1")["last_training_error"] is None
        assert engine._active_record("m1")["published_at"] == 192
        assert "reason" not in stored_doc(tmp_path, "health/m1.json")

    def test_evaluation_that_raises_is_labelled_again_red(self, tmp_path, monkeypatch):
        """An evaluation whose scoring statistics raise labels its metric
        again, with reloaded caches, as a forced red carrying the error;
        the other metric is labelled as usual."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(seed=1), metric="bad", job="jb"))
        engine.register_job(job_for(make_series(seed=2), metric="good", job="jg"))
        engine.advance_clock(150)
        rate, raised = ev.ScoreLog.anomaly_rate, []

        def flaky(log, *args, **kwargs):
            if log.series_id == "bad" and not raised:
                raised.append(log)
                raise RuntimeError("injected")
            return rate(log, *args, **kwargs)

        monkeypatch.setattr(ev.ScoreLog, "anomaly_rate", flaky)
        snaps = engine.run_evaluation_cycle(150)
        log = engine._score_log("bad")
        assert log is not raised[0]  # the failure dropped the log, and it reloaded
        doc = engine.store.doc("health/bad.json")  # held for the next tick's commit
        assert doc["reason"] == "evaluation failed: injected"
        snapshot = doc["snapshot"]
        assert (snapshot["health"], snapshot["mv_avg"], snapshot["em_avg"]) == ("R", 0.0, 0.0)
        assert snapshot["anomaly_rate"] == rate(log, 0.95, last=orch.RATE_WINDOW)
        assert snapshot["consecutive_anomalies"] == log.consecutive_anomalies(0.95)
        assert snapshot["model_age_fraction"] == (150 - 144) / 96  # the model's own age
        assert snapshot == snaps["bad"].to_dict()
        good = engine.store.doc("health/good.json")
        assert good == {"at": 150, "snapshot": snaps["good"].to_dict()}
        assert snaps["good"].health in "GY"
        assert (good["snapshot"]["mv_avg"], good["snapshot"]["em_avg"]) == \
            ev.summarize_criteria(*engine.last_curves["good"])
        engine.close()

    def test_unloadable_score_log_is_labelled_red_with_a_zeroed_snapshot(self, tmp_path, monkeypatch):
        """A score log that cannot be loaded at all still labels its metric
        red, with a snapshot of zeros; the other metric is labelled as usual."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(seed=1), metric="bad", job="jb"))
        engine.register_job(job_for(make_series(seed=2), metric="good", job="jg"))
        engine.advance_clock(150)
        engine.close()
        fresh = fleet_engine(tmp_path)  # no log is cached yet
        log_of = Engine._log_of

        def unreadable(metric_id, data):
            if metric_id == "bad":
                raise ValueError("unreadable log")
            return log_of(metric_id, data)

        monkeypatch.setattr(fresh, "_log_of", unreadable)
        snaps = fresh.run_evaluation_cycle(150)
        doc = fresh.store.doc("health/bad.json")  # held for the next tick's commit
        assert doc["reason"] == "evaluation failed: unreadable log"
        assert snaps["bad"].to_dict() == doc["snapshot"]
        assert doc["snapshot"] == {"mv_avg": 0.0, "em_avg": 0.0, "anomaly_rate": 0.0, "consecutive_anomalies": 0,
                                   "coefficient_of_variation": 0.0, "model_age_fraction": (150 - 144) / 96,
                                   "health": "R"}
        good = fresh.store.doc("health/good.json")
        assert good == {"at": 150, "snapshot": snaps["good"].to_dict()}
        assert snaps["good"].health in "GY"
        assert (good["snapshot"]["mv_avg"], good["snapshot"]["em_avg"]) == \
            ev.summarize_criteria(*fresh.last_curves["good"])
        fresh.close()

    def test_a_forced_red_stores_the_models_real_age(self, tmp_path, monkeypatch):
        """A fresh model that fails to score is labelled R with its own age,
        so its document does not read as an expiry."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(), ttl=96))
        engine.advance_clock(99)
        original = engine._finish_score

        def flaky(spec, *args):
            if engine.now == 100:
                raise RuntimeError("injected")
            return original(spec, *args)

        monkeypatch.setattr(engine, "_finish_score", flaky)
        engine.advance_clock(1)
        doc = stored_doc(tmp_path, "health/m1.json")
        assert (doc["at"], doc["reason"]) == (100, "scoring failed: injected")
        assert (doc["snapshot"]["health"], doc["snapshot"]["model_age_fraction"]) == ("R", 4 / 96)
        engine.close()

    def test_an_evaluation_that_raises_a_library_error_is_labelled_red(self, tmp_path, monkeypatch):
        """An evaluation that raises one of the library's own errors is
        labelled as any other that raises: R, with the error as the
        reason, and its caches dropped."""
        engine = fleet_engine(tmp_path)
        engine.register_job(job_for(make_series(seed=1), metric="bad", job="jb"))
        engine.register_job(job_for(make_series(seed=2), metric="good", job="jg"))
        engine.advance_clock(150)
        original, raised = engine.metric_curves, []

        def flaky(spec, now):
            if spec.metric_id == "bad":
                raised.append(engine._score_log("bad"))
                raise NumericalBreakdown("injected")
            return original(spec, now)

        monkeypatch.setattr(engine, "metric_curves", flaky)
        snaps = engine.run_evaluation_cycle(150)
        doc = engine.store.doc("health/bad.json")  # held for the next tick's commit
        assert (snaps["bad"].health, doc["reason"]) == ("R", "evaluation failed: injected")
        assert engine._score_log("bad") is not raised[0]  # the failure dropped the log
        assert engine.last_curves["bad"] is None
        assert snaps["good"].health in "GY" and "reason" not in engine.store.doc("health/good.json")
        engine.close()

    def test_a_metric_whose_fits_fail_is_labelled_only_by_evaluations(self, tmp_path, monkeypatch):
        """A metric whose fits fail from t192 on keeps a model past its TTL:
        it scores nothing more, and is labelled R, naming the training's
        error, by every evaluation and at no other tick; the healthy metric
        beside it scores as it would alone."""
        fit = orch.train_detector

        def fit_unless_minutely(window, *args, **kwargs):
            if window.step == 60:  # the failing metric's series, sampled each minute
                raise NonConvergence("forced fit failure")
            return fit(window, *args, **kwargs)

        def fleet(root, with_failing):
            eng = fleet_engine(root)
            eng.register_job(job_for(make_series(seed=1), metric="good", job="jg"))
            if with_failing:
                eng.register_job(job_for(make_series(seed=2, step=60), metric="bad", job="jb"))
            return eng

        with fleet(tmp_path / "alone", False) as alone:
            alone.advance_clock(480)
        engine = fleet(tmp_path / "fleet", True)
        engine.advance_clock(191)
        put, puts = engine.store.put, {}

        def recorded(name, doc):
            if name == "health/bad.json":
                puts[engine.now] = doc
            return put(name, doc)

        monkeypatch.setattr(engine.store, "put", recorded)
        monkeypatch.setattr(orch, "train_detector", fit_unless_minutely)
        engine.advance_clock(480 - 191)
        engine.close()
        assert sorted(puts) == list(range(192, 481, 48))
        for doc in puts.values():
            assert doc["snapshot"]["health"] == "R"
            assert doc["reason"] == "training failed: forced fit failure"
        assert engine._active_record("bad")["published_at"] == 144
        assert engine._scoring_state("bad")["last_scored"] == 144 + 96
        good = "scores/good.csv"
        assert (engine.root / good).read_bytes() == (alone.root / good).read_bytes()


class TestServedTtl:
    def test_a_model_living_one_training_serves_every_point(self, tmp_path):
        """With model_ttl == train_every each model scores its points up to
        the training that replaces it: a healthy metric is never retuned,
        every observed point from the warm-up on has a score row, and a
        run reopened every 37 ticks writes the same store."""
        series = gapped_series(start=300, length=4)

        def run(root, chunk):
            with fleet_engine(root) as engine:
                engine.register_job(job_for(series, train_every=48, ttl=48))
            while True:
                with fleet_engine(root) as engine:
                    if engine.now == 480:
                        return engine.tune_generation("m1")
                    engine.advance_clock(min(chunk, 480 - engine.now))

        assert run(tmp_path / "single", 480) == 0
        with fleet_engine(tmp_path / "single") as engine:
            rows = score_rows(engine, "m1")
        observed = [i for i in range(orch.warmup(48), 480) if not math.isnan(series.values[i])]
        assert [int(r["timestamp"]) for r in rows] == [3600 * i for i in observed]
        assert len(observed) == 480 - 96 - 4
        assert run(tmp_path / "chunked", 37) == 0
        assert snapshot(tmp_path / "chunked") == snapshot(tmp_path / "single")
