"""Single-node simulator of the full detection service.

A deterministic step clock reveals each registered series one point per
tick.  Scoring cycles consume the newest points with the active model,
training cycles refit (tuning first when the last health label was red),
and evaluation cycles turn score logs into green/yellow/red labels.  At
a coincident tick the order is score, then train, then evaluate, so
scoring always uses the pre-existing model and retraining evidence stays
uncontaminated.

All state lives as JSON/CSV documents under a data directory, so every
cycle is inspectable and re-runnable.  The store is a write-ahead log
with redo recovery (Mohan et al., "ARIES", 1992):

- ``scores/*.csv`` and ``alerts/*.jsonl`` are appended during a tick.
- Each tick then appends one line to ``journal.jsonl``, its commit
  record: the tick, the full documents it changed (scoring states, model
  records, health documents) and the byte length of every scores and
  alerts file after it.  A tick with no work writes only its tick.
- Model and health documents are held in memory until the commit record
  is appended, and only then written (atomically).  ``tunes/*.json`` is
  never read back and a replayed tick rewrites it byte for byte, so it
  is written at once.
- ``state/*.json`` and ``meta.json`` (the clock and the appended files'
  lengths) are checkpoints, written after the commit record of every
  tick that runs a training cycle; the journal is then emptied.
- A new engine loads the checkpoint and redoes every complete journal
  line in order into memory (records hold full documents, so redo is
  idempotent); opening a store changes no file, so ``status`` may run
  beside a running engine.  Before its first write, the engine drops a
  torn last line, writes the committed documents the files lack, cuts
  the appended files back to the lengths of the last record and
  finishes an interrupted checkpoint.  A tick that crashed before its
  commit record is then run again: its file and webhook-stub alerts come
  out exactly once, its stdout alerts are printed again (at-least-once
  delivery).

A cycle called on its own (not from :meth:`Engine.advance_clock`)
commits its own changes, with a checkpoint, before it returns.  Only one
engine may write to a directory at a time.  Nothing calls ``fsync``:
files are flushed when closed.  The engine keeps in-memory copies of
the registry, each metric's scoring state, score log and active model.
The score log is not stored twice: it is the tail of the metric's scores
CSV, read back when an engine first needs it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import zlib
from collections import deque
from pathlib import Path
from typing import Optional

import numpy as np

from . import evaluation as ev
from .errors import (
    AutoAdError,
    DuplicateId,
    ExpiredModel,
    InvalidSpec,
    MissingModel,
)
from .optimizer import ModelConfig, default_config, fit_detector, load_detector, tune
from .profiling import DataProfile, profile as profile_series
from .series import TimeSeries, impute, read_csv

RATE_WINDOW = 48  # scores considered by the anomaly-rate trigger
MIN_EVAL_SCORES = 8  # fewer stable scores than this keeps a series in Y
LOG_WINDOW = 500  # newest scores kept in a metric's score log
JOURNAL = "journal.jsonl"
APPENDED = (("scores", "*.csv"), ("alerts", "*.jsonl"))  # files a tick appends to
# a metric's scoring state before its first training; a loaded state keeps
# exactly these keys, so what older stores kept beside them drops out
FRESH_STATE = {"last_scored": 0, "filter_state": None, "tune_generation": 0,
               "last_training_failed": False}


def _doc_name(kind: str, metric_id: str) -> str:
    """The store name (path under the data directory) of a metric's file:
    ``state``, ``models`` and ``health`` documents, or its ``scores`` CSV."""
    return f"{kind}/{metric_id}.csv" if kind == "scores" else f"{kind}/{metric_id}.json"


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One monitored metric: its source and its cycle cadences (in steps)."""

    job_id: str
    metric_id: str
    source: object  # CSV path (str) or {"inline": {...}} document
    train_every: int
    score_every: int = 1
    model_ttl: int = 0  # 0 -> 2 * train_every
    alpha: float = 0.5
    alert_threshold: float = 0.95

    def __post_init__(self):
        if not self.job_id or not self.metric_id:
            raise InvalidSpec("job_id and metric_id must be non-empty")
        if self.train_every < 1 or self.score_every < 1:
            raise InvalidSpec("cadences must be positive step counts")
        if self.score_every > self.train_every:
            raise InvalidSpec("score_every must not exceed train_every")
        if self.model_ttl == 0:
            object.__setattr__(self, "model_ttl", 2 * self.train_every)
        if self.model_ttl < self.train_every:
            raise InvalidSpec("model_ttl must be at least train_every")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidSpec("alpha must lie in [0, 1]")
        if not 0.0 < self.alert_threshold < 1.0:
            raise InvalidSpec("alert_threshold must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "metric_id": self.metric_id,
            "source": self.source,
            "train_every": self.train_every,
            "score_every": self.score_every,
            "model_ttl": self.model_ttl,
            "alpha": self.alpha,
            "alert_threshold": self.alert_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            job_id=data["job_id"],
            metric_id=data["metric_id"],
            source=data["source"],
            train_every=int(data["train_every"]),
            score_every=int(data.get("score_every", 1)),
            model_ttl=int(data.get("model_ttl", 0)),
            alpha=float(data.get("alpha", 0.5)),
            alert_threshold=float(data.get("alert_threshold", 0.95)),
        )


def series_to_doc(ts: TimeSeries) -> dict:
    values = [None if math.isnan(v) else float(v) for v in ts.values]
    return {"start_epoch": ts.start_epoch, "step": ts.step, "values": values}


def series_from_doc(doc: dict) -> TimeSeries:
    values = [math.nan if v is None else float(v) for v in doc["values"]]
    return TimeSeries.from_values(values, step=int(doc["step"]), start_epoch=int(doc["start_epoch"]))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _doc_text(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True)


def _write_json(path: Path, data) -> None:
    _atomic_write(path, _doc_text(data))


def _append(path: Path, data: bytes) -> None:
    with open(path, "ab") as fh:
        fh.write(data)


class Engine:
    """File-backed orchestrator driven by a simulated step clock."""

    def __init__(
        self,
        data_dir,
        tune_budget: int = 20,
        alert_channel: str = "file",
        seed: int = 0,
        *,
        workers: int = 1,
        n_mc: int = 10_000,
    ):
        """``workers`` and ``n_mc`` are ignored: training runs on one
        thread, and the evaluation volumes are exact, not sampled.  The
        two keywords stay because ``perfbench/workload.py`` passes them,
        and the benchmark harness changes only with the benchmark itself."""
        if alert_channel not in ("stdout", "file", "webhook_stub"):
            raise ValueError(f"unknown alert channel {alert_channel!r}")
        self.root = Path(data_dir)
        for sub in ("jobs", "models", "state", "scores", "health", "alerts", "tunes"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self.tune_budget = tune_budget
        self.alert_channel = alert_channel
        self.seed = seed
        self._series_cache: dict[str, TimeSeries] = {}
        # in-memory copies of the store; _forget drops a metric's copies
        self._jobs: Optional[list[JobSpec]] = None
        self._states: dict[str, dict] = {}
        self._logs: dict[str, ev.ScoreLog] = {}
        self._records: dict[str, Optional[dict]] = {}
        self._detectors: dict[str, tuple] = {}  # metric -> (model_id, detector)
        # documents by store name: saved by the tick in progress, and
        # committed since the last checkpoint but not in the files: state
        # documents, and until _repair the journal's other documents
        self._pending: dict[str, dict] = {}
        self._since_checkpoint: dict[str, dict] = {}
        # metric -> the (mv, em) curves the last evaluation cycle built, or None
        self.last_curves: dict[str, Optional[tuple]] = {}
        self._appended = False  # the tick in progress appended to scores/ or alerts/
        self._ticking = False
        self._repaired = False
        self._load()

    # -- storage helpers --------------------------------------------------

    @staticmethod
    def _read_json(path: Path):
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def _load(self) -> None:
        """Read the committed store: the checkpoint, then every complete
        journal line in order.  Changes no file; see :meth:`_repair`."""
        meta = self._read_json(self.root / "meta.json")
        records, self._journal_end = self._read_journal()
        if meta is None or "lengths" not in meta:
            # a new store, or one kept before the journal: adopt its files
            self.now = int(meta.get("now", 0)) if meta else 0
            self._lengths = self._appended_lengths()
            self._checkpoint_due = True
            return
        self.now = int(meta["now"])
        self._lengths = dict(meta["lengths"])
        for record in records:
            self.now = int(record["tick"])
            self._lengths.update(record.get("lengths", {}))
            self._since_checkpoint.update(record.get("docs", {}))
        # a crash came between a checkpoint tick's record and its checkpoint
        self._checkpoint_due = bool(records and records[-1].get("checkpoint"))

    def _read_journal(self) -> tuple[list[dict], int]:
        """The journal's complete records and their byte length; a torn
        last line is not among them."""
        path = self.root / JOURNAL
        if not path.exists():
            return [], 0
        records, end = [], 0
        for line in path.read_bytes().split(b"\n")[:-1]:
            try:
                records.append(json.loads(line))
            except ValueError:
                break
            end += len(line) + 1
        return records, end

    def _repair(self) -> None:
        """Before this engine's first write, bring the files in line with the
        committed store: cut a torn journal line, write the committed model
        and health documents the files lack, cut the appended files back to
        their committed lengths and finish an interrupted checkpoint."""
        if self._repaired:
            return
        journal = self.root / JOURNAL
        if journal.exists() and journal.stat().st_size > self._journal_end:
            os.truncate(journal, self._journal_end)
        for name in sorted(self._since_checkpoint):
            if not name.startswith("state/"):
                doc = self._since_checkpoint.pop(name)
                path = self.root / name
                if not path.exists() or path.read_text() != _doc_text(doc):
                    _write_json(path, doc)
        for name, size in self._appended_lengths().items():
            committed = self._lengths.get(name)
            if committed is None:
                (self.root / name).unlink()
            elif size > committed:
                os.truncate(self.root / name, committed)
        if self._checkpoint_due:
            self._checkpoint()
        self._repaired = True

    def _appended_lengths(self) -> dict[str, int]:
        return {f"{sub}/{path.name}": path.stat().st_size
                for sub, pattern in APPENDED for path in sorted((self.root / sub).glob(pattern))}

    def _commit(self, checkpoint: bool = False) -> None:
        """Append the commit record of the changes made since the last one,
        then write the documents it holds; a checkpoint follows if asked."""
        record: dict = {"tick": self.now}
        if self._pending or self._appended:
            record.update(docs=self._pending, lengths=self._lengths)
        if checkpoint:
            record["checkpoint"] = True
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        _append(self.root / JOURNAL, line.encode())
        pending, self._pending, self._appended = self._pending, {}, False
        for name, doc in sorted(pending.items()):
            if name.startswith("state/"):
                self._since_checkpoint[name] = doc
            else:
                _write_json(self.root / name, doc)
        if checkpoint:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Write the committed state documents and the clock, then empty the journal."""
        for name, doc in sorted(self._since_checkpoint.items()):
            _write_json(self.root / name, doc)
        _write_json(self.root / "meta.json", {"lengths": self._lengths, "now": self.now})
        _atomic_write(self.root / JOURNAL, "")
        self._since_checkpoint.clear()

    def _end_cycle(self) -> None:
        """A cycle called on its own commits its changes and checkpoints; in
        a tick, the tick does."""
        if not self._ticking:
            self._commit(checkpoint=True)

    def _doc(self, name: str) -> Optional[dict]:
        """A store document as last saved: by the tick in progress, by a
        committed tick since the last checkpoint, or on disk."""
        for held in (self._pending, self._since_checkpoint):
            if name in held:
                return held[name]
        return self._read_json(self.root / name)

    def _append_file(self, name: str, text: str) -> None:
        data = text.encode()
        _append(self.root / name, data)
        self._lengths[name] = self._lengths.get(name, 0) + len(data)
        self._appended = True

    def _job_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    def _state_path(self, metric_id: str) -> Path:
        return self.root / _doc_name("state", metric_id)

    def _health_path(self, metric_id: str) -> Path:
        return self.root / _doc_name("health", metric_id)

    def _scores_path(self, metric_id: str) -> Path:
        return self.root / _doc_name("scores", metric_id)

    def _forget(self, metric_id: str) -> None:
        """Drop a metric's cached state, log and model; they reload as last saved."""
        for cache in (self._states, self._logs, self._records, self._detectors):
            cache.pop(metric_id, None)

    # -- registry ----------------------------------------------------------

    def register_job(self, spec: JobSpec) -> str:
        """Persist a job; idempotent for an identical spec, DuplicateId otherwise."""
        existing = self._read_json(self._job_path(spec.job_id))
        if existing is not None:
            if existing == spec.to_dict():
                return spec.job_id
            raise DuplicateId(f"job {spec.job_id!r} already registered with a different spec")
        for other in self.jobs():
            if other.metric_id == spec.metric_id:
                raise DuplicateId(f"metric {spec.metric_id!r} already registered under job {other.job_id!r}")
        _write_json(self._job_path(spec.job_id), spec.to_dict())
        self._jobs = None
        return spec.job_id

    def jobs(self) -> list[JobSpec]:
        if self._jobs is None:
            self._jobs = [JobSpec.from_dict(json.loads(path.read_text()))
                          for path in sorted((self.root / "jobs").glob("*.json"))]
        return list(self._jobs)

    def _series(self, spec: JobSpec) -> TimeSeries:
        cached = self._series_cache.get(spec.metric_id)
        if cached is not None:
            return cached
        if isinstance(spec.source, dict) and "inline" in spec.source:
            series = series_from_doc(spec.source["inline"])
        else:
            series = read_csv(str(spec.source))
        self._series_cache[spec.metric_id] = series
        return series

    def _warmup(self, spec: JobSpec) -> int:
        return max(30, 2 * spec.train_every)

    # -- model store --------------------------------------------------------

    def _active_record(self, metric_id: str) -> Optional[dict]:
        if metric_id not in self._records:
            self._records[metric_id] = self._doc(_doc_name("models", metric_id))
        return self._records[metric_id]

    def _detector(self, record: dict):
        """The detector of an active record, loaded once per model_id from
        the record and the stored filter state; it then keeps the live
        state itself.  It scores up to the model's TTL."""
        cached = self._detectors.get(record["metric_id"])
        if cached is None or cached[0] != record["model_id"]:
            state = self._scoring_state(record["metric_id"])
            detector = load_detector(record["payload"], state["filter_state"],
                                     horizon=record["expires_at"] - record["published_at"])
            cached = self._detectors[record["metric_id"]] = (record["model_id"], detector)
        return cached[1]

    def _publish_model(self, spec: JobSpec, now: int, detector, config: ModelConfig,
                       prof: DataProfile, generation: int) -> dict:
        record = {
            "schema": 1,
            "model_id": f"{spec.metric_id}-t{now}-g{generation}",
            "metric_id": spec.metric_id,
            "method": config.method,
            "payload": detector.model.to_dict(),
            "config": config.to_dict(),
            "profile": prof.to_dict(),
            "published_at": now,
            "expires_at": now + spec.model_ttl,
            "tune_generation": generation,
        }
        self._pending[_doc_name("models", spec.metric_id)] = record
        self._records[spec.metric_id] = record
        self._detectors[spec.metric_id] = (record["model_id"], detector)
        state = self._scoring_state(spec.metric_id)
        state.update(last_scored=now, filter_state=detector.state(), last_training_failed=False)
        self._save_scoring_state(spec.metric_id, state)
        return record

    # -- scoring state / log ---------------------------------------------------

    def _scoring_state(self, metric_id: str) -> dict:
        state = self._states.get(metric_id)
        if state is None:
            saved = self._doc(_doc_name("state", metric_id)) or {}
            state = {key: saved.get(key, fresh) for key, fresh in FRESH_STATE.items()}
            self._states[metric_id] = state
        return state

    def _save_scoring_state(self, metric_id: str, state: dict) -> None:
        self._states[metric_id] = state
        self._pending[_doc_name("state", metric_id)] = dict(state)

    def _score_log(self, metric_id: str) -> ev.ScoreLog:
        """The metric's newest LOG_WINDOW scores, rebuilt from the committed
        rows of its scores CSV.

        The CSV holds every (timestamp, probability, observed) the log
        ever held, written with ``repr``, so the rebuilt log is exact.
        """
        log = self._logs.get(metric_id)
        if log is None:
            log = ev.ScoreLog(metric_id, window=LOG_WINDOW)
            size = self._lengths.get(_doc_name("scores", metric_id), 0)
            if size:  # another engine may be appending rows it has not committed
                with open(self._scores_path(metric_id), "rb") as fh:
                    text = io.StringIO(fh.read(size).decode(), newline="")
                rows = deque(csv.DictReader(text), maxlen=LOG_WINDOW)
                log.entries = [(int(r["timestamp"]), float(r["probability"]), float(r["observed"]))
                               for r in rows]
            self._logs[metric_id] = log
        return log

    # -- alerting -----------------------------------------------------------------

    def _emit_alert(self, spec: JobSpec, timestamp: int, probability: float,
                    observed: float, expected: float) -> dict:
        event = {
            "metric_id": spec.metric_id,
            "timestamp": timestamp,
            "anomaly_probability": probability,
            "observed": observed,
            "expected": expected,
            "channel": self.alert_channel,
        }
        if self.alert_channel == "stdout":
            print(json.dumps(event, sort_keys=True))
        else:
            name = (
                f"{spec.metric_id}.jsonl"
                if self.alert_channel == "file"
                else "webhook_outbox.jsonl"
            )
            self._append_file(f"alerts/{name}", json.dumps(event, sort_keys=True) + "\n")
        return event

    # -- scoring cycle ---------------------------------------------------------------

    def run_scoring_cycle(self, now: int, force: bool = False) -> list[dict]:
        """Score every due metric's new observations with its active model.

        Returns the ScoreRecords written this cycle.  Expired models skip
        the metric and force its health to R; metrics without a model are
        skipped silently (they are still warming up).  Any other failure
        is isolated to its metric: the metric's cached state is dropped
        and its health forced to R with the error as the reason.
        """
        self._repair()
        records: list[dict] = []
        for spec in self.jobs():
            if not force and now % spec.score_every != 0:
                continue
            try:
                records.extend(self._score_metric(spec, now))
            except MissingModel:
                continue
            except ExpiredModel:
                self._force_red(spec, now, reason="expired model")
            except Exception as exc:  # noqa: BLE001 - cycle must survive any metric
                self._forget(spec.metric_id)
                self._force_red(spec, now, reason=f"scoring failed: {exc}")
        self._end_cycle()
        return records

    def _score_metric(self, spec: JobSpec, now: int) -> list[dict]:
        record = self._active_record(spec.metric_id)
        if record is None:
            raise MissingModel(spec.metric_id)
        if now >= record["expires_at"]:
            raise ExpiredModel(spec.metric_id)
        series = self._series(spec)
        state = self._scoring_state(spec.metric_id)
        start = max(int(state["last_scored"]), int(record["published_at"]))
        end = min(now, len(series))
        if end <= start:
            return []

        detector = self._detector(record)
        log = self._score_log(spec.metric_id)

        # a missing observation gets no score and no log entry and leaves
        # the filter where it was; last_scored still moves past it
        observed = series.values[start:end]
        present = ~np.isnan(observed)
        index, observed = np.arange(start, end)[present], observed[present]
        probs, expected = detector.score(index - int(record["published_at"]), observed)
        state["filter_state"] = detector.state()

        threshold = record["config"]["decision_threshold"]
        out = [self._finish_score(spec, series, i, obs, exp, prob, record, threshold, log)
               for i, obs, exp, prob in zip(index.tolist(), observed.tolist(),
                                            expected.tolist(), probs.tolist())]
        state["last_scored"] = end
        self._save_scoring_state(spec.metric_id, state)
        self._append_score_rows(spec.metric_id, out)
        return out

    def _finish_score(self, spec, series, index, observed, expected, prob, record, threshold, log) -> dict:
        timestamp = int(series.start_epoch + index * series.step)
        is_anomaly = prob >= threshold
        log.append(timestamp, prob, observed)
        if prob >= spec.alert_threshold:
            self._emit_alert(spec, timestamp, prob, observed, expected)
        return {
            "metric_id": spec.metric_id,
            "timestamp": timestamp,
            "observed": observed,
            "expected": expected,
            "probability": prob,
            "is_anomaly": int(is_anomaly),
            "model_id": record["model_id"],
        }

    def _append_score_rows(self, metric_id: str, rows: list[dict]) -> None:
        if not rows:
            return
        name = _doc_name("scores", metric_id)
        text = io.StringIO()
        writer = csv.writer(text)
        if name not in self._lengths:
            writer.writerow(
                ["metric_id", "timestamp", "observed", "expected",
                 "probability", "is_anomaly", "model_id"]
            )
        for r in rows:
            writer.writerow(
                [r["metric_id"], r["timestamp"], repr(r["observed"]),
                 repr(r["expected"]), repr(r["probability"]),
                 r["is_anomaly"], r["model_id"]]
            )
        self._append_file(name, text.getvalue())

    # -- training cycle ------------------------------------------------------------------

    def run_training_cycle(self, now: int, force: bool = False) -> list[dict]:
        """Retrain every due metric, tuning first where health is red.

        Per-metric failures are isolated: they are recorded (feeding the
        health evaluation) and never abort the cycle.
        """
        self._repair()
        outcomes = [self._train_metric(spec, now) for spec in self.jobs()
                    if force or (now % spec.train_every == 0 and now >= self._warmup(spec))]
        self._end_cycle()
        return outcomes

    def _tune_seed(self, metric_id: str, generation: int) -> int:
        return (zlib.crc32(metric_id.encode()) + 7919 * generation + self.seed) % (2**31)

    def _train_metric(self, spec: JobSpec, now: int) -> dict:
        outcome = {"metric_id": spec.metric_id, "at": now, "status": "trained",
                   "tuned": False, "method": None, "error": None}
        try:
            state = self._scoring_state(spec.metric_id)
            series = self._series(spec)
            data = series.with_values(series.values[: min(now, len(series))])
            health_doc = self._doc(_doc_name("health", spec.metric_id))
            health = health_doc["snapshot"]["health"] if health_doc else None
            record = self._active_record(spec.metric_id)
            generation = int(state["tune_generation"])

            if health == "R":
                result = tune(
                    data,
                    budget=self.tune_budget,
                    alpha=spec.alpha,
                    seed=self._tune_seed(spec.metric_id, generation + 1),
                )
                generation += 1
                state["tune_generation"] = generation
                self._save_scoring_state(spec.metric_id, state)
                _write_json(
                    self.root / "tunes" / f"{spec.metric_id}-g{generation}.json",
                    result.to_dict(),
                )
                config = result.best_config
                outcome["tuned"] = True
            elif record is not None:
                config = ModelConfig.from_dict(record["config"])
            else:
                config = None  # profile-informed default, built below

            prof = profile_series(data)
            if config is None:
                config = default_config(prof, len(data))
            prepared = impute(data, config.max_missing_fraction)
            if config.truncate_at is not None and 0 < config.truncate_at < len(prepared) - 30:
                prepared = prepared.truncated(config.truncate_at)

            try:
                detector, _ = fit_detector(prepared, prof, config, horizon=spec.model_ttl)
            except AutoAdError as exc:
                if config.method != "structural":
                    raise
                # keep the metric alive on a filter model rather than alert-blind
                outcome["error"] = f"structural fit failed: {exc}"
                config = dataclasses.replace(config, method="filtering", structural_params=None)
                detector, _ = fit_detector(prepared, prof, config)

            self._publish_model(spec, now, detector, config, prof, generation)
            outcome["method"] = config.method
            outcome["status"] = "trained" if outcome["error"] is None else "trained_fallback"
        except Exception as exc:  # noqa: BLE001 - cycle must survive any metric
            outcome["status"] = "failed"
            outcome["error"] = str(exc)
            self._forget(spec.metric_id)
            state = self._scoring_state(spec.metric_id)
            state["last_training_failed"] = True
            self._save_scoring_state(spec.metric_id, state)
        return outcome

    # -- evaluation cycle -----------------------------------------------------------------

    def _force_red(self, spec: JobSpec, now: int, reason: str) -> ev.HealthSnapshot:
        try:
            snapshot = self._evaluate_metric(spec, now, ev.HealthThresholds())
        except Exception:  # noqa: BLE001 - the metric is labelled R regardless
            self._forget(spec.metric_id)
            snapshot = ev.HealthSnapshot(0.0, 0.0, 0.0, 0, 0.0, 1.0, "R")
        if snapshot.health != "R":
            snapshot = dataclasses.replace(
                snapshot, model_age_fraction=max(snapshot.model_age_fraction, 1.0), health="R")
        self._pending[_doc_name("health", spec.metric_id)] = {
            "at": now, "reason": reason, "snapshot": snapshot.to_dict()}
        return snapshot

    def metric_curves(self, spec: JobSpec, now: int):
        """(mv, em) curve points for one metric, or None without history.

        The curves judge the stable scores against the active model's
        predictive Gaussian for the newest scored point, over the observed
        value range padded by 10% on each side; the level-set volumes are
        exact (:func:`~autoad.evaluation.level_set_volume`).  None means
        there is no model or not enough stable score history yet.
        """
        record = self._active_record(spec.metric_id)
        if record is None:
            return None
        log = self._score_log(spec.metric_id)
        scores = log.stable_scores(spec.alert_threshold, guard=5)
        if scores.size < MIN_EVAL_SCORES:
            return None
        obs = log.observations()
        lo, hi = float(obs.min()), float(obs.max())
        span = max(hi - lo, 1e-6 * max(abs(hi), 1.0), 1e-9)
        domain = (lo - 0.1 * span, hi + 0.1 * span)

        # the newest scored point, at least the first after training
        step = max(now - int(record["published_at"]), 1) - 1
        detector = self._detector(record)
        center, scale = detector.predictive(step)
        model = detector.model
        offset = model.log_offset if model.log_scale else None

        def volume(us):
            return ev.level_set_volume(us, center, scale, domain, offset)

        mv = ev.mv_curve(volume, scores, ev.default_alphas())
        em = ev.em_curve(volume, scores, ev.default_em_ts(scores, domain))
        return mv, em

    def _evaluate_metric(self, spec: JobSpec, now: int,
                         thresholds: ev.HealthThresholds,
                         curve_stats=None) -> ev.HealthSnapshot:
        state = self._scoring_state(spec.metric_id)
        log = self._score_log(spec.metric_id)
        record = self._active_record(spec.metric_id)
        if record is not None:
            ttl = record["expires_at"] - record["published_at"]
            age = (now - record["published_at"]) / ttl if ttl > 0 else 1.0
        else:
            age = 0.0
        rate = log.anomaly_rate(spec.alert_threshold, last=RATE_WINDOW)
        consec = log.consecutive_anomalies(spec.alert_threshold)
        cov = log.coefficient_of_variation()
        failed = bool(state["last_training_failed"])

        if curve_stats is None:
            # not enough stable history: the series stays under scrutiny
            if record is None or len(log.entries) < MIN_EVAL_SCORES:
                return ev.HealthSnapshot(0.0, 0.0, rate, consec, cov, age, "Y")
            mv_avg, em_avg = 0.0, 0.0
            thresholds = ev.HealthThresholds()
        else:
            mv_avg, em_avg = curve_stats
        health = ev.classify_health(
            mv_avg, em_avg, rate, consec, age, thresholds, last_training_failed=failed,
        )
        return ev.HealthSnapshot(mv_avg, em_avg, rate, consec, cov, age, health)

    def run_evaluation_cycle(self, now: int) -> dict[str, ev.HealthSnapshot]:
        """Label every registered metric G, Y or R (one label per metric).

        A metric whose evaluation fails is labelled R with the error as
        the reason; the other metrics are labelled as usual.  The curves
        built for each metric stay in :attr:`last_curves`.
        """
        self._repair()
        specs = self.jobs()
        self.last_curves = {}
        stats: dict[str, Optional[tuple[float, float]]] = {}
        errors: dict[str, Exception] = {}
        for spec in specs:
            metric = spec.metric_id
            try:
                curves = self.metric_curves(spec, now)
                stats[metric] = None if curves is None else ev.summarize_criteria(*curves)
            except AutoAdError:
                curves = stats[metric] = None
            except Exception as exc:  # noqa: BLE001 - cycle must survive any metric
                curves = stats[metric] = None
                errors[metric] = exc
            self.last_curves[metric] = curves

        mv_values = [s[0] for s in stats.values() if s is not None]
        em_values = [s[1] for s in stats.values() if s is not None]
        thresholds = ev.HealthThresholds(
            mv_red=2.0 * float(np.median(mv_values)) if mv_values else None,
            em_red=0.5 * float(np.median(em_values)) if em_values else None,
        )

        out: dict[str, ev.HealthSnapshot] = {}
        for spec in specs:
            error = errors.get(spec.metric_id)
            if error is None:
                try:
                    snapshot = self._evaluate_metric(spec, now, thresholds, stats[spec.metric_id])
                    self._pending[_doc_name("health", spec.metric_id)] = {
                        "at": now, "snapshot": snapshot.to_dict()}
                except Exception as exc:  # noqa: BLE001 - cycle must survive any metric
                    error = exc
            if error is not None:
                self._forget(spec.metric_id)
                snapshot = self._force_red(spec, now, reason=f"evaluation failed: {error}")
            out[spec.metric_id] = snapshot
        self._end_cycle()
        return out

    # -- clock ---------------------------------------------------------------------------

    def advance_clock(self, steps: int) -> int:
        """Advance the simulated clock tick by tick, firing due cycles.

        Each tick ends with its commit record, and a tick that trains with
        a checkpoint.  If an exception escapes a tick, the store holds the
        ticks committed before it, and a new engine on the same directory
        carries on from there exactly.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self._repair()
        specs = self.jobs()
        for _ in range(steps):
            self.now += 1
            tick = self.now
            training = any(tick % s.train_every == 0 and tick >= self._warmup(s) for s in specs)
            self._ticking = True
            try:
                if any(tick % s.score_every == 0 for s in specs):
                    self.run_scoring_cycle(tick)
                if training:
                    self.run_training_cycle(tick)
                    self.run_evaluation_cycle(tick)
            finally:
                self._ticking = False
            self._commit(checkpoint=training)
        return self.now

    # -- reporting ----------------------------------------------------------------------

    def status(self) -> list[dict]:
        rows = []
        for spec in self.jobs():
            health_doc = self._doc(_doc_name("health", spec.metric_id))
            record = self._active_record(spec.metric_id)
            state = self._scoring_state(spec.metric_id)
            rows.append(
                {
                    "job_id": spec.job_id,
                    "metric_id": spec.metric_id,
                    "health": health_doc["snapshot"]["health"] if health_doc else "-",
                    "method": record["method"] if record else "-",
                    "model_id": record["model_id"] if record else "-",
                    "tune_generation": int(state["tune_generation"]),
                    "last_scored": int(state["last_scored"]),
                }
            )
        return rows

    def tune_generation(self, metric_id: str) -> int:
        return int(self._scoring_state(metric_id)["tune_generation"])
