"""Single-node simulator of the full detection service.

A deterministic step clock reveals each registered series one point per
tick.  Scoring cycles consume the newest points with the active model,
training cycles refit (tuning first when the last health label was red),
and evaluation cycles turn score logs into green/yellow/red labels; every
label, a forced red included, comes from :meth:`Engine._label`.  At a
coincident tick the order is score, then train, then evaluate, so
scoring always uses the pre-existing model and retraining evidence stays
uncontaminated.

All state lives as JSON/CSV documents under a data directory, so every
cycle is inspectable and re-runnable; :class:`~autoad.store.Store` makes
every write to it (see :mod:`autoad.store` for the layout and the crash
recovery).  Each tick, and nothing else, ends with a commit: a cycle
called on its own leaves its changes to the same engine's next tick.  A
tick that crashed before its commit runs again, and a metric whose score
rows fail to be appended scores the same points at its next scoring
tick: either way the rows come out exactly once, and the alerts of
their points that an engine prints as it scores (``print_alerts``) are
printed again (at-least-once delivery).

What the score rows already hold is not stored twice, so a scoring
tick's record holds only its metrics' scoring positions: the score log
is the tail of the metric's scores CSV, and a filter model's live state
is redone from its state at publication over the model's rows in that
CSV (the redo-from-the-log of ARIES again), both read back when an
engine first needs them.  A metric's alerts are its committed rows at or
above its ``alert_threshold`` (:meth:`Engine.alerts`), so no file holds
them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import zlib
from collections import deque
from typing import Optional

import numpy as np

from . import evaluation as ev
from .errors import DuplicateId, InvalidSpec
from .optimizer import MIN_BUDGET, ModelConfig, default_config, load_detector, train_detector, tune
from .profiling import profile as profile_series
from .series import TimeSeries, read_csv
from .store import Store

RATE_WINDOW = 48  # scores considered by the anomaly-rate trigger
MIN_EVAL_SCORES = 8  # fewer stable scores than this keeps a series in Y
LOG_WINDOW = 500  # newest scores kept in a metric's score log
# a metric's scoring state before its first training
FRESH_STATE = {"last_scored": 0, "tune_generation": 0, "last_training_error": None}
SCORES_HEADER = "metric_id,timestamp,observed,expected,probability,is_anomaly,model_id\r\n"


def _doc_name(kind: str, metric_id: str) -> str:
    """The store name of a metric's ``state``, ``models`` or ``health``
    document (its key in the checkpoint), or of its ``scores`` CSV (its
    path under the data directory)."""
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
        # an id names files under the data directory, so it must name one there
        for name in ("job_id", "metric_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value or "/" in value or "\0" in value:
                raise InvalidSpec(f"{name} must be a non-empty string without '/' or NUL, not {value!r}")
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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data) -> "JobSpec":
        """The spec a JSON document describes; a missing or malformed
        field raises InvalidSpec naming it."""
        if not isinstance(data, dict):
            raise InvalidSpec("a job spec must be a JSON object")
        fields = {}
        for field in dataclasses.fields(cls):
            value = data.get(field.name, field.default)
            if value is dataclasses.MISSING:
                raise InvalidSpec(f"job spec lacks {field.name!r}")
            number = {"int": int, "float": float}.get(field.type)  # the annotation, a string here
            try:
                fields[field.name] = value if number is None else number(value)
            except (TypeError, ValueError):
                raise InvalidSpec(f"job spec field {field.name!r} must be a number, not {value!r}") from None
        return cls(**fields)


def warmup(train_every: int) -> int:
    """The first tick at which a metric with this training cadence may
    train: none of its trainings runs before it."""
    return max(30, 2 * train_every)


def series_to_doc(ts: TimeSeries) -> dict:
    values = [None if math.isnan(v) else float(v) for v in ts.values]
    return {"start_epoch": ts.start_epoch, "step": ts.step, "values": values}


def series_from_doc(doc: dict) -> TimeSeries:
    values = [math.nan if v is None else float(v) for v in doc["values"]]
    return TimeSeries.from_values(values, step=int(doc["step"]), start_epoch=int(doc["start_epoch"]))


def _csv_field(text: str) -> str:
    """``text`` as a field of ``csv.writer``'s default dialect: quoted,
    with its quotes doubled, when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _score_lines(rows: list[dict]) -> str:
    """The scores CSV lines of one cycle's rows of one metric, all scored by
    one model, byte for byte as ``csv.writer`` writes them.  The floats are
    written with ``repr``, so they read back exactly."""
    head, tail = _csv_field(rows[0]["metric_id"]), _csv_field(rows[0]["model_id"])
    return "".join(f"{head},{r['timestamp']},{r['observed']!r},{r['expected']!r},"
                   f"{r['probability']!r},{r['is_anomaly']},{tail}\r\n" for r in rows)


def _csv_rows(data: bytes, offset: int):
    """The rows of a scores CSV's bytes from byte ``offset`` on, as lists
    of fields; the header, which starts the file, is not among them."""
    rows = csv.reader(io.StringIO(data[offset:].decode(), newline=""))
    if offset == 0:
        next(rows, None)
    return rows


def _alert_line(metric_id: str, timestamp: int, probability: float, observed: float, expected: float) -> str:
    """One alert as a line of JSON, without its line break."""
    return json.dumps({"metric_id": metric_id, "timestamp": timestamp, "anomaly_probability": probability,
                       "observed": observed, "expected": expected}, sort_keys=True)


class Engine:
    """File-backed orchestrator driven by a simulated step clock."""

    def __init__(
        self,
        data_dir,
        tune_budget: int = 20,
        print_alerts: bool = False,
        seed: int = 0,
        *,
        workers: int = 1,
        n_mc: int = 10_000,
    ):
        """With ``print_alerts`` each alert is also printed as its row is
        scored, as the line :meth:`alerts` reads back.
        ``workers`` and ``n_mc`` are ignored: training runs on one
        thread, and the evaluation volumes are exact, not sampled.  The
        two keywords stay because ``perfbench/workload.py`` passes them,
        and the benchmark harness changes only with the benchmark itself."""
        if tune_budget < MIN_BUDGET:
            raise ValueError(f"tune_budget must be at least {MIN_BUDGET}")
        self.store = Store(data_dir)
        self.root = self.store.root
        self.now = self.store.now  # the tick being run, once advance_clock starts it
        self.tune_budget = tune_budget
        self.print_alerts = print_alerts
        self.seed = seed
        self._series_cache: dict[str, TimeSeries] = {}
        # built from the store on first use; _forget drops a metric's log and detector
        self._jobs: Optional[list[JobSpec]] = None
        self._logs: dict[str, ev.ScoreLog] = {}
        self._detectors: dict[str, tuple] = {}  # metric -> (model_id, detector)
        # metric -> the (mv, em) curves the last evaluation cycle built, or None
        self.last_curves: dict[str, Optional[tuple]] = {}

    def close(self) -> None:
        """Close the store's held append handles; see :meth:`Store.close`."""
        self.store.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _forget(self, metric_id: str) -> None:
        """Drop a metric's score log and detector; they reload as last saved."""
        for cache in (self._logs, self._detectors):
            cache.pop(metric_id, None)

    # -- registry ----------------------------------------------------------

    def register_job(self, spec: JobSpec) -> str:
        """Persist a job; idempotent for an identical spec, DuplicateId otherwise."""
        registered = {other.job_id: other for other in self.jobs()}
        if registered.get(spec.job_id, spec) != spec:
            raise DuplicateId(f"job {spec.job_id!r} already registered with a different spec")
        if spec.job_id in registered:
            return spec.job_id
        for other in registered.values():
            if other.metric_id == spec.metric_id:
                raise DuplicateId(f"metric {spec.metric_id!r} already registered under job {other.job_id!r}")
        self.store.write(f"jobs/{spec.job_id}.json", spec.to_dict())
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

    # -- model store --------------------------------------------------------

    def _active_record(self, metric_id: str) -> Optional[dict]:
        return self.store.doc(_doc_name("models", metric_id))

    def _detector(self, record: dict):
        """The detector of an active record, loaded once per model_id; it
        then keeps its live state itself.  It scores the steps of the
        model's TTL, from ``published_at`` to just before ``expires_at``.

        A live state is not stored: the record's ``published_state`` is
        brought forward by scoring again the model's committed rows, from
        the record's ``scores_offset`` in the scores CSV on.  A live state
        comes out the same however its stream is cut, so this is exact.
        """
        metric_id = record["metric_id"]
        cached = self._detectors.get(metric_id)
        if cached is None or cached[0] != record["model_id"]:
            detector = load_detector(record["payload"], record["published_state"],
                                     horizon=record["expires_at"] - record["published_at"])
            if detector.state() is not None:
                data = self.store.committed(_doc_name("scores", metric_id))
                if metric_id not in self._logs:  # the log reloads from the same read
                    self._logs[metric_id] = self._log_of(metric_id, data)
                observed = [float(r[2]) for r in _csv_rows(data, record["scores_offset"])]
                if observed:  # a detector with a live state ignores the steps
                    detector.score(None, np.array(observed))
            cached = self._detectors[metric_id] = (record["model_id"], detector)
        return cached[1]

    def _publish_model(self, spec: JobSpec, now: int, detector, config: ModelConfig,
                       generation: int) -> dict:
        record = {
            "model_id": f"{spec.metric_id}-t{now}-g{generation}",
            "metric_id": spec.metric_id,
            "method": config.method,
            "payload": detector.model.to_dict(),
            "config": config.to_dict(),
            "published_at": now,
            "expires_at": now + spec.model_ttl,
            "tune_generation": generation,
            # the live state at publication and the scores CSV's byte offset where its rows start
            "published_state": detector.state(),
            "scores_offset": self.store.length(_doc_name("scores", spec.metric_id)),
        }
        self.store.put(_doc_name("models", spec.metric_id), record)
        self._detectors[spec.metric_id] = (record["model_id"], detector)
        state = self._scoring_state(spec.metric_id)
        state.update(last_scored=now, last_training_error=None)
        self.store.put(_doc_name("state", spec.metric_id), state)
        return record

    # -- scoring state / log ---------------------------------------------------

    def _scoring_state(self, metric_id: str) -> dict:
        """A copy of the metric's scoring state as last saved, to edit and
        put back whole in the store."""
        return dict(self.store.doc(_doc_name("state", metric_id)) or FRESH_STATE)

    @staticmethod
    def _log_of(metric_id: str, data: bytes) -> ev.ScoreLog:
        """The score log of a scores CSV's bytes: its newest LOG_WINDOW rows.

        The CSV holds every (timestamp, probability, observed) the log
        ever held, written with ``repr``, so the rebuilt log is exact.
        """
        rows = deque(_csv_rows(data, 0), maxlen=LOG_WINDOW)
        return ev.ScoreLog(metric_id, LOG_WINDOW, ((int(r[1]), float(r[4]), float(r[2])) for r in rows))

    def _score_log(self, metric_id: str) -> ev.ScoreLog:
        """The metric's newest LOG_WINDOW scores, rebuilt from the committed
        rows of its scores CSV."""
        log = self._logs.get(metric_id)
        if log is None:
            data = self.store.committed(_doc_name("scores", metric_id))
            log = self._logs[metric_id] = self._log_of(metric_id, data)
        return log

    # -- alerting -----------------------------------------------------------------

    def alerts(self, spec: JobSpec) -> list[str]:
        """The metric's alerts, one JSON line per score row at or above its
        ``alert_threshold``, oldest first: the committed rows, and this
        engine's own since its last commit (:meth:`Store.committed`).  It
        changes no file, and beside a running engine it reads none of that
        engine's uncommitted rows."""
        data = self.store.committed(_doc_name("scores", spec.metric_id))
        return [_alert_line(spec.metric_id, int(r[1]), float(r[4]), float(r[2]), float(r[3]))
                for r in _csv_rows(data, 0) if float(r[4]) >= spec.alert_threshold]

    # -- scoring cycle ---------------------------------------------------------------

    def run_scoring_cycle(self, now: int) -> list[dict]:
        """Score every due metric's new observations with its active model.

        Returns the ScoreRecords written this cycle.  Metrics without a
        model are skipped silently (they are still warming up).  A model
        scores the points of its ``model_ttl`` ticks, those before its
        ``expires_at``, and nothing after: a metric whose model has run out
        (its training failed) waits for a model, and the evaluation labels
        it.  A failure is isolated to its metric: its score log and
        detector are dropped, its scoring position stays where it was, so
        the next scoring tick scores the same points again, and it is
        labelled R with the error as the reason.  Called on its own, the
        cycle commits nothing: the engine's next tick does.
        """
        self.store.repair()
        records: list[dict] = []
        for spec in self.jobs():
            if now % spec.score_every != 0:
                continue
            try:
                record = self._active_record(spec.metric_id)
                if record is not None:
                    records.extend(self._score_metric(spec, record, now))
            except Exception as exc:  # noqa: BLE001 - cycle must survive any metric
                self._forget(spec.metric_id)
                self._label(spec, now, reason=f"scoring failed: {exc}")
        return records

    def _score_metric(self, spec: JobSpec, record: dict, now: int) -> list[dict]:
        series = self._series(spec)
        state = self._scoring_state(spec.metric_id)
        start = max(int(state["last_scored"]), int(record["published_at"]))
        end = min(now, len(series), int(record["expires_at"]))
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

        threshold = record["config"]["decision_threshold"]
        out = [self._finish_score(spec, series, i, obs, exp, prob, record, threshold, log)
               for i, obs, exp, prob in zip(index.tolist(), observed.tolist(),
                                            expected.tolist(), probs.tolist())]
        self._append_score_rows(spec.metric_id, out)
        state["last_scored"] = end
        self.store.put(_doc_name("state", spec.metric_id), state)
        return out

    def _finish_score(self, spec, series, index, observed, expected, prob, record, threshold, log) -> dict:
        timestamp = int(series.start_epoch + index * series.step)
        is_anomaly = prob >= threshold
        log.append(timestamp, prob, observed)
        if prob >= spec.alert_threshold and self.print_alerts:
            print(_alert_line(spec.metric_id, timestamp, prob, observed, expected))
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
        text = _score_lines(rows)
        self.store.append(name, text if self.store.length(name) else SCORES_HEADER + text)

    # -- training cycle ------------------------------------------------------------------

    def run_training_cycle(self, now: int) -> list[dict]:
        """Retrain every due metric, tuning first where health is red.

        Per-metric failures are isolated: they are recorded (feeding the
        health evaluation) and never abort the cycle.  Called on its own,
        the cycle commits nothing: the engine's next tick does.
        """
        self.store.repair()
        return [self._train_metric(spec, now) for spec in self.jobs()
                if now % spec.train_every == 0 and now >= warmup(spec.train_every)]

    def _tune_seed(self, metric_id: str, generation: int) -> int:
        return (zlib.crc32(metric_id.encode()) + 7919 * generation + self.seed) % (2**31)

    def _train_metric(self, spec: JobSpec, now: int) -> dict:
        outcome = {"metric_id": spec.metric_id, "at": now, "status": "trained",
                   "tuned": False, "method": None, "error": None}
        try:
            state = self._scoring_state(spec.metric_id)
            series = self._series(spec)
            data = series.with_values(series.values[: min(now, len(series))])
            health_doc = self.store.doc(_doc_name("health", spec.metric_id))
            health = health_doc["snapshot"]["health"] if health_doc else None
            record = self._active_record(spec.metric_id)
            generation = int(state["tune_generation"])

            # a red metric tunes unless its newest tune was never published
            # (its fit failed): then it refits as if it were not red
            if health == "R" and generation == (record["tune_generation"] if record else 0):
                result = tune(data, budget=self.tune_budget, alpha=spec.alpha,
                              seed=self._tune_seed(spec.metric_id, generation + 1))
                generation += 1
                state["tune_generation"] = generation
                self.store.put(_doc_name("state", spec.metric_id), state)
                self.store.write(f"tunes/{spec.metric_id}-g{generation}.json", result.to_dict())
                config, prof, refits = result.best_config, result.profile, None
                outcome["tuned"] = True
            elif record is not None:
                config, prof, refits = ModelConfig.from_dict(record["config"]), None, record["payload"]
            else:
                prof = profile_series(data)
                config, refits = default_config(prof, len(data)), None
            detector, config, outcome["error"] = train_detector(data, config, spec.model_ttl, prof, refits)
            self._publish_model(spec, now, detector, config, generation)
            outcome["method"] = config.method
            outcome["status"] = "trained" if outcome["error"] is None else "trained_fallback"
        except Exception as exc:  # noqa: BLE001 - cycle must survive any metric
            outcome["status"] = "failed"
            outcome["error"] = str(exc)
            self._forget(spec.metric_id)
            state = self._scoring_state(spec.metric_id)
            state["last_training_error"] = str(exc)
            self.store.put(_doc_name("state", spec.metric_id), state)
        return outcome

    # -- evaluation cycle -----------------------------------------------------------------

    def metric_curves(self, spec: JobSpec, now: int):
        """(mv, em) curve points for one metric, or None without history.

        The curves judge the stable scores by the active detector's level
        sets at the newest point it scored, the step before ``min(now,
        expires_at)`` (at least its first), over the observed value range
        padded by 10% on each side, one volume call over the distinct
        stable scores serving both curves.  None means there is no model
        or not enough stable score history yet.
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

        # the newest point the model scored, at least its first
        step = max(min(now, int(record["expires_at"])) - int(record["published_at"]), 1) - 1
        detector = self._detector(record)
        sample = ev.ScoreSample(scores)
        volume = sample.shared_volume(lambda us: detector.level_set_volume(us, step, domain))
        mv = ev.mv_curve(volume, sample, ev.default_alphas())
        em = ev.em_curve(volume, sample, ev.default_em_ts(sample.sorted, domain))
        return mv, em

    def _label(self, spec: JobSpec, now: int, reason: Optional[str] = None, curve_stats=None,
               thresholds: ev.HealthThresholds = ev.HealthThresholds()) -> ev.HealthSnapshot:
        """Label one metric G, Y or R, put its health document (no other
        code does) and return its snapshot.

        ``curve_stats``, the metric's (mv_avg, em_avg), are judged against
        the fleet's ``thresholds``; without them no curve trigger fires,
        and a metric with no model or under MIN_EVAL_SCORES scores stays Y
        unless its training failed.  A given ``reason`` forces R, with the
        model's real age, and is the document's reason; else the failed
        training's error is.  An evaluation that raises is labelled again,
        forced red by its error; a forced red whose statistics cannot be
        read stores zeros beside the age."""
        record = self._active_record(spec.metric_id)
        age, training_error = 0.0, None
        try:
            if record is not None:
                age = (now - record["published_at"]) / (record["expires_at"] - record["published_at"])
            training_error = self._scoring_state(spec.metric_id)["last_training_error"]
            log = self._score_log(spec.metric_id)
            rate = log.anomaly_rate(spec.alert_threshold, last=RATE_WINDOW)
            consec = log.consecutive_anomalies(spec.alert_threshold)
            mv_avg, em_avg = curve_stats or (0.0, 0.0)
            if reason is not None:
                health = "R"
            elif curve_stats is None and training_error is None and (record is None or len(log) < MIN_EVAL_SCORES):
                health = "Y"
            else:
                health = ev.classify_health(mv_avg, em_avg, rate, consec, age,
                                            thresholds if curve_stats else ev.HealthThresholds(),
                                            last_training_failed=training_error is not None)
            snapshot = ev.HealthSnapshot(mv_avg, em_avg, rate, consec, log.coefficient_of_variation(), age, health)
        except Exception as exc:  # noqa: BLE001 - the metric is labelled R regardless
            self._forget(spec.metric_id)
            if reason is None:
                return self._label(spec, now, reason=f"evaluation failed: {exc}")
            snapshot = ev.HealthSnapshot(0.0, 0.0, 0.0, 0, 0.0, age, "R")
        if reason is None and training_error is not None:
            reason = f"training failed: {training_error}"
        doc = {"at": now, "snapshot": snapshot.to_dict()}
        if reason is not None:
            doc["reason"] = reason
        self.store.put(_doc_name("health", spec.metric_id), doc)
        return snapshot

    def run_evaluation_cycle(self, now: int) -> dict[str, ev.HealthSnapshot]:
        """Label every registered metric G, Y or R (one label per metric).

        A metric whose evaluation fails is labelled R with the error as
        the reason; the other metrics are labelled as usual.  The curves
        built for each metric stay in :attr:`last_curves`.  The cycle
        writes no file (the engine's next tick commits its labels), so
        ``autoad eval`` reads the store as ``status`` does.
        """
        specs = self.jobs()
        self.last_curves = {}
        stats: dict[str, Optional[tuple[float, float]]] = {}
        reasons: dict[str, str] = {}  # metric -> why its evaluation failed
        for spec in specs:
            metric = spec.metric_id
            try:
                curves = self.metric_curves(spec, now)
                stats[metric] = None if curves is None else ev.summarize_criteria(*curves)
            except Exception as exc:  # noqa: BLE001 - cycle must survive any metric
                self._forget(metric)
                curves = stats[metric] = None
                reasons[metric] = f"evaluation failed: {exc}"
            self.last_curves[metric] = curves

        mv_values = [s[0] for s in stats.values() if s is not None]
        em_values = [s[1] for s in stats.values() if s is not None]
        thresholds = ev.HealthThresholds(
            mv_red=2.0 * float(np.median(mv_values)) if mv_values else None,
            em_red=0.5 * float(np.median(em_values)) if em_values else None,
        )

        return {spec.metric_id: self._label(spec, now, reasons.get(spec.metric_id), stats[spec.metric_id],
                                            thresholds) for spec in specs}

    # -- clock ---------------------------------------------------------------------------

    def advance_clock(self, steps: int) -> int:
        """Advance the simulated clock tick by tick, firing due cycles.

        Each tick, and nothing else, ends with a commit record, followed by
        a checkpoint when the record takes the journal past its bound.  If
        an exception escapes a tick, the store holds the ticks committed
        before it, and a new engine on the same directory carries on from
        there exactly.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self.store.repair()
        specs = self.jobs()
        for _ in range(steps):
            self.now += 1
            tick = self.now
            if any(tick % s.score_every == 0 for s in specs):
                self.run_scoring_cycle(tick)
            if any(tick % s.train_every == 0 and tick >= warmup(s.train_every) for s in specs):
                self.run_training_cycle(tick)
                self.run_evaluation_cycle(tick)
            self.store.commit(tick)
        return self.now

    # -- reporting ----------------------------------------------------------------------

    def status(self) -> list[dict]:
        rows = []
        for spec in self.jobs():
            health_doc = self.store.doc(_doc_name("health", spec.metric_id))
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
