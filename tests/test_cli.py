import csv
import json

import numpy as np
import pytest

from autoad.cli import main
from autoad.orchestrator import series_to_doc
from autoad.series import TimeSeries


def make_job_file(tmp_path, n=240, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = 10 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n)
    series = TimeSeries.from_values(values, step=3600)
    spec = {
        "job_id": "cli-job",
        "metric_id": "cli-metric",
        "source": {"inline": series_to_doc(series)},
        "train_every": 48,
        "score_every": 1,
        "model_ttl": 96,
        "alpha": 0.5,
        "alert_threshold": 0.95,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    return path


def test_register_run_status_eval_round_trip(tmp_path, capsys):
    job = make_job_file(tmp_path)
    data_dir = str(tmp_path / "store")

    assert main(["register", "--spec", str(job), "--data-dir", data_dir]) == 0
    assert "registered job cli-job" in capsys.readouterr().out

    assert main(["run", "--until", "200", "--data-dir", data_dir]) == 0
    out = capsys.readouterr().out
    assert "advanced clock to 200" in out
    assert "cli-metric" in out

    assert main(["status", "--data-dir", data_dir]) == 0
    out = capsys.readouterr().out
    assert "cli-metric" in out
    assert any(h in out for h in (" G", " Y", " R"))

    curves = tmp_path / "curves.csv"
    assert main([
        "eval", "--metric", "cli-metric", "--data-dir", data_dir,
        "--emit-curves", str(curves),
    ]) == 0
    out = capsys.readouterr().out
    snapshot = json.loads(out[: out.index("curves written to")])
    with open(curves, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["curve", "x", "value"]
    kinds = {row[0] for row in rows[1:]}
    assert kinds == {"mv", "em"}
    # the emitted curves are the ones the printed snapshot averages
    for kind in ("mv", "em"):
        values = [float(row[2]) for row in rows[1:] if row[0] == kind]
        assert float(np.mean(values)) == snapshot[f"{kind}_avg"]


def test_register_twice_is_idempotent(tmp_path, capsys):
    job = make_job_file(tmp_path)
    data_dir = str(tmp_path / "store")
    assert main(["register", "--spec", str(job), "--data-dir", data_dir]) == 0
    assert main(["register", "--spec", str(job), "--data-dir", data_dir]) == 0


def library_error(capsys) -> str:
    """The one line a command that failed with a library error printed."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("autoad: error: ")
    return captured.err


def test_store_of_another_schema_is_one_error_line(tmp_path, capsys):
    data_dir = tmp_path / "store"
    data_dir.mkdir()
    (data_dir / "meta.json").write_text(json.dumps({"docs": {}, "lengths": {}, "now": 0, "schema": 1}))
    assert main(["status", "--data-dir", str(data_dir)]) == 2
    assert "schema 1" in library_error(capsys)


def test_conflicting_register_is_one_error_line(tmp_path, capsys):
    job = make_job_file(tmp_path)
    data_dir = str(tmp_path / "store")
    assert main(["register", "--spec", str(job), "--data-dir", data_dir]) == 0
    capsys.readouterr()
    spec = json.loads(job.read_text())
    job.write_text(json.dumps({**spec, "train_every": 24}))
    assert main(["register", "--spec", str(job), "--data-dir", data_dir]) == 2
    assert "already registered" in library_error(capsys)


MALFORMED_SPECS = {  # case -> (the spec file's text from a valid spec, or None for no file; the error)
    "missing-field": (lambda spec: json.dumps({k: v for k, v in spec.items() if k != "train_every"}),
                      "job spec lacks 'train_every'"),
    "not-a-number": (lambda spec: json.dumps({**spec, "train_every": "often"}),
                     "job spec field 'train_every' must be a number, not 'often'"),
    "null-number": (lambda spec: json.dumps({**spec, "alpha": None}),
                    "job spec field 'alpha' must be a number, not None"),
    "not-an-object": (lambda spec: json.dumps([spec]), "a job spec must be a JSON object"),
    "not-json": (lambda spec: "{train_every: 48", "cannot read job spec"),
    "no-file": (None, "cannot read job spec"),
    "numeric-id": (lambda spec: json.dumps({**spec, "metric_id": 7}),
                   "metric_id must be a non-empty string without '/' or NUL, not 7"),
    "id-with-slash": (lambda spec: json.dumps({**spec, "metric_id": "../escaped"}),
                      "metric_id must be a non-empty string without '/' or NUL, not '../escaped'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_SPECS))
def test_malformed_spec_is_one_error_line(tmp_path, capsys, case):
    text, message = MALFORMED_SPECS[case]
    job = make_job_file(tmp_path)
    if text is None:
        job.unlink()
    else:
        job.write_text(text(json.loads(job.read_text())))
    data_dir = tmp_path / "store"
    assert main(["register", "--spec", str(job), "--data-dir", str(data_dir)]) == 2
    assert message in library_error(capsys)
    assert not data_dir.exists()


def test_tune_budget_below_the_floor_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--tune-budget", "5", "run", "--until", "10", "--data-dir", str(tmp_path / "store")])
    assert exit_.value.code == 2
    assert "--tune-budget must be at least 10" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command", [
    ["run", "--until", "10"],
    ["status"],
    ["eval", "--metric", "cli-metric"],
], ids=["run", "status", "eval"])
def test_missing_data_directory_is_one_error_line(tmp_path, capsys, command):
    """Only register makes a data directory: a mistyped one is an error, not an empty store."""
    typo = tmp_path / "typo"
    assert main([*command, "--data-dir", str(typo)]) == 2
    assert "no data directory" in library_error(capsys)
    assert not typo.exists()


def test_eval_unknown_metric(tmp_path, capsys):
    data_dir = tmp_path / "store"
    data_dir.mkdir()
    assert main(["eval", "--metric", "nope", "--data-dir", str(data_dir)]) == 2
    assert "unknown metric 'nope'" in capsys.readouterr().err


def test_bench_fixture_only(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main([
        "--tune-budget", "10",
        "bench", "--fixtures", "--datasets", "nyc_taxi", "--freq", "daily",
        "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "auc.csv").exists()
    assert (out_dir / "forecast.csv").exists()
    assert (out_dir / "roc_points.csv").exists()
    printed = capsys.readouterr().out
    assert "benchmark complete" in printed


def test_alerts_are_the_score_rows_at_the_threshold_and_write_nothing(tmp_path, capsys):
    job = make_job_file(tmp_path)
    data_dir = tmp_path / "store"
    assert main(["register", "--spec", str(job), "--data-dir", str(data_dir)]) == 0
    assert main(["run", "--until", "240", "--data-dir", str(data_dir)]) == 0
    capsys.readouterr()
    before = {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()}
    assert main(["alerts", "--metric", "cli-metric", "--data-dir", str(data_dir)]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(data_dir / "scores" / "cli-metric.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if float(r["probability"]) >= 0.95]
    assert rows
    assert [(a["timestamp"], a["anomaly_probability"]) for a in map(json.loads, printed)] == \
        [(int(r["timestamp"]), float(r["probability"])) for r in rows]
    assert main(["alerts", "--data-dir", str(data_dir)]) == 0  # every metric's, the one here
    assert capsys.readouterr().out.splitlines() == printed
    assert main(["alerts", "--metric", "other", "--data-dir", str(data_dir)]) == 2
    assert "unknown metric 'other'" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()} == before
    assert not (data_dir / "alerts").exists()
