import json
from pathlib import Path

import numpy as np
import pytest

from autoad.series import TimeSeries


def ar1_series(phi: float, n: int, seed: int, sigma: float = 1.0, mean: float = 0.0) -> TimeSeries:
    rng = np.random.default_rng(seed)
    eps = rng.normal(0, sigma, n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + eps[t]
    return TimeSeries.from_values(y + mean)


def seasonal_ar_series(n: int = 400, seed: int = 11, period: int = 24) -> TimeSeries:
    """AR(1) noise riding a sinusoid: the standard tuning benchmark series."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    eps = rng.normal(0, 1, n)
    y = np.zeros(n)
    for i in range(1, n):
        y[i] = 0.6 * y[i - 1] + eps[i]
    return TimeSeries.from_values(10 + 3 * np.sin(2 * np.pi * t / period) + y)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def grid_volume(score_fn, domain, n: int = 100_000):
    """Reference level-set volumes of any vectorized scorer: the share of an
    ``n``-point midpoint grid over ``domain`` where the score is >= u, times
    the domain's length.  Off the true length by at most a grid spacing per
    end of each interval in the level set."""
    lo, hi = domain
    fx = np.sort(np.asarray(score_fn(lo + (np.arange(n) + 0.5) * ((hi - lo) / n)), dtype=float))

    def volume(us):
        return (hi - lo) * (n - np.searchsorted(fx, us, side="left")) / n

    return volume


def stored_doc(root, name: str, doc=None):
    """The committed document ``name`` (say ``health/m1.json``) of the store
    at ``root``: as its checkpoint ``meta.json`` holds it, with the journal's
    records redone over it; None if there is none.  Given ``doc``, first
    checkpoints the store by hand as the engine does, folding the journal's
    records into ``meta.json`` and emptying the journal, then writes ``doc``
    in its place there.  An engine reads its documents when it opens, so it
    sees an edit only when reopened."""
    path = Path(root) / "meta.json"
    journal = path.parent / "journal.jsonl"
    meta = json.loads(path.read_text())
    for line in journal.read_text().splitlines():
        record = json.loads(line)
        meta["now"] = record["tick"]
        meta["lengths"].update(record.get("lengths", {}))
        meta["docs"].update(record.get("docs", {}))
    if doc is not None:
        meta["docs"][name] = doc
        path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")))
        journal.write_text("")
    return meta["docs"].get(name)
