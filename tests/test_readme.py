"""The README's library quick start runs as written, for either model family."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, "the README has one python block, the quick start"
    return blocks[0]


def hourly_values(kind: str, n: int = 200) -> np.ndarray:
    rng = np.random.default_rng(0)
    if kind == "daily cycle":
        return 10 + 2 * np.sin(2 * np.pi * np.arange(n) / 24) + rng.normal(0, 0.5, n)
    return 5 + rng.normal(0, 1, n)


@pytest.mark.parametrize("kind, method", [("daily cycle", "structural"), ("white noise", "filtering")])
def test_quick_start_runs(kind, method, tmp_path, monkeypatch, capsys):
    np.savetxt(tmp_path / "values.txt", hourly_values(kind))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(quick_start(), str(README), "exec"), scope)
    assert scope["result"].best_config.method == method
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == method
    center, scale = scope["detector"].predictive(0)
    assert np.isfinite(center) and scale > 0
