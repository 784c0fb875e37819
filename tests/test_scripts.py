"""Run every script in scripts/ at toy sizes and check the shape of its output."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from word2spike import PRESETS, suggest_threshold, threshold_curve
from word2spike.corpus_io import load_embeddings

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_every_script_is_covered():
    assert {p.name for p in SCRIPTS.glob("*.py")} == {
        "make_synthetic_embeddings.py", "stochastic_fidelity.py", "threshold_sweep.py",
    }


def test_make_synthetic_embeddings(tmp_path, monkeypatch, capsys):
    out = tmp_path / "emb.txt"
    text = run_script("make_synthetic_embeddings.py",
                      [str(out), "--words", "7", "--dim", "5", "--header"], monkeypatch, capsys)
    assert text.startswith("wrote 7 x 5 embeddings")
    es = load_embeddings(str(out))
    assert es.words == tuple(f"w{i:06d}" for i in range(7))
    assert es.vectors.shape == (7, 5)


def test_stochastic_fidelity(monkeypatch, capsys):
    lines = run_script("stochastic_fidelity.py",
                       ["--words", "30", "--dim", "8", "--pairs", "40", "--seeds", "2"],
                       monkeypatch, capsys).splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("quantized rho: ")
    assert [line.split(":")[0] for line in lines[1:3]] == ["  seed 0", "  seed 1"]
    assert lines[3].startswith("decoded rho: ") and lines[3].endswith("over 2 seeds")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_threshold_sweep(name, monkeypatch, capsys):
    cfg = PRESETS[name]
    args = ["--window-ms", str(cfg.window_s * 1000), "--rate-plus", str(cfg.rate_plus_hz),
            "--rate-minus", str(cfg.rate_minus_hz)]
    header, *rows = run_script("threshold_sweep.py", args, monkeypatch, capsys).splitlines()
    assert header == "count_threshold,threshold_hz,p_minus_as_plus,p_plus_as_minus,total_error"
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    curve = threshold_curve(cfg)
    assert table[:, 0].tolist() == [a.count_threshold for a in curve]
    assert np.allclose(table[:, 4], [a.total_error for a in curve], rtol=1e-5)
    # the suggested threshold is the row with the least total error
    best_hz, _ = suggest_threshold(cfg)
    assert table[np.argmin(table[:, 4]), 1] == best_hz
