"""Tests for EXPERIMENTS.md generation."""

from pathlib import Path

from repro.experiments.base import ExperimentContext
from repro.experiments.report import write_experiments_md


def test_write_experiments_md(context, tmp_path):
    path = write_experiments_md(tmp_path / "EXPERIMENTS.md", context)
    text = path.read_text()
    # Every experiment section is present, with code-fenced tables.
    for experiment_id in ("T1", "T2", "F5", "F11", "TA4", "G1", "X1"):
        assert f"## {experiment_id}:" in text
    assert text.count("```") % 2 == 0
    assert "paper vs. measured" in text


def test_committed_experiments_md_is_what_the_code_prints(tmp_path):
    # The published paper-vs-measured record must not drift from the
    # code: regenerate it with `python -m repro.experiments.report`.
    # At the default config it also pins every fitted value the normal
    # special functions feed into (lognormal CDFs, truncated fits).
    root = Path(__file__).resolve().parents[2]
    path = write_experiments_md(tmp_path / "EXPERIMENTS.md", ExperimentContext())
    assert path.read_bytes() == (root / "EXPERIMENTS.md").read_bytes()
