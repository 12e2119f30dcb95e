"""Smoke-run every demo script in a scratch directory."""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("0*.py")), ids=lambda p: p.name)
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    if script.name.startswith("01"):
        assert (tmp_path / "codeword_amplitudes.csv").exists()
        assert (tmp_path / "fi_vs_theta.csv").exists()
    if script.name.startswith("04"):
        assert (tmp_path / "polytope.csv").exists()
