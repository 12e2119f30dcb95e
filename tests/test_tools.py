"""The stage timer of the protocol1 workload runs and reports every stage."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_protocol1_stages_reports_every_stage(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])  # the tool puts src/ and bench/ first
    stages = _load_tool("protocol1_stages")
    for name, value in {"REPEATS": 1, "SPANS": 2, "TRAJECTORIES": 3}.items():
        monkeypatch.setattr(stages, name, value)
    monkeypatch.chdir(tmp_path)
    assert stages.main() == 0
    report = json.loads((tmp_path / stages.OUT).read_text())
    counts = {name: stage["n"] for name, stage in report["stages"].items()}
    assert counts == {"span_uniforms": 2, "span_kernel": 2, "write_rows": 2, "reference": 1,
                      "analytic": 1}
    for stage in report["stages"].values():
        assert 0 < stage["q1_s"] <= stage["median_s"] <= stage["q3_s"]
    assert report["environment"]["spans"] == 2
