"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/tests -q

The exact-count test makes two traced runs (every workload, twice) and takes
a few minutes; the others run in seconds on small inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS, judge  # noqa: E402
from trace_layers import reduce_spans  # noqa: E402

EXACT_UNITS = {"count", "B", "B_computed", "ops_computed", "ratio"}


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER
    ]


def test_exact_counts_repeat_between_runs():
    results = []
    for workload in ("dicke", "protocol1"):
        proc = run_benchmark("--workload", workload, "--seed", "5", "--seconds", "1",
                             "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] and r["attempted"] == 2 * len(WORKLOADS) for r in results)
    exact = [name for name, unit, *_ in PER_LAYER if unit in EXACT_UNITS]
    first, second = ({n: r["metrics"][n]["value"] for n in exact} for r in results)
    assert first == second
    # every per-layer metric is read from a workload that exercises it
    assert all(first[name] > 0 for name in exact if name != "protocols.invalid")


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark("--workload", "dicke", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_judge_fails_exits_mismatches_and_problems():
    ok = {"exit_code": 0, "digests": {"a": "1"}, "problems": []}
    passes = [dict(ok), dict(ok, digests={"a": "2"}), dict(ok, exit_code=1),
              dict(ok, problems=["lost branch mass"])]
    judge(passes, {"a": "1"}, [])
    assert [p["ok"] for p in passes] == [True, False, False, False]
    judge(passes, {"a": "1"}, ["bad output"])
    assert not any(p["ok"] for p in passes)


def test_reduce_spans_self_and_inclusive_time():
    doc = {"names": ["a", "b"], "stats": {}, "spans": [
        (0, 0.0, 10.0, -1, "x"),  # a
        (1, 1.0, 4.0, 0, None),   # b inside a
        (0, 5.0, 7.0, 0, None),   # a recursing inside a: not counted twice
    ]}
    red = reduce_spans(doc)
    assert red["calls"] == {"a": 2, "b": 1}
    assert red["s"] == {"a": 10.0, "b": 3.0}
    assert red["self_s"] == {"a": 5.0 + 2.0, "b": 3.0}
    assert red["tagged"] == {"a.x": 10.0}


# -- the correctness checks can fail -------------------------------------------

P1_SEED, P1_TRIALS = 3, 100


@pytest.fixture(scope="module")
def protocol1_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("protocol1")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        workloads.run_cli(workloads.protocol1_argv(P1_SEED, P1_TRIALS), "protocol1.out")
    return out


def _check_p1(out):
    return checks.check_protocol1(out, P1_SEED, trials=P1_TRIALS, sample=P1_TRIALS)[0]


def _edit_rows(src, dst, edit):
    shutil.copytree(src, dst)
    path = dst / "trajectories.jsonl"
    rows = path.read_text().splitlines()
    edit(rows)
    path.write_text("".join(r + "\n" for r in rows))
    return dst


def _successful_row(rows):
    for k, line in enumerate(rows):
        row = json.loads(line)
        if not row["flag"] and row["n_deletions"] > 0:
            return k, row
    raise AssertionError("no successful row with a deletion")


def test_protocol1_check_passes_on_real_output(protocol1_out):
    assert _check_p1(protocol1_out) == []


def test_protocol1_check_reports_a_perturbed_replay_value(protocol1_out, tmp_path):
    def perturb(rows):
        k, row = _successful_row(rows)
        row["Phi"] += 10 * checks.TOLERANCES[0][2]
        rows[k] = json.dumps(row)

    problems = _check_p1(_edit_rows(protocol1_out, tmp_path / "o", perturb))
    assert any("Phi" in p for p in problems)


def test_protocol1_check_reports_bad_counts(protocol1_out, tmp_path):
    def corrupt(rows):
        k, row = _successful_row(rows)
        row["counts"][0][0] -= 1
        rows[k] = json.dumps(row)

    problems = _check_p1(_edit_rows(protocol1_out, tmp_path / "o", corrupt))
    assert any("counts sum" in p for p in problems)


def test_protocol1_check_reports_malformed_and_missing_rows(protocol1_out, tmp_path):
    def garble(rows):
        rows[0] = rows[0][:-5]
        del rows[-1]

    problems = _check_p1(_edit_rows(protocol1_out, tmp_path / "o", garble))
    assert any("malformed" in p for p in problems)
    assert any(f"expected {P1_TRIALS}" in p for p in problems)


def test_verify_check_requires_every_check_passed(tmp_path):
    (tmp_path / "verify.out").write_text("PASS  a  x\n10/10 checks passed\n")
    assert checks.check_verify(tmp_path, 0)[0] == []
    (tmp_path / "verify.out").write_text("FAIL  a  x\n9/10 checks passed\n")
    assert len(checks.check_verify(tmp_path, 0)[0]) == 2


DK_SEED = 4


@pytest.fixture(scope="module")
def dicke_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("dicke")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        workloads.prepare_dicke(DK_SEED)()
    return out


def _edit_file(src, dst, name, edit):
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_dicke_check_passes_on_real_output(dicke_out):
    assert checks.check_dicke(dicke_out, DK_SEED)[0] == []


def test_dicke_check_reports_a_perturbed_reference_trajectory(dicke_out, tmp_path):
    def perturb(text):
        rows = text.splitlines()
        k, row = _successful_row(rows)
        row["dPhi_dtheta"] += 10 * checks.TOLERANCES[1][2]
        rows[k] = json.dumps(row)
        return "".join(r + "\n" for r in rows)

    out = _edit_file(dicke_out, tmp_path / "o", "reference.jsonl", perturb)
    assert any("dPhi_dtheta" in p for p in checks.check_dicke(out, DK_SEED)[0])


def test_dicke_check_reports_lost_branch_mass(dicke_out, tmp_path):
    def drop(text):
        doc = json.loads(text)
        weights = doc["amplitude_damp"]["weights"]
        weights.remove(max(weights))
        return json.dumps(doc)

    out = _edit_file(dicke_out, tmp_path / "o", "channels.json", drop)
    assert any("amplitude_damp" in p for p in checks.check_dicke(out, DK_SEED)[0])


def test_dicke_check_reports_an_lp_mismatch(dicke_out, tmp_path):
    def shift(text):
        lines = text.splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if line.startswith("alpha* = "))
        lines[k] = "alpha* = 1/7 (0.142857)\n"
        return "".join(lines)

    out = _edit_file(dicke_out, tmp_path / "o", "polytope.out", shift)
    assert any("closed_form" in p for p in checks.check_dicke(out, DK_SEED)[0])
