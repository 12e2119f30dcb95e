"""Command-line front end: parsing, outputs, manifests, determinism."""

import ast
import concurrent.futures
import csv
import json
import platform
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from symsense import cli, protocols
from symsense.cli import main
from symsense.codes import GnuParams
from symsense.protocols import ProtocolConfig, expected_fi_p1
from symsense.verify import protocol1_mismatches
from test_protocols import _jsonl_reference, _usable_cpus


def run_cli(args):
    return main(args)


def test_qfi_command_prints_value(capsys, tmp_path):
    out = tmp_path / "amps.csv"
    code = run_cli(["qfi", "--g", "21", "--n", "43", "--u", "1.0233", "--s", "21", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "18963" in captured.out  # g^2 n for (21, 43)
    text = out.read_text().splitlines()
    assert text[0] == "w,amplitude,codeword"
    assert len(text) == 45  # header + 44 lattice points
    manifest = json.loads((tmp_path / "amps.csv.manifest.json").read_text())
    assert manifest["command"] == "qfi"
    assert manifest["outputs"] == [str(out)]


def test_qfi_u_snapping_note(capsys, tmp_path):
    out = tmp_path / "amps.csv"
    run_cli(["qfi", "--g", "21", "--n", "43", "--u", "1.0233", "--s", "21", "--out", str(out)])
    captured = capsys.readouterr()
    assert "u adjusted" in captured.err  # 1.0233 -> 44/43


def test_invalid_config_exit_code():
    assert run_cli(["qfi", "--g", "0", "--n", "3"]) == 2


def test_fi_scan_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["fi-scan", "--g", "5", "--n", "3", "--steps", "11", "--theta-max", "0.1"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_delete_and_ad_commands(tmp_path):
    out = tmp_path / "del.csv"
    assert run_cli(["delete", "--g", "4", "--n", "4", "--s", "2", "--t", "2", "--out", str(out)]) == 0
    assert "qfi_after" in out.read_text().splitlines()[0]
    out2 = tmp_path / "ad.csv"
    assert run_cli(["ad", "--g", "3", "--n", "3", "--steps", "6", "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 7


def test_delete_writes_the_exact_one_deletion_weights(tmp_path):
    # the criterion-8 code (N = 2000) splits its plus state evenly under one deletion
    out = tmp_path / "del.csv"
    args = ["delete", "--g", "40", "--n", "3", "--u", "53/6", "--s", "940", "--t", "1"]
    assert run_cli([*args, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["shift"], row["weight"]) for row in rows] == [("0", "0.5"), ("1", "0.5")]


@pytest.mark.parametrize(
    "command, flag, value",
    [("ad", "--gamma-max", "1.5"), ("ad", "--gamma-max", "nan"), ("ad", "--gamma-max", "-0.1"),
     ("ad", "--steps", "0"), ("fi-scan", "--steps", "0"), ("fi-scan", "--steps", "-2"),
     ("fi-scan", "--theta-max", "nan"), ("fi-scan", "--theta-min", "inf")],
)
def test_scan_commands_reject_bad_grid_before_writing(tmp_path, capsys, command, flag, value):
    out = tmp_path / "scan.csv"
    assert run_cli([command, "--g", "3", "--n", "3", flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _no_work(*args, **kwargs):
    raise AssertionError("work started past a size cap")


@pytest.mark.parametrize("command", ["fi-scan", "ad"])
def test_scan_commands_reject_a_grid_past_the_step_cap_before_any_work(tmp_path, capsys,
                                                                        monkeypatch, command):
    monkeypatch.setattr(cli, "make_logical", _no_work)
    steps = str(cli.MAX_STEPS + 1)
    out = tmp_path / "scan.csv"
    assert run_cli([command, "--g", "3", "--n", "3", "--steps", steps, "--out", str(out)]) == 2
    assert f"--steps must be in 1..{cli.MAX_STEPS}, got {steps}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# N = 5 * 3 * 69905 = 2^20 - 1: a Dicke vector of exactly MAX_DICKE_LENGTH amplitudes
AT_THE_DICKE_CAP = ["--g", "5", "--n", "3", "--u", "69905"]


@pytest.mark.parametrize("command", ["qfi", "fi-scan", "sld", "delete", "ad", "qec-delete"])
def test_dicke_commands_reject_a_vector_past_the_cap_before_building_it(tmp_path, capsys,
                                                                         monkeypatch, command):
    monkeypatch.setattr(cli, "make_logical", _no_work)
    out = [] if command in ("sld", "qec-delete") else ["--out", str(tmp_path / "out.csv")]
    assert run_cli([command, *AT_THE_DICKE_CAP, "--s", "1", *out]) == 2
    err = capsys.readouterr().err
    assert f"N + 1 = {cli.MAX_DICKE_LENGTH + 1} amplitudes" in err
    assert list(tmp_path.iterdir()) == []


def test_a_dicke_vector_at_the_cap_is_built(tmp_path, capsys):
    assert cli.MAX_DICKE_LENGTH == 2**20
    assert run_cli(["qfi", *AT_THE_DICKE_CAP, "--out", str(tmp_path / "amps.csv")]) == 0
    assert "QFI = 75" in capsys.readouterr().out  # g^2 n


def test_protocol3_takes_k_up_to_the_cap_and_rejects_it_past(capsys, monkeypatch):
    # float error budgets give the longest fractions; at the cap they still print
    budgets = ["--e1", "0.1", "--e2", "0.1", "--q", "1.3", "--c1", "0.3"]
    assert run_cli(["protocol3", "--k", str(cli.MAX_K), *budgets]) == 0
    assert f"c_{cli.MAX_K + 1} = " in capsys.readouterr().out
    monkeypatch.setattr(protocols, "run_protocol3", _no_work)
    assert run_cli(["protocol3", "--k", str(cli.MAX_K + 1)]) == 2
    assert f"--k must be at most {cli.MAX_K}" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["0", "-1", "10", "20"])
def test_delete_rejects_deletion_count_outside_the_code(tmp_path, capsys, t):
    out = tmp_path / "del.csv"
    assert run_cli(["delete", "--g", "3", "--n", "3", "--t", t, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--t" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_qec_delete_command(capsys):
    assert run_cli(["qec-delete", "--g", "5", "--n", "5", "--u", "6/5", "--s", "4", "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert "ensemble QFI after QEC" in out
    assert "125" in out


def test_protocol1_command(tmp_path, capsys, monkeypatch):
    # one span of trajectories: the clamped worker count is recorded, no pool starts
    monkeypatch.setenv("SYMSENSE_THREADS", "64")
    out = tmp_path / "traj.jsonl"
    code = run_cli(
        [
            "protocol1", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12",
            "--r", "6", "--q", "1.2", "--theta", "0.005", "--ndel", "0.002",
            "--trials", "50", "--seed", "3", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 50
    rec = json.loads(lines[0])
    assert set(rec) >= {"flag", "Phi", "dPhi_dtheta", "fisher_information"}
    manifest = json.loads((tmp_path / "traj.jsonl.manifest.json").read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["workers"] == min(64, _usable_cpus())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}


def test_protocol1_prints_the_sector_probability_after_the_full_analytic_mean(capsys):
    args = ["protocol1", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12", "--r", "6",
            "--q", "1.2", "--theta", "0.005", "--ndel", "0.002", "--trials", "20", "--seed", "3"]
    assert run_cli(args) == 0
    lines = capsys.readouterr().out.splitlines()
    full = lines.index(next(line for line in lines if line.startswith("analytic mean_fi (exact")))
    config = ProtocolConfig(GnuParams(8, 3, Fraction(22, 3), 12), 6, 1.2, 0.005, 0.002, seed=3)
    want = expected_fi_p1(config)["sector_probability"]
    assert lines[full + 1] == f"analytic sector_probability (exact, all sectors): {want}"
    assert lines[full + 2].startswith("analytic mean_fi (<=1 syn1 round")


def test_protocol1_keeps_its_file_when_no_analytic_sector_survives(tmp_path, capsys):
    out = tmp_path / "traj.jsonl"
    args = ["protocol1", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12", "--r", "32",
            "--q", "1.5", "--theta", "0.01", "--ndel", "1000", "--trials", "5", "--seed", "1",
            "--format", "json", "--out", str(out)]
    assert run_cli(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "analytic mean_fi (exact, all sectors): nan" in lines
    assert "mean_FI: nan" in lines and "se_FI: nan" in lines
    assert "analytic sector_probability (exact, all sectors): 0.0" in lines
    assert len(out.read_text().splitlines()) == 5
    assert (tmp_path / "traj.jsonl.manifest.json").exists()


def test_protocol2_rejects_q_below_one_before_running(capsys, monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("the Protocol-1 batch ran")

    monkeypatch.setattr(protocols, "run_protocol1_batch", no_batch)
    args = ["protocol2", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12", "--r", "4",
            "--q", "0.5", "--theta", "0.01", "--trials", "5"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "q must be >= 1" in captured.err and captured.out == ""


def test_protocol1_rejects_a_tau_past_the_float_range_before_running(capsys, monkeypatch):
    def no_span(*args, **kwargs):
        raise AssertionError("a span ran")

    monkeypatch.setattr(protocols, "_run_batch_span", no_span)
    # tau = 4^600 overflows a float
    args = ["protocol1", "--g", "3", "--n", "3", "--r", "4", "--q=-600", "--theta", "0.1",
            "--trials", "10"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tau = r^-q") and captured.out == ""


def test_protocol1_rejects_a_code_past_int64_before_running(capsys):
    args = ["protocol1", "--g", "3", "--n", "3", "--u", "1e308", "--r", "4", "--q", "1",
            "--theta", "0.1", "--trials", "3"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "error: N = g n u + s must be below 2^63" in captured.err and captured.out == ""


def test_protocol2_rejects_repetitions_past_the_float_range_before_running(capsys, monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("the Protocol-1 batch ran")

    monkeypatch.setattr(protocols, "run_protocol1_batch", no_batch)
    # r^(q-1) = 4^599 overflows a float; tau = 4^-600 underflows to 0, which is finite
    args = ["protocol2", "--g", "3", "--n", "3", "--r", "4", "--q", "600", "--theta", "0.1",
            "--trials", "10"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Protocol 2's r^(q-1)") and captured.out == ""


def test_protocol1_keeps_its_file_when_the_r2_constants_pass_the_float_range(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    # theta^4 = 1e400 overflows a float
    args = ["protocol1", "--g", "3", "--n", "3", "--r", "4", "--q", "1", "--theta", "1e100",
            "--trials", "10", "--format", "json", "--out", str(out)]
    assert run_cli(args) == 0
    assert len(out.read_text().splitlines()) == 10
    assert (tmp_path / "t.jsonl.manifest.json").exists()
    config = ProtocolConfig(GnuParams(3, 3, Fraction(1), 0), 4, 1.0, 1e100, 0.0)
    ana = expected_fi_p1(config)
    assert ana["r2_formula_stated"] == ana["r2_formula_quarter"] == float("inf")


def test_protocol1_keeps_its_file_when_no_round_is_quiet(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    # two or more deletions per round are certain, so no round is quiet and no trajectory
    # is left
    args = ["protocol1", "--g", "3", "--n", "3", "--r", "20", "--q", "1", "--theta", "0.1",
            "--ndel", "1e300", "--trials", "10", "--format", "json", "--out", str(out)]
    assert run_cli(args) == 0
    assert len(out.read_text().splitlines()) == 10
    assert (tmp_path / "t.jsonl.manifest.json").exists()
    assert "analytic mean_fi (exact, all sectors): nan\n" in capsys.readouterr().out


def test_parser_and_build_are_made_once_per_process(tmp_path, capsys, monkeypatch):
    cli._git_describe.cache_clear()
    calls = []
    real_run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: calls.append(a) or real_run(*a, **k))
    builds = []
    for steps in ("3", "4"):
        out = tmp_path / f"fi-{steps}.csv"
        assert run_cli(["fi-scan", "--g", "2", "--n", "3", "--steps", steps, "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["steps"] == int(steps)
        builds.append(manifest["build"])
    assert len(calls) == 1 and builds[0] == builds[1]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--ndel", "-5", "n_del"), ("--ndel", "inf", "n_del"), ("--theta", "nan", "theta"),
     ("--q", "inf", "q"), ("--n", "4", "odd n >= 3, got n = 4"),
     ("--n", "6", "odd n >= 3, got n = 6"), ("--n", "1", "odd n >= 3, got n = 1")],
)
def test_protocol1_rejects_invalid_config_before_running(tmp_path, capsys, flag, value, field):
    out = tmp_path / "traj.jsonl"
    args = ["protocol1", "--g", "2", "--n", "3", "--r", "4", "--q", "1", "--theta", "0.001",
            "--ndel", "0", "--trials", "5", "--format", "json", "--out", str(out)]
    args[args.index(flag) + 1] = value
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""
    assert not out.exists()


def test_protocol1_runs_an_n5_code(capsys):
    args = ["protocol1", "--g", "8", "--n", "5", "--u", "3", "--s", "80", "--r", "12", "--q", "1.2",
            "--theta", "0.005", "--ndel", "0.003", "--trials", "50", "--seed", "42"]
    assert run_cli(args) == 0
    assert "n_traj: 50" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_protocol1_rejects_trial_count_below_one(tmp_path, capsys, recwarn, trials):
    out = tmp_path / "traj.jsonl"
    code = run_cli(
        [
            "protocol1", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12",
            "--r", "6", "--q", "1.2", "--theta", "0.005", "--ndel", "0.002",
            "--trials", trials, "--seed", "3", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "n_traj" in captured.err and captured.out == ""
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_protocol3_command(capsys):
    assert run_cli(["protocol3", "--c1", "0.5", "--k", "2", "--q", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "c_2 = 11/18" in out
    assert run_cli(["protocol3", "--c1", "0.5", "--k", "0"]) == 0  # no iteration: c_1 only
    assert capsys.readouterr().out == "c_1 = 1/2 (0.500000)\n"


def test_polytope_command(capsys, tmp_path):
    out = tmp_path / "poly.csv"
    code = run_cli(["polytope", "--c", "1/2", "--q", "3/2", "--e1", "0", "--e2", "0", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "alpha* = 7/9" in text
    assert "gamma* = 2/9" in text
    assert "11/9" in text
    assert out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["qfi", "--g", "3", "--n", "3", "--u", "1/0"], "zero denominator"),
     (["polytope", "--c", "1/0"], "zero denominator"),
     (["protocol3", "--e1", "inf"], "exact rational"),
     (["polytope", "--e1", "-1", "--e2", "-3"], "error budgets must be >= 0"),
     (["protocol3", "--e2", "-0.5"], "error budgets must be >= 0"),
     (["protocol3", "--k", "-3"], "k must be >= 0")],
)
def test_malformed_rationals_and_negative_budgets_exit_2(capsys, argv, message):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_fqec_scan_command(tmp_path):
    out = tmp_path / "fqec.csv"
    assert run_cli(["fqec-scan", "--q-list", "1.5", "--out", str(out)]) == 0
    assert out.read_text().startswith("q,c,p2_exponent")


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "symsense.cli", "sld", "--g", "4", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "eigenvalues" in proc.stdout


def test_verify_never_imports_the_protocol1_or_lp_layers():
    # what the commands import on first use; `symsense verify` needs none of it
    lazy = ("symsense.protocols", "symsense.optimizer", "concurrent.futures.process",
            "multiprocessing")
    script = (
        "import json, sys\n"
        "import symsense.cli\n"
        f"lazy = {lazy!r}\n"
        "after_import = [m for m in lazy if m in sys.modules]\n"
        "code = symsense.cli.main(['verify'])\n"
        "after_verify = [m for m in lazy if m in sys.modules]\n"
        "import symsense.protocols\n"  # the pool machinery waits for a pool
        "print(json.dumps([code, after_import, after_verify, sorted(set(lazy) - set(sys.modules))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == "10/10 checks passed"
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        0, [], [], ["concurrent.futures.process", "multiprocessing", "symsense.optimizer"]
    ]


def test_package_runs_as_a_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symsense", "sld", "--g", "4", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "eigenvalues" in proc.stdout
    # main's exit code reaches the shell: a rejected seed exits 2
    out = tmp_path / "traj.jsonl"
    bad = subprocess.run([sys.executable, "-m", "symsense", *_with_seed("-1", out)],
                         capture_output=True, text=True)
    assert bad.returncode == 2 and "seed must be an integer" in bad.stderr
    assert not out.exists()


def test_protocol1_jsonl_deterministic(tmp_path):
    args = [
        "protocol1", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12",
        "--r", "5", "--q", "1.2", "--theta", "0.004", "--ndel", "0.003",
        "--trials", "40", "--seed", "11", "--format", "json",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


PROTOCOL1_SMALL = [
    "protocol1", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12",
    "--r", "6", "--q", "1.2", "--theta", "0.005", "--ndel", "0.002",
    "--trials", "300", "--seed", "3", "--format", "json",
]


def test_protocol1_streamed_jsonl_is_the_same_for_every_worker_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(protocols, "BATCH_SPAN", 64)  # 5 spans, the last one short
    files, stdouts = [], []
    for threads in (None, "1", "2"):
        if threads is None:
            monkeypatch.delenv("SYMSENSE_THREADS", raising=False)
        else:
            monkeypatch.setenv("SYMSENSE_THREADS", threads)
        out = tmp_path / f"traj-{threads}.jsonl"
        assert run_cli(PROTOCOL1_SMALL + ["--out", str(out)]) == 0
        files.append(out.read_bytes())
        stdouts.append(capsys.readouterr().out)
    assert files[0] == files[1] == files[2]
    assert stdouts[0] == stdouts[1] == stdouts[2]
    config = ProtocolConfig(GnuParams(8, 3, Fraction(22, 3), 12), 6, 1.2, 0.005, 0.002, seed=3)
    batch = protocols.run_protocol1_batch(config, 300)
    assert batch.n_deletions.any() and not batch.success.all()
    assert files[0].decode() == _jsonl_reference(batch)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"traj-{t}.jsonl{ext}" for t in (None, "1", "2") for ext in ("", ".manifest.json")
    )


def test_protocol1_rejects_more_rounds_than_a_span_holds_before_any_work(capsys, monkeypatch):
    def no_span(*args, **kwargs):
        raise AssertionError("a span ran")

    monkeypatch.setattr(protocols, "_run_batch_span", no_span)
    monkeypatch.setenv("SYMSENSE_THREADS", "1")
    # one span of 16384 rows would ask for 366 GiB of uniforms at this r
    args = ["protocol1", "--g", "3", "--n", "3", "--r", "1000000", "--q", "1", "--theta", "0.1",
            "--trials", "20000"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "r must be <= 524288" in captured.err and captured.out == ""
    assert protocols.SPAN_ROUNDS == 32 * protocols.BATCH_SPAN == 524288


def test_protocol1_spans_at_large_r_keep_the_rows(tmp_path, capsys, monkeypatch):
    # at r = 200 a span holds 2621 rows, so 6000 trials run as three spans
    args = ["protocol1", "--g", "8", "--n", "3", "--u", "22/3", "--s", "12", "--r", "200",
            "--q", "1.2", "--theta", "0.5", "--ndel", "0.01", "--trials", "6000", "--seed", "4",
            "--format", "json"]
    run_span = protocols._run_batch_span
    spans = []
    monkeypatch.setattr(protocols, "_run_batch_span",
                        lambda config, lo, hi: spans.append((lo, hi)) or run_span(config, lo, hi))
    monkeypatch.setenv("SYMSENSE_THREADS", "1")
    assert run_cli(args + ["--out", str(tmp_path / "serial.jsonl")]) == 0
    assert spans == [(0, 2621), (2621, 5242), (5242, 6000)]
    monkeypatch.setattr(protocols, "_run_batch_span", run_span)
    monkeypatch.setenv("SYMSENSE_THREADS", "2")
    assert run_cli(args + ["--out", str(tmp_path / "pooled.jsonl")]) == 0
    serial = (tmp_path / "serial.jsonl").read_bytes()
    assert serial == (tmp_path / "pooled.jsonl").read_bytes()

    config = ProtocolConfig(GnuParams(8, 3, Fraction(22, 3), 12), 200, 1.2, 0.5, 0.01, seed=4)
    batch = protocols.run_protocol1_batch(config, 6000)
    assert serial.decode() == _jsonl_reference(batch)
    assert batch.flag.any() and batch.counts[:, :, 1].any() and (batch.n_deletions > 1).any()
    # rows on both sides of each span boundary, flagged rows and rows with deletions
    picked = np.r_[2616:2626, 5237:5247, np.nonzero(batch.flag)[0][:5],
                   np.nonzero(batch.n_deletions > 1)[0][:10]]
    assert not protocol1_mismatches(batch, picked)


def test_protocol1_failed_run_leaves_no_files(tmp_path, capsys, monkeypatch):
    run_span = protocols._run_batch_span

    def fail_after_first_span(config, lo, hi):
        if lo > 0:
            raise ValueError("span failed")
        return run_span(config, lo, hi)

    monkeypatch.setattr(protocols, "BATCH_SPAN", 64)
    monkeypatch.setattr(protocols, "_run_batch_span", fail_after_first_span)
    monkeypatch.setenv("SYMSENSE_THREADS", "1")
    out = tmp_path / "traj.jsonl"
    assert run_cli(PROTOCOL1_SMALL + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "span failed" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []
    # the file of an earlier run is kept as it was
    out.write_text("earlier run\n")
    assert run_cli(PROTOCOL1_SMALL + ["--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "earlier run\n"


def test_protocol1_json_without_out_is_rejected_before_running(tmp_path, capsys, monkeypatch):
    def no_span(config, lo, hi):
        raise AssertionError("a span ran")

    monkeypatch.setattr(protocols, "_run_batch_span", no_span)
    monkeypatch.chdir(tmp_path)
    assert run_cli(PROTOCOL1_SMALL) == 2
    captured = capsys.readouterr()
    assert "--format json" in captured.err and "--out" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _rows_fail_after_the_first(monkeypatch, directory):
    """Every csv writer raises at its second row; returns the file sizes seen then."""
    real_writer, seen = csv.writer, []

    class Writer:
        def __init__(self, fh, *args, **kwargs):
            self.fh, self.wr, self.rows = fh, real_writer(fh, *args, **kwargs), 0

        def writerow(self, row):
            if self.rows:
                self.fh.flush()
                seen.append(sorted(p.stat().st_size for p in directory.iterdir()))
                raise ValueError("row failed")
            self.wr.writerow(row)
            self.rows += 1

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(csv, "writer", Writer)
    return seen


def _spans_fail_after_the_first(monkeypatch, directory):
    """The second Protocol-1 span raises; returns the file sizes seen then."""
    run_span, seen = protocols._run_batch_span, []

    def fail_after_first_span(config, lo, hi):
        if lo > 0:
            seen.append(sorted(p.stat().st_size for p in directory.iterdir()))
            raise ValueError("span failed")
        return run_span(config, lo, hi)

    monkeypatch.setattr(protocols, "BATCH_SPAN", 64)
    monkeypatch.setattr(protocols, "_run_batch_span", fail_after_first_span)
    monkeypatch.setenv("SYMSENSE_THREADS", "1")
    return seen


CODE_3_3 = ["--g", "3", "--n", "3"]
PROTOCOL1_CSV = PROTOCOL1_SMALL[:-1] + ["csv"]


@pytest.mark.parametrize(
    "argv, fail",
    [
        (["qfi", *CODE_3_3], _rows_fail_after_the_first),
        (["fi-scan", *CODE_3_3, "--steps", "5"], _rows_fail_after_the_first),
        (["delete", *CODE_3_3, "--t", "2"], _rows_fail_after_the_first),
        (["ad", *CODE_3_3, "--steps", "5"], _rows_fail_after_the_first),
        (["polytope"], _rows_fail_after_the_first),
        (["fqec-scan", "--q-list", "1.5"], _rows_fail_after_the_first),
        (PROTOCOL1_CSV, _rows_fail_after_the_first),
        (PROTOCOL1_SMALL, _spans_fail_after_the_first),
    ],
    ids=["qfi", "fi-scan", "delete", "ad", "polytope", "fqec-scan", "protocol1-csv",
         "protocol1-json"],
)
def test_a_run_that_fails_mid_file_leaves_no_file(tmp_path, capsys, monkeypatch, argv, fail):
    out = tmp_path / "out.data"
    seen = fail(monkeypatch, tmp_path)
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert "failed" in capsys.readouterr().err
    # the failure came after rows reached the temporary file, which is gone
    assert len(seen) == 1 and len(seen[0]) == 1 and seen[0][0] > 0
    assert list(tmp_path.iterdir()) == []
    # the file of an earlier run is kept as it was
    out.write_text("earlier run\n")
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "earlier run\n"


PROTOCOL2 = ["protocol2", *CODE_3_3, "--r", "2", "--q", "1", "--theta", "0.01", "--trials", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        [command, *CODE_3_3, *flag]
        for command in ("qfi", "fi-scan", "delete", "ad")
        for flag in (["--format", "json"], ["--seed", "1"])
    ]
    + [PROTOCOL2 + ["--out", "p.jsonl"], PROTOCOL2 + ["--format", "json"]],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_protocol1_one_span_starts_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.delenv("SYMSENSE_THREADS", raising=False)
    out = tmp_path / "traj.jsonl"
    assert run_cli(PROTOCOL1_SMALL + ["--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 300


def _with_seed(seed: str, out) -> list[str]:
    args = PROTOCOL1_SMALL + ["--out", str(out)]
    args[args.index("--seed") + 1] = seed
    args[args.index("--trials") + 1] = "20"
    return args


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", str(10**30)])
def test_protocol1_rejects_seed_outside_64_bits_before_running(tmp_path, capsys, seed):
    out = tmp_path / "traj.jsonl"
    assert run_cli(_with_seed(seed, out)) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_protocol1_top_seeds_have_their_own_streams(tmp_path, capsys):
    # 2^64 - 1, 2^63 + 1 and 2^63 used to reach Philox through a float, as 0, 2^63 and 2^63
    files = []
    for seed in ("0", "9223372036854775808", "9223372036854775809", "18446744073709551615"):
        out = tmp_path / f"traj-{seed}.jsonl"
        assert run_cli(_with_seed(seed, out)) == 0
        files.append(out.read_bytes())
    assert len(set(files)) == len(files)


def test_verify_text_and_json_report_the_same_checks(capsys):
    assert run_cli(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "10/10 checks passed"
    assert all(line.startswith("PASS  ") for line in lines[:-1])

    assert run_cli(["verify", "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 10
    for rec, line in zip(records, lines):
        assert set(rec) == {"name", "value", "threshold", "pass"}
        assert line.startswith(f"PASS  {rec['name']}  ")
        assert isinstance(rec["value"], (int, float))
        assert rec["threshold"] is None or isinstance(rec["threshold"], (int, float))
        assert rec["pass"] is (rec["threshold"] is None or abs(rec["value"]) <= rec["threshold"])
        assert rec["pass"] is True


def test_verify_json_exit_code_matches_text_mode(monkeypatch, capsys):
    import symsense.verify

    monkeypatch.setattr(symsense.verify, "check_general_qec", lambda: 0.5)
    assert run_cli(["verify"]) == 1
    assert "9/10 checks passed" in capsys.readouterr().out
    assert run_cli(["verify", "--json"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failed = [rec for rec in records if not rec["pass"]]
    assert failed == [{"name": "general QEC entanglement fidelity", "value": 0.5,
                       "threshold": 1e-8, "pass": False}]


def test_verify_docstring_names_only_tests_that_exist():
    # the module docstring maps each shared comparison to the tests that call it
    import symsense.verify

    named = re.findall(r"(test_\w+\.py)::(test_\w+)", symsense.verify.__doc__)
    assert named
    for file, name in named:
        tree = ast.parse((Path(__file__).parent / file).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined, f"{file}::{name}"


@pytest.mark.parametrize("n", ["1030", "1031"])
@pytest.mark.parametrize("command", ["qfi", "sld", "delete", "ad", "fi-scan"])
def test_code_commands_past_the_float_range_of_the_binomials(tmp_path, capsys, command, n):
    out = [] if command == "sld" else ["--out", str(tmp_path / "out.csv")]
    steps = ["--steps", "3"] if command in ("ad", "fi-scan") else []
    code = run_cli([command, "--g", "1", "--n", n, *steps, *out])
    if command == "fi-scan":  # the three-outcome FI's binomial tail would overflow
        assert code == 2 and f"got n = {n}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    else:
        assert code == 0


@pytest.mark.parametrize("n", ["1030", "1031"])
@pytest.mark.parametrize("command", ["protocol1", "protocol2"])
def test_protocols_reject_n_past_the_float_range_before_any_pool(capsys, monkeypatch, command, n):
    def no_work(*args, **kwargs):
        raise AssertionError("a span or a worker pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(protocols, "_run_batch_span", no_work)
    monkeypatch.setattr(protocols, "BATCH_SPAN", 4)  # three spans on two workers would pool
    monkeypatch.setenv("SYMSENSE_THREADS", "2")
    args = [command, "--g", "1", "--n", n, "--r", "4", "--q", "1", "--theta", "0.1",
            "--trials", "10"]
    assert run_cli(args) == 2
    assert f"got n = {n}" in capsys.readouterr().err
