"""Correctness checks on a pass's outputs, run after the timed passes.

Each ``check_<workload>(out_dir, seed)`` returns ``(problems, info)``: a list
of what is wrong (empty when the outputs are correct) and informational
numbers that are reported but not gated.  Every replay through the program
happens here, outside the timed interval.  The checks hold for any seed:
they compare the program with itself (reference against batch path, one
pass against another) or with exact identities, never with seed-dependent
statistics.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import (
    R,
    REF_POOL,
    TRIALS,
    protocol_config,
    record_row,
    reference_indices,
)

# files the benchmark itself writes into a pass directory, and the run
# manifests, which carry wall time and so differ between passes
NOT_OUTPUTS = {"timing.json", "trace.json", "pass.log"}
REPLAY_SAMPLE = 64
MASS_TOL = 1e-9
MAX_PROBLEMS = 20

# (field, rel, abs) as in tests/test_protocols.py::test_reference_and_batch_agree_trajectorywise
TOLERANCES = (
    ("Phi", 1e-9, 1e-13),
    ("dPhi_dtheta", 1e-9, 1e-12),
    ("final_amp_a", 0.0, 1e-10),
    ("fisher_information", 1e-6, 1e-300),
)


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file a pass wrote, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.name not in NOT_OUTPUTS and not p.name.endswith(".manifest.json")
    }


def compare_trajectory(row: dict, ref: dict) -> list[str]:
    """Differences of one trajectory row from the reference row, at the
    tolerances of the reference-vs-batch replay test."""
    where = f"trajectory {ref['index']}"
    if row["flag"] != ref["flag"] or row["invalid_regime"] != ref["invalid_regime"]:
        return [f"{where}: abort flags {row['flag'], row['invalid_regime']} "
                f"!= reference {ref['flag'], ref['invalid_regime']}"]
    if ref["flag"]:
        return []
    problems = []
    if row["counts"] != ref["counts"]:
        problems.append(f"{where}: counts {row['counts']} != reference {ref['counts']}")
    for field, rel, abs_tol in TOLERANCES:
        got, want = float(row[field]), float(ref[field])
        if not abs(got - want) <= max(rel * abs(want), abs_tol):
            problems.append(f"{where}: {field} {got!r} != reference {want!r}")
    return problems


def _batch_row(batch, i: int) -> dict:
    return {
        "index": i,
        "flag": bool(batch.flag[i]),
        "invalid_regime": bool(batch.invalid[i]),
        "counts": batch.counts[i].tolist(),
        "Phi": float(batch.Phi[i]),
        "dPhi_dtheta": float(batch.dPhi_dtheta[i]),
        "final_amp_a": float(batch.final_amp_a[i]),
        "fisher_information": float(batch.fisher_information[i]),
    }


def _read_text(path: Path) -> str:
    return path.read_text() if path.is_file() else ""


def check_protocol1(out_dir: Path, seed: int, trials: int = TRIALS,
                    sample: int = REPLAY_SAMPLE) -> tuple[list[str], dict]:
    """Rows well formed and complete, every successful row's counts sum to r,
    and a seed-chosen sample replayed through the exact reference matches."""
    from symsense.protocols import run_protocol1, trajectory_rng

    out_dir = Path(out_dir)
    config = protocol_config(seed)
    rng = np.random.default_rng([seed, 2])
    wanted = {int(i) for i in rng.choice(trials, min(sample, trials), replace=False)}
    problems: list[str] = []
    sampled: dict[int, dict] = {}
    n_rows = traj_rounds = deletions = flagged = invalid = 0
    path = out_dir / "trajectories.jsonl"
    if not path.is_file():
        return ["trajectories.jsonl is missing"], {}
    with open(path) as fh:
        for i, line in enumerate(fh):
            n_rows += 1
            try:
                row = json.loads(line)
                if row["index"] != i:
                    problems.append(f"row {i}: index {row['index']}")
                done = sum(map(sum, row["counts"]))
                aborted = row["flag"] or row["invalid_regime"]
                if not aborted and done != R:
                    problems.append(f"row {i}: successful but counts sum to {done}, not {R}")
                traj_rounds += done + int(aborted)  # the aborting round was entered too
                deletions += int(row["n_deletions"])
                flagged += int(row["flag"])
                invalid += int(row["invalid_regime"])
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"row {i}: malformed ({exc!r})")
                continue
            if i in wanted:
                sampled[i] = row
    if n_rows != trials:
        problems.append(f"{n_rows} rows, expected {trials}")
    for i in sorted(wanted - sampled.keys()):
        problems.append(f"row {i}: missing from the replay sample")
    for i in sorted(sampled):
        ref = record_row(i, run_protocol1(config, trajectory_rng(seed, i)))
        try:
            problems += compare_trajectory(sampled[i], ref)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: malformed ({exc!r})")
    info = {
        "rows": {"traj_rounds": traj_rounds, "deletions": deletions, "flagged": flagged,
                 "invalid": invalid, "successful": n_rows - flagged - invalid,
                 "attempted": n_rows},
        "replayed": len(sampled),
    }
    stdout = _read_text(out_dir / "protocol1.out")
    mc = re.search(r"^mean_FI: (\S+)$", stdout, re.M)
    ana = re.search(r"^analytic mean_fi \(<=1 syn1 round.*: (\S+)$", stdout, re.M)
    if mc and ana:
        # heavy-tailed; information only
        info["mc_over_analytic_fi"] = float(mc.group(1)) / float(ana.group(1))
    return problems[:MAX_PROBLEMS], info


def check_verify(out_dir: Path, seed: int) -> tuple[list[str], dict]:
    stdout = _read_text(Path(out_dir) / "verify.out")
    problems = [line for line in stdout.splitlines() if line.startswith("FAIL")]
    if not re.search(r"^10/10 checks passed$", stdout, re.M):
        problems.append("verify did not report 10/10 checks passed")
    return problems, {}


def _mass_problem(what: str, weights, pruned: float) -> list[str]:
    err = abs(sum(weights) + pruned - 1.0)
    return [f"{what}: branch weights + pruned mass differ from 1 by {err:.3g}"] \
        if not err <= MASS_TOL else []


def check_dicke(out_dir: Path, seed: int) -> tuple[list[str], dict]:
    """Channel branch masses sum to one, the reference trajectories agree with
    the batch path on the same indices, and the LP optimum equals the closed
    form exactly."""
    from symsense.protocols import run_protocol1_batch

    out_dir = Path(out_dir)
    problems: list[str] = []
    try:
        channels = json.loads((out_dir / "channels.json").read_text())
        for name, res in channels.items():
            problems += _mass_problem(name, res["weights"], res["pruned_mass"])
        by_t = defaultdict(list)
        with open(out_dir / "delete.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                by_t[rec["t"]].append(float(rec["weight"]))
        if sorted(by_t) != ["1", "2"]:
            problems.append(f"delete.csv has deletion counts {sorted(by_t)}")
        for t, weights in by_t.items():
            # pruned branches carry at most PRUNE_EPS each and are not in the CSV
            problems += _mass_problem(f"delete --t {t}", weights, 0.0)

        rows = [json.loads(line) for line in open(out_dir / "reference.jsonl")]
        indices = reference_indices(seed)
        if [row["index"] for row in rows] != indices:
            problems.append("reference.jsonl does not hold the seed's trajectory indices")
        else:
            batch = run_protocol1_batch(protocol_config(seed), REF_POOL)
            for row in rows:
                problems += compare_trajectory(_batch_row(batch, row["index"]), row)

        poly = _read_text(out_dir / "polytope.out")
        lp = [re.search(rf"^{v}\* = (\S+) ", poly, re.M) for v in ("alpha", "gamma")]
        closed = re.search(r"^closed form: alpha = (\S+), gamma = (\S+)$", poly, re.M)
        if not (all(lp) and closed):
            problems.append("polytope output lacks the LP or closed-form optimum")
        elif (Fraction(lp[0].group(1)), Fraction(lp[1].group(1))) != (
            Fraction(closed.group(1)), Fraction(closed.group(2))
        ):
            problems.append("solve_lp optimum differs from closed_form_optimum")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output ({exc!r})")
    return problems[:MAX_PROBLEMS], {}


CHECKS = {"protocol1": check_protocol1, "verify": check_verify, "dicke": check_dicke}
