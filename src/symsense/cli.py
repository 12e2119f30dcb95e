"""Command-line front end: figure-reproduction data, simulations, verification.

Every file-producing command writes a JSON run manifest next to its outputs
(command, full configuration echo, seed, build version, output paths, wall
time) so results are reproducible byte for byte from the manifest alone.

Exit codes: 0 success (flagged/aborted simulations are data, not errors),
1 internal assertion failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from symsense import __version__
from symsense.codes import GnuParams, Label, make_logical
from symsense.metrology import fi_code_basis, qfi_pure, sld
from symsense.noise import ad_qfi_bound, amplitude_damp, delete, deletion_qfi
from symsense.optimizer import (
    LPInstance,
    closed_form_optimum,
    feasible_vertices,
    p2_exponent,
    solve_lp,
    write_fqec_vs_c_csv,
    write_polytope_csv,
)
from symsense.protocols import (
    ProtocolConfig,
    expected_fi_p1,
    parse_threads,
    protocol1_spans,
    run_protocol1_batch,
    run_protocol2,
    run_protocol3,
    write_summary_csv,
    write_trajectories_jsonl,
)
from symsense.qec import deletion_qec
from symsense.symcore import as_fraction, jz_moments


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return f"symsense-{__version__}"


def _blas_build() -> dict | None:
    """Name and version of the BLAS numpy was built against (None before numpy 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_manifest(
    command: str, config: dict, outputs: list[str], seed, t0: float, workers: int | None = None
):
    """Write ``<first output>.manifest.json``, with the Python, numpy and BLAS
    versions and, for commands that can use a pool, the worker count."""
    if not outputs:
        return
    echo = {
        k: v for k, v in config.items() if isinstance(v, (int, float, str, bool, type(None)))
    }
    manifest = {
        "command": command,
        "config": echo,
        "seed": seed,
        "build": _git_describe(),
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.time() - t0, 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
    }
    if workers is not None:
        manifest["workers"] = workers
    path = str(outputs[0]) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _params_from_args(args) -> GnuParams:
    u = as_fraction(args.u)
    gnu = args.g * args.n * u
    if gnu.denominator != 1:
        # snap u to the nearest rational that makes g*n*u an integer
        target = round(args.g * args.n * float(u))
        u = Fraction(target, args.g * args.n)
        print(f"note: u adjusted to {u} ({float(u):.6f}) so g*n*u is an integer", file=sys.stderr)
    return GnuParams(args.g, args.n, u, args.s)


def _check_steps(args) -> None:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")


def _open_out(args):
    return open(args.out, "w", newline="") if args.out else sys.stdout


def cmd_qfi(args) -> int:
    t0 = time.time()
    params = _params_from_args(args)
    plus = make_logical(params, Label.PLUS)
    value = qfi_pure(plus.state)
    print(f"QFI = {value:.12g}  (g^2 n = {params.g ** 2 * params.n})")
    fh = _open_out(args)
    wr = csv.writer(fh)
    wr.writerow(["w", "amplitude", "codeword"])
    for k, w in enumerate(params.weight_lattice()):
        wr.writerow([int(w), f"{plus.state.amps[w].real:.17g}", "zero" if k % 2 == 0 else "one"])
    if args.out:
        fh.close()
        _write_manifest("qfi", vars(args) | {"u": str(params.u)}, [args.out], None, t0)
    return 0


def cmd_fi_scan(args) -> int:
    t0 = time.time()
    _check_steps(args)
    params = _params_from_args(args)
    qfi = qfi_pure(make_logical(params, Label.PLUS).state)
    fh = _open_out(args)
    wr = csv.writer(fh)
    wr.writerow(["theta", "fi_two_outcome", "fi_three_outcome", "qfi"])
    for theta in np.linspace(args.theta_min, args.theta_max, args.steps):
        f2, f3 = fi_code_basis(params, float(theta))
        wr.writerow([f"{theta:.12g}", f"{f2:.12g}", f"{f3:.12g}", f"{qfi:.12g}"])
    if args.out:
        fh.close()
        _write_manifest("fi-scan", vars(args) | {"u": str(params.u)}, [args.out], None, t0)
    return 0


def cmd_sld(args) -> int:
    params = _params_from_args(args)
    dec = sld(make_logical(params, Label.PLUS).state)
    print(f"eigenvalues: {dec.eigval_plus:+.12g} / {dec.eigval_minus:+.12g}")
    print(f"QFI (4 var): {dec.eigval_plus ** 2:.12g}")
    return 0


def cmd_delete(args) -> int:
    t0 = time.time()
    params = _params_from_args(args)
    if not 1 <= args.t <= params.n_qubits:
        raise ValueError(f"--t must be in 1..{params.n_qubits} (N of the code), got {args.t}")
    plus = make_logical(params, Label.PLUS).state
    fh = _open_out(args)
    wr = csv.writer(fh)
    wr.writerow(["t", "shift", "weight", "branch_variance", "qfi_after"])
    for t in range(1, args.t + 1):
        qfi_after = deletion_qfi(params, t) if min(params.g, params.n) > t else float("nan")
        for br in delete(plus, t):
            _, _, var = jz_moments(br.state)
            wr.writerow([t, br.shift, f"{br.weight:.12g}", f"{var:.12g}", f"{qfi_after:.12g}"])
    if args.out:
        fh.close()
        _write_manifest("delete", vars(args) | {"u": str(params.u)}, [args.out], None, t0)
    return 0


def cmd_ad(args) -> int:
    t0 = time.time()
    _check_steps(args)
    if not 0.0 <= args.gamma_max <= 1.0:
        raise ValueError(f"--gamma-max must be in [0, 1], got {args.gamma_max}")
    params = _params_from_args(args)
    plus = make_logical(params, Label.PLUS).state
    fh = _open_out(args)
    wr = csv.writer(fh)
    wr.writerow(["gamma", "qfi_bound", "n_branches"])
    for gamma in np.linspace(0.0, args.gamma_max, args.steps):
        bound = ad_qfi_bound(params, float(gamma))
        nb = len(amplitude_damp(plus, float(gamma)))
        wr.writerow([f"{gamma:.12g}", f"{bound:.12g}", nb])
    if args.out:
        fh.close()
        _write_manifest("ad", vars(args) | {"u": str(params.u)}, [args.out], None, t0)
    return 0


def cmd_qec_delete(args) -> int:
    params = _params_from_args(args)
    plus = make_logical(params, Label.PLUS).state
    total = 0.0
    for br in delete(plus, args.t):
        corrected, a = deletion_qec(br.state, params, args.t)
        qfi = qfi_pure(corrected)
        total += br.weight * qfi
        print(f"branch a={a}: weight {br.weight:.6f}, post-QEC QFI {qfi:.6f}")
    print(f"ensemble QFI after QEC: {total:.6f} (codeword value {params.g ** 2 * params.n})")
    return 0


def _protocol_config(args) -> ProtocolConfig:
    params = _params_from_args(args)
    return ProtocolConfig(params, args.r, args.q, args.theta, args.ndel, seed=args.seed)


def cmd_protocol1(args) -> int:
    t0 = time.time()
    config = _protocol_config(args)
    if args.out and args.format == "json":
        # rows are written span by span while the workers compute later spans
        batch = write_trajectories_jsonl(protocol1_spans(config, args.trials), args.out)
    else:
        batch = run_protocol1_batch(config, args.trials)
    summary = batch.summary()
    for key, val in summary.items():
        print(f"{key}: {val}")
    ana_full = expected_fi_p1(config)["mean_fi"]
    ana_res = expected_fi_p1(config, include_nodel_syn1=False, max_total_syn1=1)["mean_fi"]
    print(f"analytic mean_fi (leading order, all sectors): {ana_full:.6g}")
    print(
        f"analytic mean_fi (<=1 syn1 round, no nodel-syn1 -- the sector a run "
        f"of this size can resolve): {ana_res:.6g}"
    )
    print(f"nodel-syn1 rounds in this run: {batch.nodel_syn1_rounds()}")
    if args.out:
        if args.format != "json":
            write_summary_csv(batch, args.out)
        _write_manifest(
            "protocol1", vars(args) | {"u": str(config.params.u)}, [args.out], args.seed, t0,
            workers=parse_threads(os.environ.get("SYMSENSE_THREADS")),
        )
    return 0


def cmd_protocol2(args) -> int:
    config = _protocol_config(args)
    res = run_protocol2(config, n_traj=args.trials)
    for key, val in res.items():
        print(f"{key}: {val}")
    return 0


def cmd_protocol3(args) -> int:
    cs = run_protocol3(args.c1, args.k, args.q, args.e1, args.e2)
    for j, c in enumerate(cs, start=1):
        print(f"c_{j} = {c} ({float(c):.6f})")
    return 0


def cmd_polytope(args) -> int:
    t0 = time.time()
    inst = LPInstance(
        as_fraction(args.c), as_fraction(args.q), as_fraction(args.eta),
        as_fraction(args.e1), as_fraction(args.e2),
    )
    sol = solve_lp(inst)
    if sol is None:
        print("polytope is empty (infeasible instance)")
    else:
        alpha, gamma, val = sol
        print(f"alpha* = {alpha} ({float(alpha):.6f})")
        print(f"gamma* = {gamma} ({float(gamma):.6f})")
        print(f"objective = {val} ({float(val):.6f})")
        cf_alpha, cf_gamma = closed_form_optimum(inst)
        print(f"closed form: alpha = {cf_alpha}, gamma = {cf_gamma}")
        print(f"p2 exponent at closed form: {p2_exponent(inst)} ({float(p2_exponent(inst)):.6f})")
        for v_alpha, v_gamma in feasible_vertices(inst):
            print(f"vertex: alpha = {v_alpha} ({float(v_alpha):.6f}), "
                  f"gamma = {v_gamma} ({float(v_gamma):.6f})")
    if args.out:
        write_polytope_csv(inst, args.out)
        _write_manifest("polytope", vars(args), [args.out], None, t0)
    return 0


def cmd_fqec_scan(args) -> int:
    t0 = time.time()
    qs = [float(x) for x in args.q_list.split(",")]
    out = args.out or "fqec_vs_c.csv"
    write_fqec_vs_c_csv(out, qs=qs, e1=args.e1, e2=args.e2)
    print(f"wrote {out}")
    _write_manifest("fqec-scan", vars(args), [out], None, t0)
    return 0


def cmd_verify(args) -> int:
    from symsense.verify import run_verification

    failures = run_verification(verbose=True, as_json=args.json)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symsense",
        description="Field sensing with permutation-invariant gnu codes: "
        "closed forms, channels, QEC-while-sensing protocols, and the protocol LP.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_code_flags(p):
        p.add_argument("--g", type=int, required=True, help="weight-lattice gap")
        p.add_argument("--n", type=int, required=True, help="binomial occupancy count")
        p.add_argument("--u", default="1", help="scale (rational like 44/43, or float)")
        p.add_argument("--s", type=int, default=0, help="lattice shift")

    def add_io_flags(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("qfi", help="codeword QFI and amplitude table")
    add_code_flags(p)
    add_io_flags(p)
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("fi-scan", help="code-basis FI vs theta")
    add_code_flags(p)
    add_io_flags(p)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=0.2)
    p.add_argument("--steps", type=int, default=101)
    p.set_defaults(func=cmd_fi_scan)

    p = sub.add_parser("sld", help="SLD spectral data of the plus probe")
    add_code_flags(p)
    p.set_defaults(func=cmd_sld)

    p = sub.add_parser("delete", help="deletion-channel branches and post-deletion QFI")
    add_code_flags(p)
    add_io_flags(p)
    p.add_argument("--t", type=int, default=1, help="max deletions")
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser("ad", help="amplitude-damping QFI bound vs gamma")
    add_code_flags(p)
    add_io_flags(p)
    p.add_argument("--gamma-max", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=26)
    p.set_defaults(func=cmd_ad)

    p = sub.add_parser("qec-delete", help="deletion QEC round trip on the plus probe")
    add_code_flags(p)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=cmd_qec_delete)

    for name, fn in (("protocol1", cmd_protocol1), ("protocol2", cmd_protocol2)):
        p = sub.add_parser(name, help=f"Monte-Carlo {name}")
        add_code_flags(p)
        add_io_flags(p)
        p.add_argument("--r", type=int, required=True, help="QEC rounds")
        p.add_argument("--q", type=float, required=True, help="timestep exponent (tau = r^-q)")
        p.add_argument("--theta", type=float, required=True, help="signal per unit time")
        p.add_argument("--ndel", type=float, default=0.0, help="deletions per qubit per time")
        p.add_argument("--trials", type=int, default=1000)
        p.set_defaults(func=fn)

    p = sub.add_parser("protocol3", help="iterated precision-exponent boosting")
    p.add_argument("--c1", type=float, default=0.5)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--q", type=float, default=1.5)
    p.add_argument("--e1", type=float, default=0.0)
    p.add_argument("--e2", type=float, default=0.0)
    p.set_defaults(func=cmd_protocol3)

    p = sub.add_parser("polytope", help="solve the (alpha, gamma) linear program")
    p.add_argument("--c", default="0")
    p.add_argument("--q", default="3/2")
    p.add_argument("--eta", default="1")
    p.add_argument("--e1", default="1/10")
    p.add_argument("--e2", default="1/10")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("fqec-scan", help="protocol FI exponent vs prior knowledge c")
    p.add_argument("--q-list", default="1,1.25,1.5")
    p.add_argument("--e1", type=float, default=0.0)
    p.add_argument("--e2", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fqec_scan)

    p = sub.add_parser("verify", help="run the small-N oracle verification suite")
    p.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per check (name, value, threshold, pass) instead of the table",
    )
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
