"""Command-line front end: figure-reproduction data, simulations, verification.

This module owns every output file.  A command writes ``--out`` through a
temporary file that replaces it only if the command succeeds, and ``main``
then writes one ``<out>.manifest.json`` (command, config echo, seed, build,
versions, wall time) so results are reproducible byte for byte from the
manifest alone.  The Protocol-1 JSONL and summary-CSV exporters live here;
the JSONL spells each distinct row of a span once, as json.dumps of its dict.

The Dicke-block layers are imported here, at the top.  The other layers are
imported on first use by the code that runs them: :mod:`symsense.protocols` by
the Protocol-1 commands and exporters, :mod:`symsense.optimizer` by polytope
and fqec-scan, :mod:`symsense.verify` by verify.  So ``verify`` never imports
the Protocol-1 or LP layers, and only a pooled Protocol-1 run loads the
process pool.

Exit codes: 0 success (flagged/aborted simulations are data, not errors),
1 internal assertion failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

import numpy as np

from symsense import __version__
from symsense.codes import GnuParams, Label, make_logical
from symsense.metrology import fi_code_basis, qfi_pure, sld
from symsense.noise import ad_qfi_bound, damping_branch_count, delete, deletion_qfi
from symsense.qec import deletion_qec
from symsense.symcore import as_fraction, jz_moments

if TYPE_CHECKING:
    from symsense.protocols import BatchResult, ProtocolConfig


@functools.cache
def _git_describe() -> str:
    """The checkout's ``git describe``, asked once per process."""
    import subprocess

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


@contextlib.contextmanager
def _replaced(path: str):
    """A temporary path beside ``path`` that replaces it if the block succeeds
    and is removed if it fails, so ``path`` is never left half written."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_manifest(args, path: str, t0: float) -> None:
    """Write ``<path>.manifest.json``, with the Python, numpy and BLAS versions
    and, for the Monte-Carlo commands, the worker count."""
    import platform

    echo = {
        k: v for k, v in vars(args).items() if isinstance(v, (int, float, str, bool, type(None)))
    }
    manifest = {
        "command": args.command,
        "config": echo,
        "seed": getattr(args, "seed", None),
        "build": _git_describe(),
        "outputs": [path],
        "wall_time_s": round(time.time() - t0, 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
    }
    if hasattr(args, "trials"):
        from symsense.protocols import parse_threads

        manifest["workers"] = parse_threads(os.environ.get("SYMSENSE_THREADS"))
    with _replaced(path + ".manifest.json") as tmp, open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


@contextlib.contextmanager
def _csv_writer(path: str | None, header: list):
    """A CSV writer into ``path``, or onto stdout without one, with ``header`` written."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        yield wr


# ---------------------------------------------------------------------------
# Protocol-1 exporters
# ---------------------------------------------------------------------------


# the protocol1 JSONL row after its index, in key order: {key: BatchResult field}
_JSONL_FIELDS = {
    "flag": "flag", "invalid_regime": "invalid", "counts": "counts", "Phi": "Phi",
    "dPhi_dtheta": "dPhi_dtheta", "final_amp_a": "final_amp_a",
    "fisher_information": "fisher_information", "n_deletions": "n_deletions",
    "final_shift": "final_shift",
}


def write_trajectories_jsonl(spans: Iterable[BatchResult], path) -> BatchResult:
    """One JSON object per trajectory, byte-identical to json.dumps of each row dict.

    ``spans`` is an iterable of consecutive spans, such as
    :func:`protocol1_spans`; each span's rows are written as it arrives, so
    formatting overlaps the workers computing later spans.  At most
    BATCH_SPAN rows at a time, each distinct row is spelled once by
    json.dumps and shared by the rows equal to it (:func:`_write_rows`).
    An empty stream raises before ``path`` is opened; ``main``
    hands this a temporary path, so a run that fails later leaves no file
    either.  Returns the whole batch.
    """
    from symsense.protocols import BatchResult

    spans = iter(spans)
    first = next(spans, None)
    if first is None:
        raise ValueError(f"no spans to write to {path}: the span stream is empty")
    parts, n_rows = [], 0
    with open(path, "w") as fh:
        for part in itertools.chain([first], spans):
            _write_rows(fh, part, n_rows)
            n_rows += part.flag.size
            parts.append(part)
    return BatchResult.concatenate(parts, first.config)


def _write_rows(fh, batch: BatchResult, first: int) -> None:
    """Rows of ``batch``, numbered from ``first``, in one write per chunk of BATCH_SPAN rows.

    A chunk holds few distinct rows (trajectories with the same outcomes
    share every field).  A row's key is the bytes of its 12 fields as int64,
    the floats by their bit patterns so that -0.0, NaN and +-inf stay exact;
    one np.unique over a chunk's keys finds its distinct rows.  Each is
    spelled once as json.dumps of its row dict, and a row is its index
    followed by that spelling.
    """
    from symsense.protocols import BATCH_SPAN

    for lo in range(0, batch.flag.size, BATCH_SPAN):
        sl = slice(lo, lo + BATCH_SPAN)
        cols = {key: getattr(batch, name)[sl] for key, name in _JSONL_FIELDS.items()}
        words = np.column_stack(
            [col.view(np.int64) if col.dtype.kind == "f" else col.reshape(col.shape[0], -1)
             for col in cols.values()]
        )
        _, at, where = np.unique(words.view(f"V{8 * words.shape[1]}").ravel(),
                                 return_index=True, return_inverse=True)
        spelled = [json.dumps(dict(zip(cols, row)))[1:] + "\n"
                   for row in zip(*(col[at].tolist() for col in cols.values()))]
        index = range(first + lo, first + lo + where.size)
        lines = zip(index, map(spelled.__getitem__, where.tolist()))
        fh.write("".join(map('{"index": %d, %s'.__mod__, lines)))


def write_summary_csv(batch: BatchResult, path) -> None:
    """The run's configuration and :meth:`BatchResult.summary` as a one-row CSV."""
    cfg, p = batch.config, batch.config.params
    summary = batch.summary()
    header = ["g", "n", "u", "s", "N", "r", "q", "theta", "n_del", "seed", *summary]
    with _csv_writer(path, header) as wr:
        wr.writerow([p.g, p.n, str(p.u), p.s, p.n_qubits, cfg.r, cfg.q, cfg.theta, cfg.n_del,
                     cfg.seed, *summary.values()])


def _params_from_args(args) -> GnuParams:
    u = as_fraction(args.u)
    gnu = args.g * args.n * u
    if gnu.denominator != 1:
        # snap u to the nearest rational that makes g*n*u an integer
        target = round(args.g * args.n * float(u))
        u = Fraction(target, args.g * args.n)
        print(f"note: u adjusted to {u} ({float(u):.6f}) so g*n*u is an integer", file=sys.stderr)
    params = GnuParams(args.g, args.n, u, args.s)
    args.u = str(params.u)  # the manifest echoes the u that ran
    return params


def _check_steps(args) -> None:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")


def cmd_qfi(args, out=None) -> int:
    params = _params_from_args(args)
    plus = make_logical(params, Label.PLUS)
    print(f"QFI = {qfi_pure(plus):.12g}  (g^2 n = {params.g ** 2 * params.n})")
    with _csv_writer(out, ["w", "amplitude", "codeword"]) as wr:
        for k, w in enumerate(params.weight_lattice()):
            wr.writerow([int(w), f"{plus.amps[w].real:.17g}", "zero" if k % 2 == 0 else "one"])
    return 0


def cmd_fi_scan(args, out=None) -> int:
    _check_steps(args)
    for flag, theta in (("--theta-min", args.theta_min), ("--theta-max", args.theta_max)):
        if not np.isfinite(theta):
            raise ValueError(f"{flag} must be finite, got {theta!r}")
    params = _params_from_args(args)
    qfi = qfi_pure(make_logical(params, Label.PLUS))
    with _csv_writer(out, ["theta", "fi_two_outcome", "fi_three_outcome", "qfi"]) as wr:
        for theta in np.linspace(args.theta_min, args.theta_max, args.steps):
            f2, f3 = fi_code_basis(params, float(theta))
            wr.writerow([f"{theta:.12g}", f"{f2:.12g}", f"{f3:.12g}", f"{qfi:.12g}"])
    return 0


def cmd_sld(args) -> int:
    params = _params_from_args(args)
    dec = sld(make_logical(params, Label.PLUS))
    print(f"eigenvalues: {dec.eigval_plus:+.12g} / {dec.eigval_minus:+.12g}")
    print(f"QFI (4 var): {dec.eigval_plus ** 2:.12g}")
    return 0


def cmd_delete(args, out=None) -> int:
    params = _params_from_args(args)
    if not 1 <= args.t <= params.n_qubits:
        raise ValueError(f"--t must be in 1..{params.n_qubits} (N of the code), got {args.t}")
    plus = make_logical(params, Label.PLUS)
    with _csv_writer(out, ["t", "shift", "weight", "branch_variance", "qfi_after"]) as wr:
        for t in range(1, args.t + 1):
            qfi_after = deletion_qfi(params, t) if min(params.g, params.n) > t else float("nan")
            for br in delete(plus, t):
                _, _, var = jz_moments(br.state)
                wr.writerow([t, br.shift, f"{br.weight:.12g}", f"{var:.12g}", f"{qfi_after:.12g}"])
    return 0


def cmd_ad(args, out=None) -> int:
    _check_steps(args)
    if not 0.0 <= args.gamma_max <= 1.0:
        raise ValueError(f"--gamma-max must be in [0, 1], got {args.gamma_max}")
    params = _params_from_args(args)
    plus = make_logical(params, Label.PLUS)
    with _csv_writer(out, ["gamma", "qfi_bound", "n_branches"]) as wr:
        for gamma in np.linspace(0.0, args.gamma_max, args.steps):
            bound = ad_qfi_bound(params, float(gamma))
            nb = damping_branch_count(plus, float(gamma))
            wr.writerow([f"{gamma:.12g}", f"{bound:.12g}", nb])
    return 0


def cmd_qec_delete(args) -> int:
    params = _params_from_args(args)
    plus = make_logical(params, Label.PLUS)
    total = 0.0
    for br in delete(plus, args.t):
        corrected, a = deletion_qec(br.state, params, args.t)
        qfi = qfi_pure(corrected)
        total += br.weight * qfi
        print(f"branch a={a}: weight {br.weight:.6f}, post-QEC QFI {qfi:.6f}")
    print(f"ensemble QFI after QEC: {total:.6f} (codeword value {params.g ** 2 * params.n})")
    return 0


def _protocol_config(args) -> ProtocolConfig:
    from symsense.protocols import ProtocolConfig

    params = _params_from_args(args)
    return ProtocolConfig(params, args.r, args.q, args.theta, args.ndel, seed=args.seed)


def cmd_protocol1(args, out=None) -> int:
    if args.format == "json" and not out:
        raise ValueError("--format json writes every trajectory to --out, and no --out was given")
    from symsense.protocols import expected_fi_p1, protocol1_spans, run_protocol1_batch

    config = _protocol_config(args)
    if args.format == "json":
        # rows are written span by span while the workers compute later spans
        batch = write_trajectories_jsonl(protocol1_spans(config, args.trials), out)
    else:
        batch = run_protocol1_batch(config, args.trials)
    summary = batch.summary()
    for key, val in summary.items():
        print(f"{key}: {val}")
    ana_full = expected_fi_p1(config)
    ana_res = expected_fi_p1(config, include_nodel_syn1=False, max_total_syn1=1)["mean_fi"]
    print(f"analytic mean_fi (exact, all sectors): {ana_full['mean_fi']:.6g}")
    # in full: 1 - P[ok] can be below 1e-6, which six digits would not show
    sector_p = ana_full["sector_probability"]
    print(f"analytic sector_probability (exact, all sectors): {sector_p}")
    print(
        f"analytic mean_fi (<=1 syn1 round, no nodel-syn1 -- the sector a run "
        f"of this size can resolve): {ana_res:.6g}"
    )
    print(f"nodel-syn1 rounds in this run: {batch.nodel_syn1_rounds()}")
    if out and args.format == "csv":
        write_summary_csv(batch, out)
    return 0


def cmd_protocol2(args) -> int:
    from symsense.protocols import run_protocol2

    config = _protocol_config(args)
    res = run_protocol2(config, n_traj=args.trials)
    for key, val in res.items():
        print(f"{key}: {val}")
    return 0


def cmd_protocol3(args) -> int:
    from symsense.protocols import run_protocol3

    cs = run_protocol3(args.c1, args.k, args.q, args.e1, args.e2)
    for j, c in enumerate(cs, start=1):
        print(f"c_{j} = {c} ({float(c):.6f})")
    return 0


def cmd_polytope(args, out=None) -> int:
    from symsense.optimizer import (
        LPInstance,
        closed_form_optimum,
        feasible_vertices,
        p2_exponent,
        solve_lp,
        write_polytope_csv,
    )

    inst = LPInstance(args.c, args.q, args.eta, args.e1, args.e2)  # fields parsed by as_fraction
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
    if out:
        write_polytope_csv(inst, out)
    return 0


def cmd_fqec_scan(args, out) -> int:
    from symsense.optimizer import write_fqec_vs_c_csv

    qs = [float(x) for x in args.q_list.split(",")]
    write_fqec_vs_c_csv(out, qs=qs, e1=args.e1, e2=args.e2)
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    from symsense.verify import run_verification

    failures = run_verification(as_json=args.json)
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="symsense",
        description="Field sensing with permutation-invariant gnu codes: "
        "closed forms, channels, QEC-while-sensing protocols, and the protocol LP.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    csv_out = "output CSV (default: stdout)"

    def add_code_flags(p):
        p.add_argument("--g", type=int, required=True, help="weight-lattice gap")
        p.add_argument("--n", type=int, required=True, help="binomial occupancy count")
        p.add_argument("--u", default="1", help="scale (rational like 44/43, or float)")
        p.add_argument("--s", type=int, default=0, help="lattice shift")

    def add_protocol_flags(p):
        add_code_flags(p)
        p.add_argument("--r", type=int, required=True, help="QEC rounds")
        p.add_argument("--q", type=float, required=True, help="timestep exponent (tau = r^-q)")
        p.add_argument("--theta", type=float, required=True, help="signal per unit time")
        p.add_argument("--ndel", type=float, default=0.0, help="deletions per qubit per time")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("qfi", help="codeword QFI and amplitude table")
    add_code_flags(p)
    p.add_argument("--out", help=csv_out)
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("fi-scan", help="code-basis FI vs theta")
    add_code_flags(p)
    p.add_argument("--out", help=csv_out)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=0.2)
    p.add_argument("--steps", type=int, default=101)
    p.set_defaults(func=cmd_fi_scan)

    p = sub.add_parser("sld", help="SLD spectral data of the plus probe")
    add_code_flags(p)
    p.set_defaults(func=cmd_sld)

    p = sub.add_parser("delete", help="deletion-channel branches and post-deletion QFI")
    add_code_flags(p)
    p.add_argument("--out", help=csv_out)
    p.add_argument("--t", type=int, default=1, help="max deletions")
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser("ad", help="amplitude-damping QFI bound vs gamma")
    add_code_flags(p)
    p.add_argument("--out", help=csv_out)
    p.add_argument("--gamma-max", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=26)
    p.set_defaults(func=cmd_ad)

    p = sub.add_parser("qec-delete", help="deletion QEC round trip on the plus probe")
    add_code_flags(p)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=cmd_qec_delete)

    p = sub.add_parser("protocol1", help="Monte-Carlo protocol1")
    add_protocol_flags(p)
    p.add_argument("--out", help="output file: the summary CSV, or every trajectory as JSONL")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_protocol1)

    p = sub.add_parser("protocol2", help="Monte-Carlo protocol2")
    add_protocol_flags(p)
    p.set_defaults(func=cmd_protocol2)

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
    p.add_argument("--out", help="output CSV of the feasibility grid (default: none)")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("fqec-scan", help="protocol FI exponent vs prior knowledge c")
    p.add_argument("--q-list", default="1,1.25,1.5")
    p.add_argument("--e1", type=float, default=0.0)
    p.add_argument("--e2", type=float, default=0.0)
    p.add_argument("--out", default="fqec_vs_c.csv")
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
    t0 = time.time()
    out = getattr(args, "out", None)
    try:
        if out is None:
            return args.func(args)
        with _replaced(out) as tmp:
            code = args.func(args, tmp)
        _write_manifest(args, out, t0)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
