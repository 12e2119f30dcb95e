"""Command-line front end: figure-reproduction data, simulations, verification.

This module owns every output file.  A command writes ``--out`` through a
temporary file that replaces it only if the command succeeds, and ``main``
then writes one ``<out>.manifest.json`` (command, config echo, seed, build,
versions, wall time) so results are reproducible byte for byte from the
manifest alone.  The Protocol-1 JSONL and summary-CSV exporters live here.

Exit codes: 0 success (flagged/aborted simulations are data, not errors),
1 internal assertion failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from typing import Iterable

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
    BATCH_SPAN,
    BatchResult,
    ProtocolConfig,
    expected_fi_p1,
    parse_threads,
    protocol1_spans,
    run_protocol1_batch,
    run_protocol2,
    run_protocol3,
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


_JSONL_ROW = (
    '{"index": %d, %s, "Phi": %s, "dPhi_dtheta": %s, "final_amp_a": %s, '
    '"fisher_information": %s, %s}\n'
)
# the two runs of integer fields in a row, each spelled once per distinct value
_JSONL_HEAD = '"flag": %s, "invalid_regime": %s, "counts": [[%d, %d], [%d, %d]]'
_JSONL_TAIL = '"n_deletions": %d, "final_shift": %d'
_JSON_BOOL = ("false", "true")
_KEY_LIMIT = 2**62  # mixed-radix keys stay below this, well inside int64


def _json_floats(col: np.ndarray) -> list[str]:
    """json.dumps spellings of a float column, each distinct bit pattern spelled once.

    A Monte-Carlo column holds few distinct values (trajectories with the
    same outcomes share them); keying on the bits keeps -0.0 apart from 0.0.
    """
    bits, where = np.unique(np.asarray(col, dtype=np.float64).view(np.int64), return_inverse=True)
    spelled = np.array([json.dumps(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return spelled[where].tolist()


def _row_keys(cols: list[np.ndarray]) -> np.ndarray:
    """An int64 key per row of the integer columns ``cols``, equal exactly where the rows are.

    The key is mixed-radix over each column's range.  A column whose range is
    wider than the row count enters as its distinct-value codes, and the key
    is compacted to its own distinct-value codes (< the row count) before a
    radix product would pass 2^62, so it never overflows.
    """
    n_rows = cols[0].size
    key = np.zeros(n_rows, dtype=np.int64)
    size = 1  # the key lies in [0, size)
    for col in cols:
        col = col.astype(np.int64)
        low = int(col.min())
        radix = int(col.max()) - low + 1
        if radix > n_rows:
            values, col = np.unique(col, return_inverse=True)
            low, radix = 0, values.size
        if size * radix > _KEY_LIMIT:
            values, key = np.unique(key, return_inverse=True)
            size = values.size
        key = key * radix + (col - low)
        size *= radix
    return key


def _spelled_rows(cols: list[np.ndarray], spell) -> list[str]:
    """spell(row) for each row of the integer columns ``cols``, each distinct row spelled once."""
    _, first, where = np.unique(_row_keys(cols), return_index=True, return_inverse=True)
    rows = zip(*(col[first].tolist() for col in cols))
    spelled = np.array([spell(row) for row in rows], dtype=object)
    return spelled[where].tolist()


def _spell_head(row) -> str:
    flag, invalid, *counts = row
    return _JSONL_HEAD % (_JSON_BOOL[flag], _JSON_BOOL[invalid], *counts)


def write_trajectories_jsonl(spans: Iterable[BatchResult], path) -> BatchResult:
    """One JSON object per trajectory, byte-identical to json.dumps of each row dict.

    ``spans`` is an iterable of consecutive spans, such as
    :func:`protocol1_spans`; each span's rows are written as it arrives, so
    formatting overlaps the workers computing later spans.  Columns are
    converted at most BATCH_SPAN rows at a time and poured into a fixed row
    template.  An empty stream raises before ``path`` is opened; ``main``
    hands this a temporary path, so a run that fails later leaves no file
    either.  Returns the whole batch.
    """
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
    """Rows of ``batch``, numbered from ``first``.

    Each chunk of at most BATCH_SPAN rows is spelled column group by column
    group: the (flag, invalid_regime, counts) head and the (n_deletions,
    final_shift) tail once per distinct value (:func:`_spelled_rows`), each
    float column once per distinct bit pattern (:func:`_json_floats`).  A row
    is then a 7-field template filled from the index and those spellings.
    """
    for lo in range(0, batch.flag.size, BATCH_SPAN):
        sl = slice(lo, lo + BATCH_SPAN)
        counts = batch.counts[sl].reshape(-1, 4)
        cols = (
            range(first + lo, first + lo + counts.shape[0]),
            _spelled_rows([batch.flag[sl], batch.invalid[sl], *counts.T], _spell_head),
            _json_floats(batch.Phi[sl]),
            _json_floats(batch.dPhi_dtheta[sl]),
            _json_floats(batch.final_amp_a[sl]),
            _json_floats(batch.fisher_information[sl]),
            _spelled_rows([batch.n_deletions[sl], batch.final_shift[sl]], _JSONL_TAIL.__mod__),
        )
        fh.writelines(map(_JSONL_ROW.__mod__, zip(*cols)))


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
    plus = make_logical(params, Label.PLUS).state
    print(f"QFI = {qfi_pure(plus):.12g}  (g^2 n = {params.g ** 2 * params.n})")
    with _csv_writer(out, ["w", "amplitude", "codeword"]) as wr:
        for k, w in enumerate(params.weight_lattice()):
            wr.writerow([int(w), f"{plus.amps[w].real:.17g}", "zero" if k % 2 == 0 else "one"])
    return 0


def cmd_fi_scan(args, out=None) -> int:
    _check_steps(args)
    params = _params_from_args(args)
    qfi = qfi_pure(make_logical(params, Label.PLUS).state)
    with _csv_writer(out, ["theta", "fi_two_outcome", "fi_three_outcome", "qfi"]) as wr:
        for theta in np.linspace(args.theta_min, args.theta_max, args.steps):
            f2, f3 = fi_code_basis(params, float(theta))
            wr.writerow([f"{theta:.12g}", f"{f2:.12g}", f"{f3:.12g}", f"{qfi:.12g}"])
    return 0


def cmd_sld(args) -> int:
    params = _params_from_args(args)
    dec = sld(make_logical(params, Label.PLUS).state)
    print(f"eigenvalues: {dec.eigval_plus:+.12g} / {dec.eigval_minus:+.12g}")
    print(f"QFI (4 var): {dec.eigval_plus ** 2:.12g}")
    return 0


def cmd_delete(args, out=None) -> int:
    params = _params_from_args(args)
    if not 1 <= args.t <= params.n_qubits:
        raise ValueError(f"--t must be in 1..{params.n_qubits} (N of the code), got {args.t}")
    plus = make_logical(params, Label.PLUS).state
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
    plus = make_logical(params, Label.PLUS).state
    with _csv_writer(out, ["gamma", "qfi_bound", "n_branches"]) as wr:
        for gamma in np.linspace(0.0, args.gamma_max, args.steps):
            bound = ad_qfi_bound(params, float(gamma))
            nb = len(amplitude_damp(plus, float(gamma)))
            wr.writerow([f"{gamma:.12g}", f"{bound:.12g}", nb])
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


def cmd_protocol1(args, out=None) -> int:
    config = _protocol_config(args)
    if out and args.format == "json":
        # rows are written span by span while the workers compute later spans
        batch = write_trajectories_jsonl(protocol1_spans(config, args.trials), out)
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
    if out and args.format == "csv":
        write_summary_csv(batch, out)
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


def cmd_polytope(args, out=None) -> int:
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
    if out:
        write_polytope_csv(inst, out)
    return 0


def cmd_fqec_scan(args, out) -> int:
    qs = [float(x) for x in args.q_list.split(",")]
    write_fqec_vs_c_csv(out, qs=qs, e1=args.e1, e2=args.e2)
    print(f"wrote {args.out}")
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
