"""symsense benchmark: one workload, fresh-interpreter passes, checked outputs.

    python3 bench/run.py --workload {protocol1,verify,dicke} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports ``symsense`` from
the checkout's ``src/`` and nothing installed.  Each pass is a fresh
interpreter (``one_pass.py``), because every `symsense` call a user makes pays
the import, the BLAS warm-up and the lazy caches.  The run

* times a few set-up-only interpreters (import and input generation),
* starts passes while the next one still fits in ``--seconds``,
* checks the outputs (``checks.py``): every pass must write byte-identical
  files, and the first pass's files must pass the workload's check,
* prints a human-readable report, a ``report: {...}`` JSON line with the
  environment and every sample, and last the result line
  ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over passes).
With ``--trace 1`` every workload, the named one first, gets one untraced and
one traced pass, and the metrics are the per-layer ones
(``trace_layers.py``), each from the traced pass of the workload that
exercises it (``metrics.py``), plus the tracing overhead.  Workloads run from one process with BLAS_THREADS BLAS
threads and without SYMSENSE_THREADS.  Temporary files go under
``.bench_build/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, per_layer_values  # noqa: E402

WORKLOADS = ("protocol1", "verify", "dicke")
# on two cores, verify's dense linear algebra ran 1.5x faster on two BLAS
# threads than on one, and its pass times spread less in alternating runs
BLAS_THREADS = 2
SETUP_RUNS = 5
PASS_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SYMSENSE_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def run_pass(workload: str, seed: int, out_dir: Path, pass_id: int,
             trace: bool = False, setup_only: bool = False) -> dict:
    """Start one fresh interpreter and wait for it; wall time, peak RSS and
    CPU time come from the parent's clock and the child's rusage."""
    out_dir.mkdir()
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--pass-id", str(pass_id)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(out_dir / "pass.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=out_dir, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "id": pass_id, "traced": trace, "exit_code": proc.returncode, "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    try:
        result.update(json.loads((out_dir / "timing.json").read_text()))
    except (OSError, ValueError):
        result["exit_code"] = result["exit_code"] or -1
    if result["exit_code"] != 0:
        result["log_tail"] = (out_dir / "pass.log").read_text()[-2000:]
    return result


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "symsense").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "sources_sha256": sources.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Untraced: set-up runs, then passes of ``workload`` while the next one
    fits in ``seconds``.  Traced: one untraced and one traced pass of every
    workload, ``workload`` first, so that each per-layer metric comes from the
    workload that exercises it."""
    from checks import CHECKS, MASS_TOL, output_digests
    from trace_layers import reduce_spans

    start = time.monotonic()
    setups = []
    for k in range(0 if trace else SETUP_RUNS + 1):
        res = run_pass(workload, seed, work / f"setup-{k}", -1 - k, setup_only=True)
        if k and res["exit_code"] == 0:  # the first one only warms the bytecode and file caches
            setups.append(res["setup_s"])

    order = [workload] + [w for w in WORKLOADS if w != workload]
    schedule = [(w, t) for w in order for t in (False, True)] if trace else [(workload, False)]
    passes, first_dirs = [], {}
    while True:
        for w, traced in schedule:
            pass_id = len(passes)
            out_dir = work / f"pass-{pass_id}"
            res = run_pass(w, seed, out_dir, pass_id, trace=traced)
            res.update(workload=w, digests=output_digests(out_dir), problems=[])
            if traced and res["exit_code"] == 0:
                res["spans"] = reduce_spans(json.loads((out_dir / "trace.json").read_text()))
                # every channel call the traced pass made, not only the workload's own
                mass = res["spans"]["stats"].get("noise.branch_mass_error", 0.0)
                if not mass <= MASS_TOL:
                    res["problems"].append(f"a channel's branch mass differs from 1 by {mass:.3g}")
            passes.append(res)
            if w not in first_dirs and res["exit_code"] == 0:
                first_dirs[w] = out_dir
            else:
                shutil.rmtree(out_dir)
        elapsed = time.monotonic() - start
        if trace or elapsed + _median([p["wall_s"] for p in passes]) > seconds:
            break

    problems, info = [], {}
    for w in dict.fromkeys(w for w, _ in schedule):
        found, reference = ["no pass completed"], {}
        if w in first_dirs:
            found, info[w] = CHECKS[w](first_dirs[w], seed)
            reference = output_digests(first_dirs[w])
        judge([p for p in passes if p["workload"] == w], reference, found)
        problems += [f"{w}: {problem}" for problem in found]
    return {"setups": setups, "passes": passes, "problems": problems, "info": info}


def judge(passes: list[dict], reference: dict, problems: list[str]) -> None:
    """A pass fails if it exited non-zero, if its outputs differ from the
    checked pass's, if its own trace showed a problem, or if the checked
    outputs have problems (all passes wrote the same bytes, so they share them)."""
    for p in passes:
        p["mismatch"] = p["exit_code"] == 0 and p["digests"] != reference
        p["ok"] = (p["exit_code"] == 0 and not p["mismatch"] and not p["problems"]
                   and not problems)


def end_to_end(m: dict) -> dict:
    plain = [p for p in m["passes"] if not p["traced"] and p["exit_code"] == 0]
    ok = sum(p["ok"] for p in m["passes"])
    return {
        "setup_s": _median(m["setups"] + [p["setup_s"] for p in plain]),
        "wall_s": _median([p["wall_s"] for p in plain]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "ok_ratio": ok / len(m["passes"]),
    }


def per_layer(m: dict) -> dict:
    traces, cpu_s, overhead = {}, {}, {}
    for w in WORKLOADS:
        plain = [p for p in m["passes"]
                 if p["workload"] == w and not p["traced"] and p["exit_code"] == 0]
        traced = [p for p in m["passes"] if p["workload"] == w and "spans" in p]
        if plain and traced:
            traces[w] = traced[0]["spans"]
            cpu_s[w] = _median([p["cpu_s"] for p in plain])
            overhead[w] = traced[0]["wall_s"] - _median([p["wall_s"] for p in plain])
    rows = m["info"].get("protocol1", {}).get("rows", {})
    return per_layer_values(traces, rows, cpu_s, overhead)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "symsense" / "__init__.py").is_file():
        print(f"error: no symsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="symsense-", dir=build))
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        if args.trace:
            values = per_layer(m)
            catalogue = [(name, unit) for name, unit, *_ in PER_LAYER]
        else:
            values = end_to_end(m)
            catalogue = [(name, unit) for name, unit, *_ in END_TO_END]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = m["passes"]
    failed = sum(not p["ok"] for p in passes)
    correct = failed == 0 and not m["problems"]
    n_plain = sum(not p["traced"] for p in passes)
    what = (f"traced run of {', '.join(m['info']) or args.workload}" if args.trace
            else f"workload {args.workload}")
    print(f"symsense benchmark: {what}, seed {args.seed}, "
          f"{len(passes)} passes ({n_plain} untraced), {len(m['setups'])} set-up runs")
    for name, unit in catalogue:
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    print(f"  fail_ratio {failed}/{len(passes)}; medians over passes; no tail percentile "
          f"(fewer than ten samples lie beyond any)")
    for problem in m["problems"]:
        print(f"  FAILED CHECK: {problem}")
    for p in passes:
        if not p["ok"]:
            why = (f"exit code {p['exit_code']}" if p["exit_code"]
                   else "outputs differ from the checked pass" if p["mismatch"]
                   else "; ".join(p["problems"]) or "failed checks")
            print(f"  pass {p['id']} ({p['workload']}) failed: {why}")
    for p in passes:
        p.pop("digests")
        p.pop("spans", None)
    report = {"workload": args.workload, "environment": environment(args.seed),
              "info": m["info"], "setups_s": m["setups"], "passes": passes,
              "problems": m["problems"]}
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": len(passes), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
