"""Stage timings of the protocol1 benchmark workload, serially in one process.

    python3 tools/protocol1_stages.py

The configuration is the protocol1 workload's (criterion-8 code, r = 32,
lambda = 0.02; ``bench/workloads.py``) at seed SEED.  Each of REPEATS repeats
times, for each of the first SPANS full BATCH_SPAN-row spans:

* ``span_uniforms``: ``protocols._span_uniforms``, the per-row Philox draws;
* ``span_kernel``: the rest of ``protocols._run_batch_span``, run on the
  uniforms just drawn;
* ``write_rows``: ``cli._write_rows`` of the span into a temporary file;

then ``reference``: TRAJECTORIES ``run_protocol1`` trajectories; and then
``analytic``: the two ``protocols.expected_fi_p1`` calls of ``symsense
protocol1``, after clearing the round-law cache, so every repeat times
them with the laws evaluated afresh (and leaves them cached again).  The
first repeat runs the other stages on cold caches (round laws, code frames,
the quiet chain), the later ones on warm caches.
``BENCH_protocol1_stages.json``, in the current directory, holds each
stage's samples in seconds, their median, quartiles and count, and the
environment.  ``symsense`` is imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from workloads import CODE, NDEL, Q, R, THETA  # noqa: E402

from symsense import cli, protocols  # noqa: E402
from symsense.codes import GnuParams  # noqa: E402

SEED, REPEATS, SPANS, TRAJECTORIES = 3, 7, 6, 200
OUT = "BENCH_protocol1_stages.json"


def stage_times() -> dict[str, list[float]]:
    """Per-stage samples in seconds: one per span and repeat, one per repeat for the
    reference and the analytic expectation."""
    config = protocols.ProtocolConfig(GnuParams(*CODE), r=R, q=Q, theta=THETA, n_del=NDEL,
                                      seed=SEED)
    times = {"span_uniforms": [], "span_kernel": [], "write_rows": [], "reference": [],
             "analytic": []}
    draw = protocols._span_uniforms
    clock = time.perf_counter
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(REPEATS):
            with open(Path(tmp) / "trajectories.jsonl", "w") as fh:
                for lo in range(0, SPANS * protocols.BATCH_SPAN, protocols.BATCH_SPAN):
                    hi = lo + protocols.BATCH_SPAN
                    t0 = clock()
                    U = draw(SEED, lo, hi, R)
                    t1 = clock()
                    protocols._span_uniforms = lambda *_: U
                    try:
                        span = protocols._run_batch_span(config, lo, hi)
                    finally:
                        protocols._span_uniforms = draw
                    t2 = clock()
                    cli._write_rows(fh, span, lo)
                    t3 = clock()
                    times["span_uniforms"].append(t1 - t0)
                    times["span_kernel"].append(t2 - t1)
                    times["write_rows"].append(t3 - t2)
            t0 = clock()
            for index in range(TRAJECTORIES):
                protocols.run_protocol1(config, protocols.trajectory_rng(SEED, index))
            times["reference"].append(clock() - t0)
            protocols._round_law.cache_clear()
            t0 = clock()
            protocols.expected_fi_p1(config)
            protocols.expected_fi_p1(config, include_nodel_syn1=False, max_total_syn1=1)
            times["analytic"].append(clock() - t0)
    return times


def summary(samples: list[float]) -> dict:
    points = samples if len(samples) > 1 else samples * 2  # one sample is its own quartiles
    q1, median, q3 = statistics.quantiles(points, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "n": len(samples), "samples_s": samples}


def environment() -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "usable_cpus": cpus,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": SEED,
        "repeats": REPEATS,
        "span_rows": protocols.BATCH_SPAN,
        "spans": SPANS,
        "trajectories": TRAJECTORIES,
    }


def main() -> int:
    times = stage_times()
    report = {
        "stages": {name: summary(samples) for name, samples in times.items()},
        "environment": environment(),
    }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=2)
    for name, stage in report["stages"].items():
        print(f"{name:14s} median {stage['median_s'] * 1e3:8.2f} ms  "
              f"quartiles {stage['q1_s'] * 1e3:.2f}-{stage['q3_s'] * 1e3:.2f} ms  n = {stage['n']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
