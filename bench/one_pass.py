"""One benchmark pass in a fresh interpreter; started by run.py, not by hand.

    python3 bench/one_pass.py --workload NAME --seed N --t0 T --pass-id K [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process.  CLOCK_MONOTONIC is shared by all processes of one machine, so
``setup_s`` below runs from interpreter start to inputs ready.  The pass
writes ``timing.json`` (and ``trace.json`` when traced) into its working
directory next to the workload's outputs.
"""

from __future__ import annotations

import argparse
import json
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from trace_layers import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    from workloads import PREPARE

    body = PREPARE[args.workload](args.seed)
    ready = time.monotonic()
    if not args.setup_only:
        body()
    done = time.monotonic()
    with open("timing.json", "w") as fh:
        json.dump({"setup_s": ready - args.t0, "work_s": done - ready}, fh)
    if tracer is not None:
        tracer.dump("trace.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
