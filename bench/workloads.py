"""The benchmark's workloads: inputs made from the seed, and the body of one pass.

A pass runs in a fresh interpreter whose working directory is an empty output
directory, so every output path here is relative.  ``prepare`` does the set-up
(imports and input generation) and returns the body; the body is the timed
work and writes every output the checks read.

All three workloads run against the N = 2000 code of acceptance criterion 8
(g = 40, n = 3, u = 53/6, s = 940) where they need a code.
"""

from __future__ import annotations

import contextlib
import json
from fractions import Fraction

CODE_FLAGS = ["--g", "40", "--n", "3", "--u", "53/6", "--s", "940"]
CODE = (40, 3, Fraction(53, 6), 940)
R, Q, THETA = 32, 1.5, 1e-3
# lambda = n_del * N * tau = 0.02, the criterion-8 deletion rate
NDEL = 0.02 / (2000 * R**-Q)
TRIALS = 100_000

DICKE_N = 1000
REF_TRAJECTORIES = 200
# reference indices are drawn from [0, REF_POOL) so the check can replay them
# with one batch of REF_POOL trajectories
REF_POOL = 4096


def protocol1_argv(seed: int, trials: int = TRIALS) -> list[str]:
    return [
        "protocol1", *CODE_FLAGS,
        "--r", str(R), "--q", repr(Q), "--theta", repr(THETA), "--ndel", repr(NDEL),
        "--trials", str(trials), "--seed", str(seed),
        "--format", "json", "--out", "trajectories.jsonl",
    ]


def protocol_config(seed: int):
    """The ProtocolConfig the protocol1 command builds from ``protocol1_argv``."""
    from symsense.codes import GnuParams
    from symsense.protocols import ProtocolConfig

    return ProtocolConfig(GnuParams(*CODE), R, Q, THETA, NDEL, seed=seed)


def reference_indices(seed: int) -> list[int]:
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    return sorted(int(i) for i in rng.choice(REF_POOL, REF_TRAJECTORIES, replace=False))


def run_cli(argv: list[str], stdout_name: str) -> None:
    """One `symsense` command in this interpreter, its stdout kept in a file."""
    from symsense import cli

    with open(stdout_name, "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"symsense {argv[0]} exited with code {code}")


def record_row(index: int, rec) -> dict:
    """A reference TrajectoryRecord in the row format of the protocol1 JSONL."""
    return {
        "index": index,
        "flag": bool(rec.flag),
        "invalid_regime": bool(rec.invalid_regime),
        "counts": rec.counts.tolist(),
        "Phi": float(rec.Phi),
        "dPhi_dtheta": float(rec.dPhi_dtheta),
        "final_amp_a": float(rec.final_amp_a),
        "fisher_information": float(rec.fisher_information),
        "n_deletions": int(rec.n_deletions),
        "final_shift": int(rec.final_shift),
    }


def _branches(result) -> dict:
    return {"weights": [br.weight for br in result], "pruned_mass": result.pruned_mass}


def prepare_protocol1(seed: int):
    import symsense.cli  # noqa: F401  (import is part of set-up)

    argv = protocol1_argv(seed)
    return lambda: run_cli(argv, "protocol1.out")


def prepare_verify(seed: int):
    # run_verification fixes its own rng, so the seed has no effect here
    import symsense.cli  # noqa: F401
    import symsense.verify  # noqa: F401

    return lambda: run_cli(["verify"], "verify.out")


def prepare_dicke(seed: int):
    import numpy as np

    from symsense import noise, protocols
    from symsense.symcore import SymState

    psi = SymState.random(DICKE_N, np.random.default_rng([seed, 0]))
    indices = reference_indices(seed)
    config = protocol_config(seed)

    def body():
        run_cli(["ad", *CODE_FLAGS, "--gamma-max", "0.3", "--steps", "11", "--out", "ad.csv"],
                "ad.out")
        channels = {
            "amplitude_damp": _branches(noise.amplitude_damp(psi, 0.1)),
            "delete": _branches(noise.delete(psi, 4)),
        }
        rows = [
            record_row(i, protocols.run_protocol1(config, protocols.trajectory_rng(seed, i)))
            for i in indices
        ]
        run_cli(["fi-scan", *CODE_FLAGS, "--steps", "2001", "--out", "fi.csv"], "fi-scan.out")
        run_cli(["delete", *CODE_FLAGS, "--t", "2", "--out", "delete.csv"], "delete.out")
        run_cli(["qec-delete", "--g", "5", "--n", "5", "--u", "6/5", "--s", "4", "--t", "2"],
                "qec-delete.out")
        run_cli(["polytope", "--out", "polytope.csv"], "polytope.out")
        run_cli(["fqec-scan", "--out", "fqec.csv"], "fqec-scan.out")
        run_cli(["protocol3", "--k", "60"], "protocol3.out")
        with open("channels.json", "w") as fh:
            json.dump(channels, fh)
        with open("reference.jsonl", "w") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)

    return body


PREPARE = {
    "protocol1": prepare_protocol1,
    "verify": prepare_verify,
    "dicke": prepare_dicke,
}
