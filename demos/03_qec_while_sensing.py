"""One round of QEC while the signal accumulates, then full protocol trajectories.

The projective round distinguishes the codespace (syn = 0, phase zeta_0) from
the Jz-displaced q-space (syn = 1, phase zeta_1); a deletion in the round makes
the phases the arguments of the exact sandwich ratios u_syn.  The script prints
the per-round phase menu, runs single trajectories, and finishes with a batch
whose empirical mean Fisher information is compared to the exact analytic
expectation over the same sector (at most one syndrome-1 round, none without
a deletion).

The body runs only under ``__main__``: the batch runs on a process pool, and
the spawn and forkserver start methods import this module again in every
worker.
"""

from fractions import Fraction

import numpy as np

from symsense.codes import GnuParams, Label, make_logical
from symsense.protocols import (
    ProtocolConfig,
    expected_fi_p1,
    run_protocol1,
    run_protocol1_batch,
    trajectory_rng,
)
from symsense.qec import phase_formulas, qec_sense
from symsense.symcore import apply_signal


def main() -> None:
    # --- one QEC round by hand ---------------------------------------------
    params = GnuParams(g=8, n=3, u=Fraction(22, 3), s=12)  # N = 188
    delta = 0.02
    pf = phase_formulas(params, delta, sigma=0)
    print(f"per-round phases at g*Delta = {params.g * delta}:")
    print(f"  no deletion: zeta_0 = {pf.zeta0:+.3e} (prob ~1), zeta_1 = {pf.zeta1:+.3e}")
    print(f"  deletion sigma=0: phi_10 = {pf.phi10:+.3e}, phi_11 = {pf.phi11:+.3e}, "
          f"|u_0| = {abs(pf.u0):.6f}")

    plus = make_logical(params, Label.PLUS)
    res = qec_sense(apply_signal(plus, delta), params, np.random.default_rng(1))
    print(f"one round on the evolved probe: syn={res.syn}, flag={res.flag}, "
          f"shift {params.s} -> {res.new_shift}")

    # --- trajectories --------------------------------------------------------
    N = 2000
    g, n = 40, 3
    s = (N - g * n) // 2  # maintain s = N/2 - gn/2
    cfg = ProtocolConfig(
        GnuParams(g, n, Fraction(N - s, g * n), s),
        r=32, q=1.5, theta=1e-3,
        n_del=0.02 / (N * 32.0**-1.5),  # lambda = 0.02 expected deletions per round
        seed=7,
    )
    print(f"\nprotocol config: N={N}, g={g}, r={cfg.r}, tau={cfg.tau:.4e}, "
          f"union failure bound {cfg.failure_bound():.3f}")

    for idx in range(3):
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        print(f"  trajectory {idx}: counts {rec.counts.tolist()}, "
              f"Phi = {rec.Phi:+.3e}, dPhi/dtheta = {rec.dPhi_dtheta:+.3e}, "
              f"F = {rec.fisher_information:.3e}")

    batch = run_protocol1_batch(cfg, 100_000)
    summary = batch.summary()
    ana = expected_fi_p1(cfg, include_nodel_syn1=False, max_total_syn1=1)
    print(f"\n100k trajectories: mean F = {summary['mean_FI']:.4g} "
          f"(se {summary['se_FI']:.2g}), failure rate {summary['p_flag_emp']:.4f}")
    print(f"analytic, exact (same sector): {ana['mean_fi']:.4g} -> "
          f"ratio {summary['mean_FI'] / ana['mean_fi']:.3f}")

    # --- the cubic-coefficient arbitration ----------------------------------
    cfg0 = ProtocolConfig(cfg.params, cfg.r, cfg.q, cfg.theta, 0.0, seed=7)
    f0 = run_protocol1_batch(cfg0, 100).mean_fi()
    quarter = expected_fi_p1(cfg0)["r2_formula_quarter"]
    print(f"\nno-deletion run: F = {f0:.6g}; (9/16) r^2 g^6 tau^6 theta^4 = {quarter:.6g} "
          f"(ratio {f0 / quarter:.6f}); the -1/8-coefficient variant would be 4x smaller")


if __name__ == "__main__":
    main()
