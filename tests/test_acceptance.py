"""Acceptance suite: one test per acceptance criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criterion 7's stated phi_11 constant is asserted verbatim and
fails honestly: the exact sandwich ratios (verified against the deletion
channel itself) give phi_11/(g tau theta) -> 3 in the protocol regime, not
4 sqrt 2.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from symsense.codes import GnuParams, Label, logical_pair, make_logical
from symsense.metrology import qfi_pure
from symsense.noise import delete, deletion_qfi
from symsense.optimizer import LPInstance, closed_form_optimum, p2_exponent, solve_lp
from symsense.protocols import (
    ProtocolConfig,
    expected_fi_p1,
    run_protocol1_batch,
    run_protocol3,
)
from symsense.qec import (
    bound_checkers,
    deletion_qec,
    pflag_closed_form,
    phi11_ratio,
    q_vectors,
    zeta,
)
from symsense.symcore import SymState, apply_signal
from symsense.verify import (
    check_general_qec,
    check_kl_gnu,
    check_schur_dimension,
    check_sequential_split,
    check_syt_counts,
    damping_distance,
    deletion_distance,
    projection_deviation,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1. closed-form QFI of the plus probe
# --------------------------------------------------------------------------


def test_criterion1_qfi_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        g = int(rng.integers(1, 51))
        n = int(rng.integers(1, 16))
        s = int(rng.integers(0, 101))
        params = GnuParams(g, n, Fraction(1), s)
        got = qfi_pure(make_logical(params, Label.PLUS).state)
        worst = max(worst, abs(got - g * g * n) / (g * g * n))
    for N in (5, 30, 100):
        ghz = qfi_pure(make_logical(GnuParams(N, 1, Fraction(1), 0), Label.PLUS).state)
        worst = max(worst, abs(ghz - N * N) / (N * N))
    report(1, worst <= 1e-10, f"max relative error {worst:.2e} in {time.time() - t0:.2f}s")


# --------------------------------------------------------------------------
# 2. deletion channel vs dense partial trace
# --------------------------------------------------------------------------


def test_criterion2_deletion_oracle():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    cases = 0
    while cases < 50:
        N = int(rng.integers(2, 11))
        t = int(rng.integers(1, 4))
        if t >= N:
            continue
        worst = max(worst, deletion_distance(SymState.random(N, rng), t))
        cases += 1
    report(2, worst <= 1e-10, f"50 states, max trace distance {worst:.2e} in {time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# 3. amplitude damping vs Kraus strings
# --------------------------------------------------------------------------


def test_criterion3_ad_oracle():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for gamma in (0.05, 0.3, 0.9):
        for N in (5, 8):
            worst = max(worst, damping_distance(SymState.random(N, rng), gamma))
    report(3, worst <= 1e-10, f"max trace distance {worst:.2e} in {time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# 4. QEC before sensing restores the codeword QFI
# --------------------------------------------------------------------------


def test_criterion4_qec_before_sensing():
    # desk-scale instance g = n = 5 with shift >= t and u > 1 so every
    # post-deletion branch has a valid recovery code (N = 34)
    params = GnuParams(5, 5, Fraction(6, 5), 4)
    plus = make_logical(params, Label.PLUS).state
    ideal = params.g**2 * params.n
    N = params.n_qubits
    worst = 0.0
    rows = []
    for t in range(1, 5):
        qec_qfi = 0.0
        for br in delete(plus, t):
            corrected, _ = deletion_qec(br.state, params, t)
            qec_qfi += br.weight * qfi_pure(corrected)
        no_qec = deletion_qfi(params, t)
        worst = max(worst, abs(qec_qfi - ideal))
        rows.append((t, qec_qfi, no_qec))
        assert no_qec <= qec_qfi + 1e-9
        assert no_qec >= N  # quantum advantage survives t deletions
    report(
        4,
        worst <= 1e-8,
        f"post-QEC QFI = {ideal} +- {worst:.1e}; (QFI_qec >= QFI_noqec >= N) at t=1..4 "
        + str([(t, round(a, 3), round(b, 3)) for t, a, b in rows]),
    )


# --------------------------------------------------------------------------
# 5. projection probabilities
# --------------------------------------------------------------------------


def test_criterion5_projection_probabilities():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (3, 5, 7):
        params = GnuParams(3, n, Fraction(2), 1)
        for x in np.linspace(0.02, 1.5, 30):
            for _ in range(10):
                a = rng.random()
                b = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * math.sqrt(1 - a * a)
                worst = max(worst, projection_deviation(params, float(x), a, b))
    # n = 3: the flag sum is empty, identically zero
    exact_zero = pflag_closed_form(3, 0.7)[2] == 0.0
    report(5, worst <= 1e-10 and exact_zero, f"max deviation {worst:.2e}; n=3 p_flag == 0: {exact_zero}")


# --------------------------------------------------------------------------
# 6. phase formulas and the zeta_0 cubic-coefficient arbitration
# --------------------------------------------------------------------------


def test_criterion6_phase_formulas():
    worst = 0.0
    for n in (3, 5, 7):
        params = GnuParams(6, n, Fraction(2), 3)
        cw0, cw1 = logical_pair(params)
        q0, q1, _ = q_vectors(params)
        for delta in np.linspace(0.005, 0.15, 12):
            d = float(delta)
            r0 = cw1.inner(apply_signal(cw1, d)) / cw0.inner(apply_signal(cw0, d))
            r1 = q1.inner(apply_signal(cw1, d)) / q0.inner(apply_signal(cw0, d))
            worst = max(worst, abs(r0 - cmath.exp(1j * zeta(params, d, 0))))
            worst = max(worst, abs(r1 - cmath.exp(1j * zeta(params, d, 1))))
    params3 = GnuParams(9, 3, Fraction(2), 0)
    exact1 = all(zeta(params3, d, 1) == params3.g * d for d in (1e-4, 0.01, 0.1))
    # series fit of the cubic coefficient of zeta_0 in (g delta)
    xs = np.linspace(0.002, 0.02, 25)
    ys = np.array([zeta(GnuParams(1, 3, Fraction(9), 0), float(x), 0) for x in xs])
    c3 = float(np.polynomial.polynomial.polyfit(xs**2, ys / xs**3, deg=2)[0])
    fitted_quarter = abs(c3 - (-0.25)) < 1e-6
    report(
        6,
        worst <= 1e-10 and exact1 and fitted_quarter,
        f"sandwich-ratio deviation {worst:.2e}; zeta1 = g*delta at n=3: {exact1}; "
        f"fitted zeta0 cubic coefficient {c3:.8f} (direct expansion -1/4; "
        f"stated -1/8 is off by the factor 2 of zeta = 2 arctan)",
    )


# --------------------------------------------------------------------------
# 7. single-deletion perturbation bounds; phi_11 constant
# --------------------------------------------------------------------------


def _assumption_grid():
    grid = []
    for g, n, N in ((5, 3, 600), (11, 3, 1000), (17, 3, 1600), (11, 5, 1200), (23, 3, 2400)):
        gn = g * n
        s = (N - gn) // 2
        params = GnuParams(g, n, Fraction(N - s, gn), s)
        for delta in (1e-5, 1e-4, 1e-3, 5e-3):
            if params.g * delta / 2 > math.pi / 6:
                continue
            for sigma in (0, 1):
                grid.append((params, delta, sigma))
    return grid


def test_criterion7_perturbation_bounds():
    grid = _assumption_grid()
    points = 0
    failures = []
    while points < 200:
        for params, delta, sigma in grid:
            checks = {c.name: c for c in bound_checkers(params, delta, sigma)}
            for name in ("u0_modulus", "u1_modulus", "amplitude_syn0", "amplitude_syn1",
                         "phi10_vs_zeta0"):
                if not checks[name].holds:
                    failures.append((params.g, params.n_qubits, delta, sigma, name))
            if params.n == 3 and not checks["zeta1_taylor"].holds:
                failures.append((params.g, params.n_qubits, delta, sigma, "zeta1_taylor"))
            if params.n == 3 and not checks["zeta0_taylor_fitted"].holds:
                failures.append((params.g, params.n_qubits, delta, sigma, "zeta0_fit"))
            points += 1
        if not grid:
            break
    report(7, points >= 200 and not failures, f"{points} grid points, violations: {failures}")


def test_criterion7_phi11_stated_constant():
    # stated criterion: phi_11/(g tau theta) within 15% of 4 sqrt 2 for
    # s = N/2 - gn/2, N >= 500, tau*theta <= 1e-2.  The exact ratio (validated
    # against the deletion channel itself to 1e-15) approaches 3 as
    # tau*theta -> 0 and decays towards 1 once N*tau*theta >~ 1, so this
    # criterion cannot hold; it is asserted verbatim and left to fail honestly.
    params = GnuParams(11, 3, Fraction(516, 33), 484)  # N = 1000
    target = 4 * math.sqrt(2)
    ratios = [phi11_ratio(params, d, sigma) for d in (1e-4, 1e-3, 1e-2) for sigma in (0, 1)]
    ok = all(abs(r / target - 1.0) <= 0.15 for r in ratios)
    report(
        7,
        ok,
        f"phi11/(g tau theta) measured {[round(r, 3) for r in ratios]} vs stated 4*sqrt(2) "
        f"= {target:.3f} (the exact small-angle limit is 3)",
    )


# --------------------------------------------------------------------------
# 8. protocol Monte-Carlo vs the analytic expectation
# --------------------------------------------------------------------------


def _acceptance_config(n_del: float, seed: int = 7) -> ProtocolConfig:
    g, n, N = 40, 3, 2000
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    return ProtocolConfig(params, r=32, q=1.5, theta=1e-3, n_del=n_del, seed=seed)


def test_criterion8_protocol1_monte_carlo():
    t0 = time.time()
    N, tau = 2000, 32.0**-1.5
    cfg = _acceptance_config(n_del=0.02 / (N * tau))  # n_del * N * tau = 0.02 <= 0.05
    n_traj = 400_000
    batch = run_protocol1_batch(cfg, n_traj)

    emp_fail = batch.failure_rate()
    bound = cfg.failure_bound()
    sigma3 = 3 * math.sqrt(max(emp_fail * (1 - emp_fail), 1e-12) / n_traj)
    fail_ok = emp_fail <= bound + sigma3

    # the no-deletion syn=1 sector (prob ~1e-6/trajectory, FI ~ 5e-2 per hit)
    # is unsampleable at any affordable size; both sides exclude it, and the
    # seeded run is verified to contain none of it (same one order higher for
    # multi-spike trajectories)
    sector_ok = batch.nodel_syn1_rounds() == 0
    sector_ok &= int(batch.counts[:, :, 1].sum(axis=1).max()) <= 1
    ana = expected_fi_p1(cfg, include_nodel_syn1=False, max_total_syn1=1)
    mc = batch.mean_fi()
    ratio = mc / ana["mean_fi"]
    fi_ok = abs(ratio - 1.0) <= 0.25

    # cubic-constant arbitration: without deletions every trajectory is
    # deterministic with F = (r dzeta0/dtheta)^2; the -1/4 coefficient predicts
    # (9/16) r^2 g^6 tau^6 theta^4 and the stated -1/8 coefficient a quarter of
    # it.  (The published 37/64 prefactor lands within 3% of 9/16 by accident
    # of its compensating terms.)
    cfg0 = _acceptance_config(n_del=0.0)
    mc0 = run_protocol1_batch(cfg0, 200).mean_fi()
    quarter = expected_fi_p1(cfg0)["r2_formula_quarter"]
    arb_ok = abs(mc0 / quarter - 1.0) <= 0.25
    eighth_variant = quarter / 4.0
    arb_ok &= not (abs(mc0 / eighth_variant - 1.0) <= 0.25)

    report(
        8,
        fail_ok and sector_ok and fi_ok and arb_ok,
        f"{n_traj} trajectories in {time.time() - t0:.0f}s: "
        f"P[fail] {emp_fail:.4f} <= bound {bound:.3f}; "
        f"E[F] {mc:.4g} vs analytic {ana['mean_fi']:.4g} (ratio {ratio:.3f}); "
        f"n_del=0 arbitration F = {mc0:.4g}: {mc0 / quarter:.4f} x (9/16)r^2g^6t^6th^4, "
        f"{mc0 / eighth_variant:.2f} x the -1/8-coefficient variant",
    )


# --------------------------------------------------------------------------
# 9. linear program closed forms and the precision-boosting fixed point
# --------------------------------------------------------------------------


def test_criterion9_linear_program():
    inst = LPInstance(Fraction(1, 2), Fraction(3, 2), 1, 0, 0)
    sol = solve_lp(inst)
    cf = closed_form_optimum(inst)
    exact = sol is not None and (sol[0], sol[1]) == cf == (Fraction(7, 9), Fraction(2, 9))
    p2 = p2_exponent(inst)
    p2_ok = p2 == Fraction(11, 9)

    cs = run_protocol3(0.5, 60, Fraction(3, 2), 0, 0)
    heisenberg = abs(float(cs[-1]) - 1.0) < 1e-6 and all(b > a for a, b in zip(cs, cs[1:]))
    cs_err = run_protocol3(0.5, 60, Fraction(3, 2), Fraction(1, 10), Fraction(1, 10))
    below = float(cs_err[-1]) < 1.0 - 1e-6

    figs = all(
        solve_lp(LPInstance(c, Fraction(3, 2), 1, Fraction(1, 10), Fraction(1, 10))) is not None
        for c in (0, Fraction(1, 10), Fraction(1, 5))
    )
    report(
        9,
        exact and p2_ok and heisenberg and below and figs,
        f"(alpha*, gamma*) = {cf}, p2 exponent = {p2}, protocol-3 fixed point "
        f"{float(cs[-1]):.6f} (errors=0) / {float(cs_err[-1]):.6f} (errors=0.1); "
        f"figure instances feasible: {figs}",
    )


# --------------------------------------------------------------------------
# 10. representation-theory layer
# --------------------------------------------------------------------------


def test_criterion10_representation_theory():
    dims_ok = check_schur_dimension() == 0
    hooks_ok = check_syt_counts() == 0
    split = check_sequential_split()
    split_ok = split < 0.08
    kl = check_kl_gnu()
    kl_ok = kl <= 1e-10
    infid = check_general_qec()
    fid_ok = abs(infid) <= 1e-8

    report(
        10,
        dims_ok and hooks_ok and split_ok and kl_ok and fid_ok,
        f"sum syt*ssyt == 2^N (N<=12): {dims_ok}; hook counts: {hooks_ok}; "
        f"|01> triplet frequency offset {split:.3f}; KL violation {kl:.1e}; "
        f"recovery fidelity 1 - {abs(infid):.1e}",
    )
