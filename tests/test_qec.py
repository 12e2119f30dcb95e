"""Modulo measurement, deletion QEC, QEC while sensing, and phase formulas."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from symsense.codes import GnuParams, Label, logical_pair, make_logical
from symsense.metrology import qfi_pure
from symsense.noise import delete
from symsense.qec import (
    bound_checkers,
    code_frame,
    deleted_codewords,
    deletion_qec,
    jz_apply,
    modulo_branches,
    modulo_meas,
    pflag_closed_form,
    phase_formulas,
    phi11_ratio,
    project_syndrome,
    q_vectors,
    qec_sense,
    qec_sense_probabilities,
    teleport_decode,
    zeta,
    zeta_derivative,
)
from symsense.symcore import SymState, apply_signal
from symsense.verify import projection_deviation

from dicke import dicke_state


# ---------------------------------------------------------------------------
# modulo measurement
# ---------------------------------------------------------------------------


def test_modulo_trivial_modulus():
    rng = np.random.default_rng(0)
    psi = SymState.random(6, rng)
    out = modulo_meas(psi, 1, rng)
    assert out.residue == 0
    assert abs(out.probability - 1.0) < 1e-14
    assert np.allclose(out.post_state.amps, psi.amps)


def test_modulo_three_weight_example():
    amps = np.zeros(6, dtype=complex)
    amps[0] = amps[2] = amps[3] = 1 / math.sqrt(3)
    branches = {b.residue: b for b in modulo_branches(SymState(5, amps), 2)}
    assert abs(branches[0].probability - 2 / 3) < 1e-14
    assert abs(branches[1].probability - 1 / 3) < 1e-14
    assert abs(abs(branches[0].post_state.amps[0]) - 1 / math.sqrt(2)) < 1e-14
    assert abs(abs(branches[1].post_state.amps[3]) - 1.0) < 1e-14


def test_modulo_codeword_deterministic():
    params = GnuParams(5, 3, Fraction(2), 7)
    plus = make_logical(params, Label.PLUS)
    branches = modulo_branches(plus, params.g)
    assert len(branches) == 1
    assert branches[0].residue == params.s % params.g


# ---------------------------------------------------------------------------
# deletion QEC
# ---------------------------------------------------------------------------


def test_deletion_qec_t0_identity():
    params = GnuParams(3, 3, Fraction(1), 2)
    plus = make_logical(params, Label.PLUS)
    corrected, a = deletion_qec(plus, params, 0)
    assert a == 0
    assert np.allclose(corrected.amps, plus.amps)


def test_deletion_qec_single_deletion_branches():
    # u > 1 so the one-qubit-smaller code still fits its top codeword weight
    params = GnuParams(3, 3, Fraction(4, 3), 2)  # N = 14
    plus = make_logical(params, Label.PLUS)
    for br in delete(plus, 1):
        corrected, a = deletion_qec(br.state, params, 1)
        assert a == br.shift
        small = params.with_shift(params.s - a, params.n_qubits - 1)
        ideal = make_logical(small, Label.PLUS)
        fid = abs(corrected.inner(ideal)) ** 2
        assert fid > 0.99  # amplitude distortion is O(g sqrt(n)/N)
        # post-QEC state is exactly in the smaller codespace
        cw0, cw1 = logical_pair(small)
        leak = 1 - abs(cw0.inner(corrected)) ** 2 - abs(cw1.inner(corrected)) ** 2
        assert abs(leak) < 1e-12
        # and its QFI equals the smaller code's g^2 n despite the distortion
        assert abs(qfi_pure(corrected) - params.g**2 * params.n) < 1e-8


def test_deletion_qec_rejects_inconsistent_residue():
    params = GnuParams(5, 5, Fraction(1), 4)
    rogue = dicke_state(params.n_qubits - 1, params.s - 3)
    with pytest.raises(ValueError):
        deletion_qec(rogue, params, 1)


# ---------------------------------------------------------------------------
# QEC while sensing
# ---------------------------------------------------------------------------


def test_qec_sense_completeness():
    rng = np.random.default_rng(3)
    for n in (3, 5, 7):
        params = GnuParams(3, n, Fraction(2), 2)
        cw0, cw1 = logical_pair(params)
        for _ in range(5):
            a = rng.random()
            b = math.sqrt(1 - a * a)
            psi = apply_signal(
                SymState(params.n_qubits, a * cw0.amps + b * cw1.amps), rng.uniform(0, 0.5)
            )
            p0, p1, pf = qec_sense_probabilities(psi, params)
            assert abs(p0 + p1 + pf - 1.0) < 1e-12


def test_pflag_is_the_residual_norm_outside_code_and_q_spaces():
    # on the N = 12 (3, 3) code the residue-0 weights 0, 3, .., 12 leave one
    # direction orthogonal to the codewords and q-vectors; 1 - p_code - p_q
    # cancels a leak of 1e-20 there to nothing
    params = GnuParams(3, 3, Fraction(1), 3)
    basis = [*logical_pair(params), *q_vectors(params)[:2]]
    for cw in basis[:2]:
        assert qec_sense_probabilities(cw, params)[2] == 0.0
    leak = np.zeros(params.n_qubits + 1, dtype=complex)
    leak[0] = 1.0
    for v in basis:
        leak -= np.vdot(v.amps, leak) * v.amps
    leak /= np.linalg.norm(leak)
    plus = make_logical(params, Label.PLUS)
    psi = SymState(params.n_qubits, math.sqrt(1.0 - 1e-20) * plus.amps + 1e-10 * leak)
    p0, p1, pf = qec_sense_probabilities(psi, params)
    assert pf == pytest.approx(1e-20, rel=1e-6)
    assert p0 == pytest.approx(1.0, abs=1e-15) and p1 < 1e-30


def test_pflag_zero_for_n3():
    params = GnuParams(4, 3, Fraction(3), 1)
    plus = make_logical(params, Label.PLUS)
    for delta in (0.01, 0.3, 1.0):
        p0, p1, pf = qec_sense_probabilities(apply_signal(plus, delta), params)
        assert pflag_closed_form(3, 0.5 * params.g * delta)[2] == 0.0
        assert abs(pf) < 1e-12
        assert abs(p0 + p1 - 1.0) < 1e-12


def test_pflag_n5_quarter_pi():
    # x = pi/4 at n=5: p_flag = (C(5,2)+C(5,3))/2^5 = 0.625
    _, _, pf = pflag_closed_form(5, math.pi / 4)
    assert abs(pf - 0.625) < 1e-14
    params = GnuParams(2, 5, Fraction(3), 0)
    plus = make_logical(params, Label.PLUS)
    delta = math.pi / 2 / params.g
    _, _, pf_num = qec_sense_probabilities(apply_signal(plus, delta), params)
    assert abs(pf_num - 0.625) < 1e-12


def test_pflag_rejects_n_past_the_float_range_of_the_binomials():
    assert all(map(math.isfinite, pflag_closed_form(1029, 0.1)))
    with pytest.raises(ValueError, match="got n = 1031"):
        pflag_closed_form(1031, 0.1)


def test_projection_probabilities_closed_forms_grid():
    rng = np.random.default_rng(9)
    for n in (3, 5, 7):
        params = GnuParams(3, n, Fraction(2), 1)
        for x in np.linspace(0.05, 1.5, 10):
            for _ in range(3):
                a = rng.random()
                b = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * math.sqrt(1 - a * a)
                # probabilities are independent of the logical amplitudes
                assert projection_deviation(params, x, a, b) < 1e-10


def test_q_vector_norm_and_jz_overlap():
    for g, n, u, s in ((3, 3, Fraction(1), 0), (5, 7, Fraction(2), 3), (2, 9, Fraction(4), 1)):
        params = GnuParams(g, n, u, s)
        q0, q1, nsq = q_vectors(params)
        assert abs(nsq - g * g * n / 4.0) < 1e-10 * max(1.0, g * g * n / 4.0)
        cw0, cw1 = logical_pair(params)
        for q, cw in ((q0, cw0), (q1, cw1)):
            assert abs(q.inner(cw)) < 1e-12
            got = q.inner(jz_apply(cw)).real * math.sqrt(nsq)
            assert abs(got - g * g * n / 4.0) < 1e-10 * max(1.0, g * g * n / 4.0)


def test_q_vectors_built_once_and_read_only():
    params = GnuParams(5, 7, Fraction(2), 3)
    first = q_vectors(params)
    assert q_vectors(GnuParams(5, 7, 2, 3)) is first
    for q in first[:2]:
        assert not q.amps.flags.writeable


def test_code_frame_built_once_read_only_and_shared_with_the_codewords():
    params = GnuParams(5, 7, Fraction(2), 3)
    frame = code_frame(params)
    assert code_frame(GnuParams(5, 7, 2, 3)) is frame
    cw0, cw1 = logical_pair(params)
    q0, q1, _ = q_vectors(params)
    assert all(v is s.amps for v, s in zip(frame.basis, (cw0, cw1, q0, q1)))
    assert np.array_equal(frame.lattice, params.weight_lattice())
    for arr, cw in zip(frame.cw_on_lattice, (cw0, cw1)):
        assert np.array_equal(arr, cw.amps[frame.lattice])
    for arr in (frame.lattice, *frame.cw_on_lattice):
        assert not arr.flags.writeable


def test_project_syndrome_splits_the_unit_interval_by_syndrome_weight():
    # n = 5 leaks out of codespace + q-space, so all three outcomes have weight
    params = GnuParams(3, 5, Fraction(1), 2)
    frame = code_frame(params)
    psi = apply_signal(make_logical(params, Label.PLUS), 0.4)
    p0, p1, pf = qec_sense_probabilities(psi, params)
    assert min(p0, p1, pf) > 1e-3
    syn, c0, c1, p = project_syndrome(frame, psi.amps, 0.0)
    assert (syn, p) == (0, p0) and (c0, c1) == tuple(cw.inner(psi) for cw in logical_pair(params))
    assert project_syndrome(frame, psi.amps, p0 * (1 - 1e-12))[0] == 0
    syn, c0, c1, p = project_syndrome(frame, psi.amps, p0)
    assert (syn, p) == (1, p1) and (c0, c1) == tuple(q.inner(psi) for q in q_vectors(params)[:2])
    assert project_syndrome(frame, psi.amps, p0 + p1) == (-1, 0j, 0j, pf)


def test_qU_norm_sandwich_closed_form():
    # |<q_j|U|j_L>|^2 = (n/4) sin^2(2x) (sin^(2n-4) x + cos^(2n-4) x)
    for n in (3, 5, 7):
        params = GnuParams(4, n, Fraction(2), 2)
        cw0, cw1 = logical_pair(params)
        q0, q1, _ = q_vectors(params)
        for x in np.linspace(0.1, 1.4, 8):
            delta = 2 * x / params.g
            want = 0.25 * n * math.sin(2 * x) ** 2 * (
                math.sin(x) ** (2 * n - 4) + math.cos(x) ** (2 * n - 4)
            )
            for q, cw in ((q0, cw0), (q1, cw1)):
                got = abs(q.inner(apply_signal(cw, delta))) ** 2
                assert abs(got - want) < 1e-10


def test_qec_sense_outcomes_and_phases_no_deletion():
    # sample until both syndromes are seen; check exact post-state phases
    params = GnuParams(4, 3, Fraction(3), 1)
    plus = make_logical(params, Label.PLUS)
    delta = 0.25  # x = 0.5: P[syn=1] ~ 0.5
    evolved = apply_signal(plus, delta)
    pf = phase_formulas(params, delta)
    seen = set()
    cw0, cw1 = logical_pair(params)
    for seed in range(60):
        res = qec_sense(evolved, params, np.random.default_rng(seed))
        assert res.flag == 0  # n = 3 never flags without deletions
        assert res.new_shift == params.s
        seen.add(res.syn)
        got = cmath.phase(cw1.inner(res.post_state) / cw0.inner(res.post_state))
        want = pf.zeta0 if res.syn == 0 else pf.zeta1
        assert abs(got - want) < 1e-12
        if seen == {0, 1}:
            break
    assert seen == {0, 1}


def test_qec_sense_one_deletion_post_state():
    params = GnuParams(3, 3, Fraction(31, 9), 9)  # N = 40
    a, b = 0.6, 0.8
    cw0, cw1 = logical_pair(params)
    psi = SymState(params.n_qubits, a * cw0.amps + b * cw1.amps)
    delta = 0.04
    for br in delete(psi, 1):
        evolved = apply_signal(br.state, delta)
        pf = phase_formulas(params, delta, sigma=br.shift)
        small = params.with_shift(params.s - br.shift, params.n_qubits - 1)
        s0, s1 = logical_pair(small)
        for seed in range(40):
            res = qec_sense(evolved, params, np.random.default_rng(seed))
            if res.flag:
                continue
            assert res.new_shift == params.s - br.shift
            u = pf.u0 if res.syn == 0 else pf.u1
            c0, c1 = s0.inner(res.post_state), s1.inner(res.post_state)
            # amplitude: a_{1,syn} = a / sqrt(a^2 + b^2 |u|^2); phase: arg u
            want_a = a / math.sqrt(a * a + b * b * abs(u) ** 2)
            assert abs(abs(c0) - want_a) < 1e-12
            assert abs(cmath.phase(c1 / c0) - cmath.phase(u)) < 1e-12


def test_qec_sense_flags_a_shifted_code_that_no_longer_fits():
    # GnuParams(2, 3, 1, 0) has no spare qubit: after one deletion neither
    # shift leaves a code (u < 1 at sigma = 0, s < 0 at sigma = 1)
    params = GnuParams(2, 3, Fraction(1), 0)
    for br in delete(make_logical(params, Label.PLUS), 1):
        evolved = apply_signal(br.state, 0.1)
        for seed in range(10):
            res = qec_sense(evolved, params, np.random.default_rng(seed))
            assert (res.syn, res.flag) == (-1, 1)
            assert res.new_shift == params.s - br.shift
        p0, p1, pf = qec_sense_probabilities(evolved, params)
        assert (p0, p1) == (0.0, 0.0)
        assert abs(p0 + p1 + pf - 1.0) < 1e-12
    # one spare qubit: sigma = 0 still fits, so only the sigma = 1 mass is unfit
    params = GnuParams(2, 3, Fraction(7, 6), 0)
    branches = delete(make_logical(params, Label.PLUS), 1)
    amps = sum(math.sqrt(br.weight) * br.state.amps for br in branches)
    mixed = apply_signal(SymState(params.n_qubits - 1, amps), 0.1)
    p0, p1, pf = qec_sense_probabilities(mixed, params)
    assert abs(p0 + p1 + pf - 1.0) < 1e-12
    assert abs(pf - sum(br.weight for br in branches if br.shift == 1)) < 1e-12


def test_qec_sense_requires_odd_n():
    params = GnuParams(3, 4, Fraction(1), 0)
    # both round functions also refuse a 13-qubit state on the N = 11 code
    state13 = make_logical(GnuParams(3, 3, Fraction(12, 9), 1), Label.PLUS)
    code11 = GnuParams(3, 3, Fraction(10, 9), 1)
    for state, code in ((make_logical(params, Label.PLUS), params), (state13, code11)):
        with pytest.raises(ValueError):
            qec_sense(state, code, np.random.default_rng(0))
        with pytest.raises(ValueError):
            qec_sense_probabilities(state, code)


# ---------------------------------------------------------------------------
# phase formulas
# ---------------------------------------------------------------------------


def test_zeta_against_exact_sandwich_ratio():
    for n in (3, 5, 7):
        params = GnuParams(5, n, Fraction(2), 4)
        cw0, cw1 = logical_pair(params)
        q0, q1, _ = q_vectors(params)
        for delta in np.linspace(0.01, 0.12, 7):
            r0 = cw1.inner(apply_signal(cw1, float(delta))) / cw0.inner(
                apply_signal(cw0, float(delta))
            )
            r1 = q1.inner(apply_signal(cw1, float(delta))) / q0.inner(
                apply_signal(cw0, float(delta))
            )
            assert abs(r0 - cmath.exp(1j * zeta(params, float(delta), 0))) < 1e-10
            assert abs(r1 - cmath.exp(1j * zeta(params, float(delta), 1))) < 1e-10
            # modulus relation |tan(zeta_j/2)| = |tan x|^(n-2j)
            x = 0.5 * params.g * float(delta)
            for j in (0, 1):
                lhs = abs(math.tan(zeta(params, float(delta), j) / 2))
                assert abs(lhs - abs(math.tan(x)) ** (n - 2 * j)) < 1e-10


def test_zeta1_exact_at_n3():
    params = GnuParams(7, 3, Fraction(2), 0)
    for delta in (0.001, 0.05, 0.2):  # g delta / 2 < pi/2
        assert zeta(params, delta, 1) == pytest.approx(params.g * delta, abs=1e-14)


def test_zeta_derivative_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for n in (3, 5, 7):
        params = GnuParams(5, n, Fraction(2), 4)
        sign_i = (-1) ** ((n - 1) // 2)
        for j in (0, 1):
            def zeta_mp(d):
                return 2 * mp.atan((-1) ** j * sign_i * mp.tan(params.g * d / 2) ** (n - 2 * j))

            for delta in (1e-9, 1e-4, 0.05, 0.2):
                want = mp.diff(zeta_mp, mp.mpf(delta))
                got = zeta_derivative(params, delta, j)
                assert abs(got - want) <= 2e-15 * abs(want), (n, j, delta)


def test_zeta0_cubic_coefficient_series_fit():
    # fit zeta0 = c3 (g delta)^3 + c5 (g delta)^5 + ... : the fitted c3 is -1/4,
    # which disagrees with the stated -1/8 (factor 2 from zeta = 2 arctan(.))
    params = GnuParams(1, 3, Fraction(9), 0)
    xs = np.linspace(0.002, 0.02, 25)
    ys = np.array([zeta(params, float(d), 0) for d in xs])
    coeffs = np.polynomial.polynomial.polyfit(xs**2, ys / xs**3, deg=2)
    c3 = coeffs[0]
    assert abs(c3 - (-0.25)) < 1e-6
    assert abs(c3 - (-0.125)) > 0.12  # decisively not the stated constant


def test_phase_formulas_zero_delta():
    params = GnuParams(4, 3, Fraction(10), 2)
    pf = phase_formulas(params, 0.0, sigma=1)
    assert pf.zeta0 == 0.0 and pf.zeta1 == 0.0
    assert pf.phi10 == 0.0 and pf.phi11 == 0.0
    assert pf.u0.imag == 0.0 and pf.u0.real > 0
    assert pf.u1.imag == 0.0 and pf.u1.real > 0


def test_deleted_codewords_norms():
    # both logical components shrink by the same factor, set by the deletion
    # shift: <j'_0|j'_0> = 1 - s/N - gn/2N and <j'_1|j'_1> = s/N + gn/2N
    # (equal logical weights are what preserve the logical amplitudes)
    params = GnuParams(3, 3, Fraction(31, 9), 9)
    N = params.n_qubits
    z = {0: 1 - params.s / N - params.g * params.n / (2 * N)}
    z[1] = 1.0 - z[0]
    for sigma in (0, 1):
        p0, p1 = deleted_codewords(params, sigma, 1)
        assert abs(p0.norm_sq() - z[sigma]) < 1e-12
        assert abs(p1.norm_sq() - z[sigma]) < 1e-12


# ---------------------------------------------------------------------------
# perturbation bounds and teleportation decode
# ---------------------------------------------------------------------------


def test_bound_checkers_hold_in_assumption_region():
    params = GnuParams(11, 3, Fraction(516, 33), 484)  # N = 1000, s ~ N/2 - gn/2
    for delta in (1e-4, 1e-3, 5e-3):
        for sigma in (0, 1):
            checks = {c.name: c for c in bound_checkers(params, delta, sigma)}
            for name in (
                "u0_modulus",
                "u1_modulus",
                "amplitude_syn0",
                "amplitude_syn1",
                "phi10_vs_zeta0",
                "zeta1_taylor",
                "zeta0_taylor_fitted",
            ):
                assert checks[name].holds, (name, delta, sigma, checks[name])
            # the stated -1/8 cubic constant fails at small g delta: the true
            # zeta0 is -(g delta)^3/4, so the residual is (g delta)^3/8 which
            # overwhelms 52 (g delta)^5
            if params.g * delta < 0.05:
                assert not checks["zeta0_taylor_stated"].holds


def test_bound_checkers_reject_out_of_region():
    params = GnuParams(11, 3, Fraction(516, 33), 484)
    with pytest.raises(ValueError):
        bound_checkers(params, 1.0, 0)  # g delta / 2 > pi/6


def test_phi11_ratio_small_theta_limit():
    # at tau = o(1/N) scales (N Delta << 1) the exact ratio approaches 3,
    # not the stated 4 sqrt 2; see the decisions record
    params = GnuParams(11, 3, Fraction(516, 33), 484)
    val = phi11_ratio(params, 1e-6, 0)
    assert abs(val - 3.0) < 0.05


def test_teleport_decode_examples():
    logical, apply_x = teleport_decode(a=4, j_t_doubled=0, s=0, g=3)
    assert (logical, apply_x) == (1, True)
    logical, apply_x = teleport_decode(a=0, j_t_doubled=0, s=0, g=3)
    assert (logical, apply_x) == (0, False)
    with pytest.raises(ValueError):
        teleport_decode(1, 0, 0, 2)


def test_teleport_decode_zero_set():
    # g = 5: logical-0 residues are {0,1,2} u {8,9}
    g = 5
    zeros = {s for s in range(2 * g) if teleport_decode(s, 0, 0, g)[0] == 0}
    assert zeros == {0, 1, 2, 8, 9}


def test_teleport_decode_half_integer_j():
    # doubled j_T keeps the arithmetic in integers; odd doubled j with even
    # 2(a - s) makes sigma half-integral, which is rejected
    logical, _ = teleport_decode(a=2, j_t_doubled=4, s=1, g=3)
    assert logical in (0, 1)
    with pytest.raises(ValueError):
        teleport_decode(a=2, j_t_doubled=3, s=1, g=3)


def test_modulo_meas_never_samples_zero_probability():
    rng = np.random.default_rng(0)
    amps = np.zeros(9, dtype=complex)
    amps[[0, 3, 6]] = 1 / math.sqrt(3)  # residue 0 mod 3 only
    psi = SymState(8, amps)
    for _ in range(20):
        out = modulo_meas(psi, 3, rng)
        assert out.residue == 0 and out.probability > 0
