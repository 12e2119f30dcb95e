"""QFI, SLD decomposition, and readout Fisher information."""

import math
from fractions import Fraction

import numpy as np
import pytest

from symsense.codes import GnuParams, Label, make_logical
from symsense.metrology import SLDDecomposition, fi_code_basis, fi_phase_readout, qfi_pure, sld
from symsense.symcore import SymState, apply_signal

from dicke import dicke_state


def test_qfi_of_plus_probe_sweep():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = int(rng.integers(1, 51))
        n = int(rng.integers(1, 16))
        s = int(rng.integers(0, 101))
        params = GnuParams(g, n, Fraction(1), s)
        got = qfi_pure(make_logical(params, Label.PLUS))
        assert abs(got - g * g * n) <= 1e-10 * g * g * n


@pytest.mark.parametrize(
    "g, n, u, s",
    [(40, 3, Fraction(53, 6), 940), (100, 3, Fraction(10), 3000), (178, 3, Fraction(187), 49000)],
)
def test_qfi_of_plus_probe_at_large_n_is_g2n_to_rounding(g, n, u, s):
    # N = 2000, 6000 and 148858: the variance as m2 - m1^2 loses 2e-13 to
    # 4e-11 of g^2 n to cancellation; the centred moment keeps it to rounding
    got = qfi_pure(make_logical(GnuParams(g, n, u, s), Label.PLUS))
    assert abs(got - g * g * n) <= 1e-15 * g * g * n


def test_qfi_dicke_and_ghz():
    assert qfi_pure(dicke_state(10, 3)) == 0.0
    N = 64
    ghz = make_logical(GnuParams(N, 1, Fraction(1), 0), Label.PLUS)
    assert abs(qfi_pure(ghz) - N * N) < 1e-10 * N * N


def test_sld_single_qubit_by_hand():
    amps = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    dec = sld(SymState(1, amps))
    # b = (|D1_1> - |D1_0>)/sqrt(2), eigenvalues +-2 sqrt(1/4) = +-1
    want_b = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(dec.b_vector.amps, want_b)
    assert abs(dec.eigval_plus - 1.0) < 1e-14
    assert abs(dec.eigval_minus + 1.0) < 1e-14


def _sld_matrix(dec: SLDDecomposition) -> np.ndarray:
    """The dense (N+1)x(N+1) SLD on the Dicke block, from its rank-two spectral form."""
    ep, em = dec.eigvec_plus.amps, dec.eigvec_minus.amps
    return dec.eigval_plus * np.outer(ep, ep.conj()) + dec.eigval_minus * np.outer(em, em.conj())


def test_sld_eigvecs_orthonormal():
    rng = np.random.default_rng(3)
    psi = SymState.random(9, rng)
    dec = sld(psi)
    assert abs(dec.eigvec_plus.inner(dec.eigvec_minus)) < 1e-12
    assert abs(dec.eigvec_plus.norm_sq() - 1.0) < 1e-12
    # <psi|L^2|psi> equals the QFI
    L = _sld_matrix(dec)
    val = np.vdot(psi.amps, L @ (L @ psi.amps)).real
    assert abs(val - qfi_pure(psi)) < 1e-9 * max(1.0, val)


def _lyapunov_residual(psi: SymState) -> float:
    """|| -i[Jz, rho] - (L rho + rho L)/2 ||_max on the Dicke block."""
    N = psi.n_qubits
    jz = np.diag(0.5 * N - np.arange(N + 1)).astype(complex)
    rho = np.outer(psi.amps, psi.amps.conj())
    drho = -1j * (jz @ rho - rho @ jz)
    L = _sld_matrix(sld(psi))
    return float(np.max(np.abs(drho - 0.5 * (L @ rho + rho @ L))))


def test_sld_solves_lyapunov_equation():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(2, 33))
        worst = max(worst, _lyapunov_residual(SymState.random(N, rng)))
    assert worst < 1e-9


def test_sld_vs_finite_difference_derivative():
    rng = np.random.default_rng(5)
    psi = SymState.random(6, rng)
    h = 1e-6
    rho_p = np.outer(apply_signal(psi, h).amps, apply_signal(psi, h).amps.conj())
    rho_m = np.outer(apply_signal(psi, -h).amps, apply_signal(psi, -h).amps.conj())
    drho_fd = (rho_p - rho_m) / (2 * h)
    rho = np.outer(psi.amps, psi.amps.conj())
    L = _sld_matrix(sld(psi))
    assert np.max(np.abs(drho_fd - 0.5 * (L @ rho + rho @ L))) < 1e-6


def test_sld_rejects_zero_variance():
    with pytest.raises(ValueError):
        sld(dicke_state(5, 2))


def test_fi_code_basis_n1_saturates_qfi():
    params = GnuParams(7, 1, Fraction(1), 0)
    for theta in np.linspace(-0.4, 0.4, 11):
        f2, f3 = fi_code_basis(params, float(theta))
        assert abs(f2 - 49.0) < 1e-9
        assert abs(f3 - 49.0) < 1e-9


def test_fi_code_basis_zero_at_origin():
    params = GnuParams(6, 4, Fraction(1), 0)
    f2, f3 = fi_code_basis(params, 0.0)
    assert f2 == 0.0
    # the leak outcome recovers the full QFI in the theta -> 0 limit
    assert abs(f3 - params.g**2 * params.n) < 1e-9


def test_fi_code_basis_data_processing():
    params = GnuParams(20, 5, Fraction(1), 0)
    qfi = 20**2 * 5
    ratios = []
    for theta in np.linspace(1e-4, math.pi / 20, 60):
        f2, f3 = fi_code_basis(params, float(theta))
        assert f2 <= f3 + 1e-9
        assert f3 <= qfi + 1e-9
        ratios.append(f2 / qfi)
    assert max(ratios) < 1.0


@pytest.mark.parametrize("theta", [1e-8, 3e-9])
def test_fi_code_basis_three_outcome_small_theta(theta):
    # the leak probability 1 - p+ - p- is summed as a binomial tail; the
    # subtraction form gave 2001.6 and 2026.6 here against the limit g^2 n
    _, f3 = fi_code_basis(GnuParams(20, 5, Fraction(1), 0), theta)
    assert abs(f3 - 2000.0) <= 1e-6


def test_fi_code_basis_suppression_with_n():
    # peak FI/QFI ratio decreases as the binomial width n grows (g fixed)
    peaks = []
    for n in (3, 5, 7, 9):
        params = GnuParams(20, n, Fraction(1), 0)
        qfi = 400 * n
        best = max(
            fi_code_basis(params, float(t))[0] / qfi
            for t in np.linspace(1e-4, math.pi / 20, 200)
        )
        peaks.append(best)
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_fi_code_basis_rejects_n_past_the_float_range_of_the_binomials():
    assert all(map(math.isfinite, fi_code_basis(GnuParams(1, 1029), 0.1)))
    with pytest.raises(ValueError, match="got n = 1030"):
        fi_code_basis(GnuParams(1, 1030), 0.1)


def test_fi_phase_readout_special_points():
    assert fi_phase_readout(math.pi / 4, 0.7, 3.0) == pytest.approx(9.0, abs=1e-12)
    assert fi_phase_readout(math.pi / 4, 0.0, 5.0) == pytest.approx(25.0, abs=1e-12)
    assert fi_phase_readout(0.0, 0.3, 2.0) == 0.0


@pytest.mark.parametrize("offset, want", [(1e-8, 0.2), (3e-9, 1.0 / 1.36)])
def test_fi_phase_readout_without_cancellation_near_pi_4(offset, want):
    # at phi = pi/4 + d, Phi = 1e-8 the prefactor is
    # sin^2 Phi / (sin^2 2d + sin^2 Phi) = 1e-16 / (4 d^2 + 1e-16)
    got = fi_phase_readout(math.pi / 4 + offset, 1e-8, 1.0)
    assert got == pytest.approx(want, rel=1e-6)
    rows = fi_phase_readout(np.array([math.pi / 4 + offset, 0.3]), np.array([1e-8, 0.2]), 2.0)
    assert rows.tolist() == [4.0 * got, fi_phase_readout(0.3, 0.2, 2.0)]


def test_fi_phase_readout_pi_4_floor():
    # phi within its own rounding of pi/4 is pi/4: prefactor 1 even at Phi = 0
    for phi in (math.nextafter(math.pi / 4, 0.0), math.nextafter(math.pi / 4, 1.0)):
        assert fi_phase_readout(phi, 0.0, 5.0) == 25.0
    assert fi_phase_readout(math.pi / 4 + 1e-12, 0.0, 5.0) == 0.0


def test_fi_phase_readout_vs_finite_difference():
    # binary outcome distribution p± = (1 ± sin(2 phi) cos(Phi))/2 with
    # Phi(theta) linear: FI by finite differences matches the closed form
    phi, Phi0, slope = math.pi / 4 + 0.05, 0.3, 2.0
    h = 1e-6

    def probs(theta):
        Phi = Phi0 + slope * theta
        p_plus = 0.5 * (1 + math.sin(2 * phi) * math.cos(Phi))
        return p_plus, 1.0 - p_plus

    fi = 0.0
    for i in (0, 1):
        dp = (probs(h)[i] - probs(-h)[i]) / (2 * h)
        fi += dp * dp / probs(0.0)[i]
    got = fi_phase_readout(phi, Phi0, slope)
    assert abs(got - fi) < 1e-6 * fi
