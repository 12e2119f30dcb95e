"""QFI, the symmetric-logarithmic-derivative decomposition, and readout Fisher information."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from symsense.codes import GnuParams
from symsense.symcore import SymState, binom, check_float_binomials, jz_moments


def qfi_pure(state: SymState) -> float:
    """QFI of a normalized pure symmetric state for the exp(-i theta Jz) signal.

    Equals four times the Jz variance; in particular g^2 n for a logical plus
    probe of a shifted gnu code.
    """
    _, _, var = jz_moments(state)
    return 4.0 * var


@dataclass(frozen=True)
class SLDDecomposition:
    """Rank-two spectral form of the SLD for a pure symmetric state.

    ``L = eigval_plus |e+><e+| + eigval_minus |e-><e-|`` with
    ``|e±> = (|psi> ± i |b>)/sqrt(2)`` and eigenvalues ``±2 sqrt(v)``.
    """

    eigvec_plus: SymState
    eigvec_minus: SymState
    eigval_plus: float
    eigval_minus: float
    b_vector: SymState


def sld(state: SymState) -> SLDDecomposition:
    """Spectral decomposition of an SLD solution for a pure symmetric state.

    ``|b>`` is the normalized component of ``w|psi>`` orthogonal to ``|psi>``.
    The eigenvalues are ±2 sqrt(v): this is the only choice for which
    <psi|L^2|psi> reproduces the QFI 4v (a quick check against the 2x2
    Pauli-y reduction of L on span{psi, b}).
    """
    m1, _, var = jz_moments(state)
    if var <= 0.0:
        raise ValueError("SLD direction is undefined for a zero-variance state")
    w = state.weights
    b_amps = (state.amps * w - m1 * state.amps) / math.sqrt(var)
    b = SymState(state.n_qubits, b_amps)
    plus = SymState(state.n_qubits, (state.amps + 1j * b.amps) / math.sqrt(2.0))
    minus = SymState(state.n_qubits, (state.amps - 1j * b.amps) / math.sqrt(2.0))
    lam = 2.0 * math.sqrt(var)
    return SLDDecomposition(plus, minus, lam, -lam, b)


def fi_code_basis(params: GnuParams, theta: float) -> tuple[float, float]:
    """FI of theta from measuring the evolved logical plus probe in the code basis.

    Under the exp(-i theta Jz) signal the outcome probabilities are
    ``p+ = cos^(2n)(g theta/2)`` and ``p- = sin^(2n)(g theta/2)``; the two-outcome
    FI sums (dp/dtheta)^2/p over the plus/minus results, and the three-outcome
    variant also scores the leak outcome 1 - p+ - p-, summed as its binomial
    tail so that it keeps full relative precision at small theta.  Terms at
    probability zeros are returned as their analytic limits (the division
    cancels).  Past n = 1029 the binomial tail is out of float range: ValueError.
    """
    g, n = params.g, params.n
    check_float_binomials(n)
    x = 0.5 * g * theta
    c, s = math.cos(x), math.sin(x)
    # (dp±/dtheta)^2 / p± with the cancellation done symbolically
    fi_plus = (g * n) ** 2 * s**2 * c ** (2 * n - 2)
    fi_minus = (g * n) ** 2 * c**2 * s ** (2 * n - 2)
    fi_two = fi_plus + fi_minus
    if n == 1:
        return fi_two, fi_two  # leak outcome has probability identically zero
    p_other = sum(binom(n, k) * c ** (2 * k) * s ** (2 * (n - k)) for k in range(1, n))
    dp_other = g * n * s * c * (c ** (2 * n - 2) - s ** (2 * n - 2))
    if p_other <= 1e-200:
        # p_other vanishes only at x = 0 mod pi/2, where dp_other^2 / p_other
        # has the finite limit g^2 n (both scale as the square of the offset).
        return fi_two, fi_two + g * g * n
    return fi_two, fi_two + dp_other**2 / p_other


# |cos 2 phi| at or below this is the rounding of phi itself near pi/4 (one
# ulp of phi moves cos 2 phi by 2.2e-16), so such a phi is pi/4
PI_4_COS_FLOOR = 2.0**-51


def fi_phase_readout(phi_amp, Phi, dPhi_dtheta):
    """FI of a plus/minus measurement on cos(phi)|a0> + e^{i Phi} sin(phi)|a1>.

    F = sin^2(2 phi) sin^2(Phi) / (cos^2(2 phi) + sin^2(2 phi) sin^2(Phi)) * (dPhi/dtheta)^2.
    The denominator equals 1 - sin^2(2 phi) cos^2(Phi) but has no cancellation
    near phi = pi/4, Phi = 0.  At phi = pi/4 (to within the rounding of phi,
    see PI_4_COS_FLOOR) the prefactor is identically 1, including the Phi -> 0
    limit where the expression is 0/0, so the FI is (dPhi/dtheta)^2.
    Elementwise over arrays that broadcast; a scalar for scalar inputs.
    """
    phi_amp = np.asarray(phi_amp)
    c2 = np.cos(2.0 * phi_amp)
    num = (np.sin(2.0 * phi_amp) * np.sin(Phi)) ** 2
    pref = np.where(np.abs(c2) <= PI_4_COS_FLOOR, 1.0, num / (c2 * c2 + num))
    return pref * np.asarray(dPhi_dtheta) ** 2
