"""Tests for the Dicke-basis engine and the exact combinatorics layer."""

import math
from fractions import Fraction

import numpy as np
import pytest

from symsense.fullspace import embed_sym, signal_phases_dense
from symsense.symcore import (
    SymState,
    apply_signal,
    binom,
    binom_exp_sum,
    binom_parity_sum,
    check_float_binomials,
    deletion_ratios,
    falling_factorial,
    jz_moments,
    stirling2,
)

from dicke import dicke_state


def test_apply_signal_identity():
    rng = np.random.default_rng(7)
    psi = SymState.random(5, rng)
    out = apply_signal(psi, 0.0)
    assert np.allclose(out.amps, psi.amps)


def test_apply_signal_single_weight_is_pure_phase():
    psi = dicke_state(1, 0)
    out = apply_signal(psi, math.pi)
    # Jz eigenvalue 1/2: global phase exp(-i pi / 2)
    assert abs(out.amps[0] - np.exp(-0.5j * math.pi)) < 1e-14
    assert abs(abs(psi.inner(out)) - 1.0) < 1e-14


def test_apply_signal_against_dense_unitary_n2():
    # (|D2_0> + |D2_2>)/sqrt(2) under Delta = 0.3: relative phase e^{0.6 i},
    # cross-checked against the full 4x4 exp(-i theta Jz)
    amps = np.zeros(3, dtype=complex)
    amps[0] = amps[2] = 1.0 / math.sqrt(2.0)
    psi = SymState(2, amps)
    out = apply_signal(psi, 0.3)
    ratio = out.amps[2] / out.amps[0]
    assert abs(ratio - np.exp(0.6j)) < 1e-14

    dense_out = signal_phases_dense(2, 0.3) * embed_sym(psi).vec
    assert np.allclose(embed_sym(out).vec, dense_out, atol=1e-14)


@pytest.mark.parametrize("n_qubits", [1, 3, 17, 128, 2048])
def test_apply_signal_unitary(n_qubits):
    rng = np.random.default_rng(n_qubits)
    for _ in range(20):
        psi = SymState.random(n_qubits, rng)
        out = apply_signal(psi, rng.uniform(-10, 10))
        assert abs(out.norm_sq() - 1.0) < 1e-14


def _dense_signal(state, delta):
    """The dense formula: every weight's phase, zero amplitudes included."""
    return state.amps * np.exp(-1j * delta * (0.5 * state.n_qubits - state.weights))


def test_apply_signal_matches_dense_formula_bit_for_bit():
    # the support-only phases equal the dense formula's bytes; only the sign
    # of an exact zero may differ (0 * phase keeps the phase's signs there)
    from symsense.codes import GnuParams, Label, make_logical

    rng = np.random.default_rng(11)
    states = [SymState.random(n, rng) for n in (1, 7, 50)]
    states.append(make_logical(GnuParams(40, 3, Fraction(53, 6), 940), Label.PLUS))
    gappy = SymState.random(30, rng).amps.copy()
    gappy[[0, 3, 4, 17, 29]] = 0.0
    states.append(SymState(30, gappy))
    for psi in states:
        for delta in (1e-3 * 32**-1.5, 0.3, -2.7):
            want = _dense_signal(psi, delta) + 0.0
            got = apply_signal(psi, delta).amps
            assert got.tobytes() == want.tobytes()


def test_apply_signal_composition():
    rng = np.random.default_rng(3)
    psi = SymState.random(40, rng)
    a, b = 0.37, -1.21
    lhs = apply_signal(apply_signal(psi, a), b)
    rhs = apply_signal(psi, a + b)
    assert np.max(np.abs(lhs.amps - rhs.amps)) < 1e-13


def test_every_binomial_fits_a_float_up_to_n_1029():
    assert math.isfinite(float(binom(1029, 514)))
    with pytest.raises(OverflowError):
        float(binom(1030, 515))
    check_float_binomials(1029)
    with pytest.raises(ValueError, match="got n = 1030"):
        check_float_binomials(1030)


def test_jz_moments_eigenstate():
    _, _, var = jz_moments(dicke_state(9, 4))
    assert var == 0.0


def test_jz_moments_two_weight_example():
    amps = np.zeros(3, dtype=complex)
    amps[0] = amps[2] = 1.0 / math.sqrt(2.0)
    m1, m2, var = jz_moments(SymState(2, amps))
    assert abs(m1 - 1.0) < 1e-14
    assert abs(m2 - 2.0) < 1e-14
    assert abs(var - 1.0) < 1e-14


def test_jz_moments_ghz_variance():
    for N in (4, 61, 1000):
        amps = np.zeros(N + 1, dtype=complex)
        amps[0] = amps[N] = 1.0 / math.sqrt(2.0)
        _, _, var = jz_moments(SymState(N, amps))
        assert abs(var - N**2 / 4.0) < 1e-9 * N**2


def test_variance_nonnegative_and_zero_iff_single_weight():
    rng = np.random.default_rng(11)
    for _ in range(50):
        psi = SymState.random(12, rng)
        _, _, var = jz_moments(psi)
        assert var >= 0.0
        assert var > 0.0  # random states have spread support


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def test_stirling_and_falling_factorial():
    assert stirling2(3, 3) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 0) == 0
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 0) == 1
    assert falling_factorial(2, 4) == 0


def test_binom_exact_large():
    assert binom(4096, 2048) == math.comb(4096, 2048)


@pytest.mark.parametrize("N", [200, 2000])
def test_one_deletion_ratios_are_the_correctly_rounded_shares(N):
    weights = np.arange(N + 1)
    keep, lose = deletion_ratios(N, 1, 0, weights), deletion_ratios(N, 1, 1, weights)
    assert keep.tolist() == [float(Fraction(N - w, N)) for w in range(N + 1)]
    assert lose.tolist() == [float(Fraction(w, N)) for w in range(N + 1)]


def test_deletion_ratios_are_the_correctly_rounded_binomial_ratios():
    rng = np.random.default_rng(29)
    for _ in range(100):
        N = int(rng.integers(4, 5000))
        t = int(rng.integers(2, 5))
        w = rng.integers(0, N + 1, size=6)
        for a in range(t + 1):
            want = [float(Fraction(binom(t, a) * binom(N - t, int(x) - a), binom(N, int(x))))
                    if 0 <= x - a <= N - t else 0.0 for x in w]
            assert deletion_ratios(N, t, a, w).tolist() == want, (N, t, a)


def test_binom_parity_sum_examples():
    assert binom_parity_sum(3, 1, "even") == 6
    assert binom_parity_sum(3, 1, "odd") == 6
    assert binom_parity_sum(3, 3, "odd") - binom_parity_sum(3, 3, "even") == 6
    assert binom_parity_sum(0, 0, "even") == 1
    assert binom_parity_sum(0, 0, "odd") == 0


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("s", range(0, 9))
def test_binom_parity_sum_difference_rule(n, s):
    even = binom_parity_sum(n, s, "even")
    odd = binom_parity_sum(n, s, "odd")
    if s < n:
        assert even == odd
    else:
        # even sum is ahead iff n is even
        expected = stirling2(s, n) * math.factorial(n)
        assert even - odd == ((-1) ** n) * expected


def test_binom_exp_sum_s0_closed_form():
    for n in (1, 2, 5, 8):
        for y in (0.0, 0.3, 2.4):
            got = binom_exp_sum(n, 0, y, "even")
            yh = y / 2.0
            want = np.exp(1j * n * yh) * (
                math.cos(yh) ** n + (-1j) ** n * math.sin(yh) ** n
            )
            assert abs(got - want) < 1e-12


def test_binom_exp_sum_trivial_y0():
    for n in (1, 2, 7):
        assert abs(binom_exp_sum(n, 0, 0.0, "even") - 1.0) < 1e-14


def binom_exp_sum_direct(n, s, y, parity):
    """Direct summation reference for binom_exp_sum (same prefactor)."""
    rem = {"even": 0, "odd": 1}[parity]
    total = 0.0 + 0.0j
    for k in range(rem, n + 1, 2):
        ks = k**s if k > 0 else (1 if s == 0 else 0)
        total += binom(n, k) * ks * np.exp(1j * k * y)
    return complex(2.0 ** (1 - n) * total)


def test_binom_exp_sum_example_direct():
    got = binom_exp_sum(3, 2, 0.7, "even")
    want = binom_exp_sum_direct(3, 2, 0.7, "even")
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_binom_exp_sum_matches_direct_sum_grid(parity):
    # closed form vs direct summation, n <= 12, s <= 12, 20 phase values
    ys = np.linspace(-3.0, 3.0, 20)
    for n in range(0, 13):
        for s in range(0, 13):
            for y in ys:
                got = binom_exp_sum(n, s, float(y), parity)
                want = binom_exp_sum_direct(n, s, float(y), parity)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
