"""Codeword construction, sandwich identities and the codeword cache."""

import math
from fractions import Fraction

import numpy as np
import pytest

from symsense import codes
from symsense.codes import (
    GnuParams,
    Label,
    code_projector_overlap,
    lattice_profile,
    logical_pair,
    make_logical,
    plus_weights,
)
from symsense.qec import code_frame, jz_apply
from symsense.symcore import SymState, apply_signal, jz_moments

from dicke import dicke_state


def test_small_codewords_by_hand():
    params = GnuParams(2, 2, Fraction(1), 0)
    zero = make_logical(params, Label.ZERO)
    one = make_logical(params, Label.ONE)
    assert abs(zero.amps[0] - 1 / math.sqrt(2)) < 1e-14
    assert abs(zero.amps[4] - 1 / math.sqrt(2)) < 1e-14
    assert abs(one.amps[2] - 1.0) < 1e-14
    assert np.count_nonzero(one.amps) == 1


def test_ghz_is_g_equals_n_code():
    N = 12
    params = GnuParams(N, 1, Fraction(1), 0)
    plus = make_logical(params, Label.PLUS)
    assert abs(plus.amps[0] - 0.5 * math.sqrt(2)) < 1e-14
    assert abs(plus.amps[N] - 0.5 * math.sqrt(2)) < 1e-14


def test_zero_one_orthogonal():
    for g, n, u, s in ((3, 4, Fraction(1), 2), (5, 3, Fraction(7, 5), 11)):
        zero, one = logical_pair(GnuParams(g, n, u, s))
        assert abs(zero.inner(one)) < 1e-15
        assert abs(zero.norm_sq() - 1.0) <= 1e-12 and abs(one.norm_sq() - 1.0) <= 1e-12


def test_rejects_non_integer_qubit_count():
    with pytest.raises(ValueError):
        GnuParams(3, 3, Fraction(10, 9) * Fraction(10, 9), 0)
    with pytest.raises(ValueError):
        GnuParams(2, 2, Fraction(1, 2), 0)  # u < 1


def test_projector_overlap_plus_state():
    params = GnuParams(4, 3, Fraction(2), 5)
    plus = make_logical(params, Label.PLUS)
    p_plus, p_minus, p_other = code_projector_overlap(params, plus)
    assert abs(p_plus - 1.0) < 1e-13
    assert abs(p_minus) < 1e-13
    assert p_other > -1e-12


def test_projector_overlap_evolved_plus():
    # p+ = cos^4(g Delta / 2), p- = sin^4 for (g=2, n=2): the canonical
    # half-angle convention of U = exp(-i theta Jz)
    params = GnuParams(2, 2, Fraction(1), 0)
    evolved = apply_signal(make_logical(params, Label.PLUS), 0.4)
    p_plus, p_minus, _ = code_projector_overlap(params, evolved)
    assert abs(p_plus - math.cos(0.4) ** 4) < 1e-12
    assert abs(p_minus - math.sin(0.4) ** 4) < 1e-12


def test_projector_overlap_off_lattice_state():
    params = GnuParams(3, 3, Fraction(1), 2)
    rogue = dicke_state(params.n_qubits, params.s + 1)
    p_plus, p_minus, p_other = code_projector_overlap(params, rogue)
    assert p_plus == 0.0 and p_minus == 0.0
    assert abs(p_other - 1.0) < 1e-15


def test_projector_overlap_leakage_without_cancellation():
    # exact codewords leak nothing: the residual is rounding noise, never negative
    params = GnuParams(4, 3, Fraction(2), 5)
    for label in (Label.PLUS, Label.MINUS, Label.ZERO, Label.ONE):
        _, _, p_other = code_projector_overlap(params, make_logical(params, label))
        assert 0.0 <= p_other < 1e-30
    # a true leakage of 1e-20 is resolved, where 1 - p+ - p- would round it away
    plus = make_logical(params, Label.PLUS)
    amps = math.sqrt(1.0 - 1e-20) * plus.amps
    amps[params.s + 1] = 1e-10
    _, _, p_other = code_projector_overlap(params, SymState(params.n_qubits, amps))
    assert p_other == pytest.approx(1e-20, rel=1e-12)


def test_make_logical_built_once_and_read_only():
    params = GnuParams(7, 5, Fraction(3), 11)
    first = make_logical(params, Label.PLUS)
    before = codes._make_logical.cache_info()
    for label in ("plus", "PLUS", Label.PLUS):
        assert make_logical(params, label) is first
    after = codes._make_logical.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
    assert after.currsize == before.currsize
    # shared codewords cannot be changed through any caller
    assert not first.amps.flags.writeable
    with pytest.raises(ValueError):
        first.amps[params.s] = 0.0
    # an equal GnuParams and a string label reach the same cached codeword
    assert make_logical(GnuParams(7, 5, 3, 11), "minus") is make_logical(params, Label.MINUS)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_lattice_profile_is_the_codewords_on_the_lattice(n):
    profile = lattice_profile(n)
    assert lattice_profile(n) is profile and not profile.flags.writeable
    want = [math.sqrt(math.comb(n, k)) * 2.0 ** (-(n - 1) / 2) for k in range(n + 1)]
    assert profile.tolist() == want
    frame = code_frame(GnuParams(3, n, Fraction(2), 1))
    for parity, on_lattice in enumerate(frame.cw_on_lattice):
        assert on_lattice[parity::2].real.tobytes() == profile[parity::2].tobytes()
        assert not on_lattice[1 - parity :: 2].any() and not on_lattice.imag.any()


def test_plus_weights_are_the_exact_binomial_shares_rounded_once():
    assert plus_weights(7) is plus_weights(7) and not plus_weights(7).flags.writeable
    squared_profile = 0
    for n in range(1, 60):
        weights = plus_weights(n)
        assert weights.tolist() == [float(Fraction(math.comb(n, k), 2**n)) for k in range(n + 1)]
        squared_profile += int(np.count_nonzero(weights != lattice_profile(n) ** 2 / 2))
    # the profile's square root, squared, is a second rounding: 426 entries at odd n and
    # 464 at even n (674 while the even-n profile was scaled by an inexact 2^-(n-1)/2)
    assert squared_profile == 890


def test_lattice_helpers_keep_their_bits_where_the_old_float_forms_were_exact():
    binoms = [1]  # row n of Pascal's triangle, exact
    for n in range(1, 1030):
        binoms = [1, *map(sum, zip(binoms, binoms[1:])), 1]
        # the forms of lattice_profile and plus_weights before C(n, k) / 2^(n-1)
        profile = np.array([math.sqrt(c) for c in binoms]) * 2.0 ** (-(n - 1) / 2)
        weights = np.array([2.0**-n * c for c in binoms])
        if n % 2 == 1 or n == 4:  # an exact power-of-two scale
            assert lattice_profile(n).tobytes() == profile.tobytes(), n
        assert plus_weights(n).tobytes() == weights.tobytes(), n


def test_lattice_profile_is_correctly_rounded_at_even_n():
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for n in range(2, 201, 2):
            for k, got in enumerate(lattice_profile(n).tolist()):
                exact = mp.sqrt(mp.binomial(n, k) / mp.mpf(2) ** (n - 1))
                worst = max(worst, float(abs(got - exact) / exact))
    # one rounding of the ratio and one of its root: 1.6e-16 (the old form reached 3.0e-16)
    assert worst <= 2.0**-52


@pytest.mark.parametrize("n", [1030, 1031, 3001])
def test_lattice_helpers_reach_past_the_float_range_of_the_binomials(n):
    profile, weights = lattice_profile(n), plus_weights(n)
    assert np.isfinite(profile).all() and np.isfinite(weights).all()
    for half in (profile[0::2], profile[1::2]):
        assert abs(float(half @ half) - 1.0) < 1e-15
    assert abs(math.fsum(weights.tolist()) - 1.0) < 1e-15


def test_jz_sandwich_identities():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = int(rng.integers(1, 41))
        n = int(rng.integers(3, 16))
        s = int(rng.integers(0, 61))
        params = GnuParams(g, n, Fraction(1), s)
        N = params.n_qubits
        zero, one = logical_pair(params)
        for cw in (zero, one):
            mean = cw.inner(jz_apply(cw)).real
            assert abs(mean - (N / 2 - s - g * n / 2)) < 1e-10 * max(1, abs(mean))
            second = jz_apply(cw).norm_sq()
            want = (N / 2 - s) ** 2 + (2 * s - N) * g * n / 2 + g * g * n * (n + 1) / 4
            assert abs(second - want) < 1e-9 * max(1.0, abs(want))
        plus = make_logical(params, Label.PLUS)
        _, _, var = jz_moments(plus)
        assert abs(var - g * g * n / 4.0) < 1e-10 * max(1.0, g * g * n / 4.0)

