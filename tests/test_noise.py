"""Deletion and amplitude-damping channels against brute-force oracles."""

import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from symsense import noise, verify
from symsense.codes import GnuParams, Label, make_logical
from symsense.noise import (
    PRUNE_EPS,
    ADOutcome,
    BranchList,
    DeletionOutcome,
    amplitude_damp,
    damping_branch_count,
    delete,
    deletion_qfi,
    ad_qfi_bound,
    _lgamma_table,
)
from symsense.symcore import SymState, binom, jz_moments
from symsense.verify import damping_distance, deletion_distance

from dicke import dicke_state


def test_delete_single_dicke_by_hand():
    # one deletion of |D^2_1>: branches a=0 -> |D^1_1>, a=1 -> |D^1_0>, each 1/2
    outs = delete(dicke_state(2, 1), 1)
    assert len(outs) == 2
    for br in outs:
        assert abs(br.weight - 0.5) < 1e-14
        expected_weight_index = 1 - br.shift
        assert abs(abs(br.state.amps[expected_weight_index]) - 1.0) < 1e-14


def test_delete_all_zeros_product_state():
    outs = delete(dicke_state(8, 0), 1)
    assert len(outs) == 1
    assert outs[0].shift == 0
    assert abs(outs[0].weight - 1.0) < 1e-14
    assert abs(outs[0].state.amps[0] - 1.0) < 1e-14


def test_delete_branches_orthogonal_mod_g():
    params = GnuParams(4, 4, Fraction(1), 3)
    plus = make_logical(params, Label.PLUS)
    outs = delete(plus, 2)
    assert abs(sum(o.weight for o in outs) - 1.0) < 1e-12
    for i, a in enumerate(outs):
        for b in outs[i + 1 :]:
            assert abs(a.state.inner(b.state)) < 1e-14
            # supports are disjoint residue classes mod g
            ra = set(np.nonzero(np.abs(a.state.amps) > 0)[0] % params.g)
            rb = set(np.nonzero(np.abs(b.state.amps) > 0)[0] % params.g)
            assert ra.isdisjoint(rb)


def test_delete_matches_dense_partial_trace():
    rng = np.random.default_rng(31)
    for _ in range(15):
        N = int(rng.integers(3, 9))
        t = int(rng.integers(1, 4))
        if t >= N:
            continue
        assert deletion_distance(SymState.random(N, rng), t) < 1e-12


def test_shared_oracles_catch_a_broken_channel(monkeypatch):
    rng = np.random.default_rng(7)
    psi = SymState.random(6, rng)
    assert deletion_distance(psi, 2) < 1e-12 and damping_distance(psi, 0.3) < 1e-12
    monkeypatch.setattr(verify, "delete", lambda psi, t: delete(psi, t)[:-1])
    assert deletion_distance(psi, 2) > 1e-3
    monkeypatch.setattr(verify, "amplitude_damp", lambda psi, g: amplitude_damp(psi, g / 2))
    assert damping_distance(psi, 0.3) > 1e-3


def test_delete_rejects_bad_t():
    with pytest.raises(ValueError):
        delete(dicke_state(3, 1), 4)
    with pytest.raises(ValueError):
        delete(dicke_state(3, 1), 0)


def test_ad_gamma_zero_identity():
    rng = np.random.default_rng(1)
    psi = SymState.random(6, rng)
    outs = amplitude_damp(psi, 0.0)
    assert len(outs) == 1
    assert outs[0].damped == 0
    assert np.allclose(outs[0].state.amps, psi.amps)


def test_ad_gamma_one_full_decay():
    outs = amplitude_damp(dicke_state(1, 1), 1.0)
    assert len(outs) == 1
    assert outs[0].damped == 1
    assert abs(outs[0].state.amps[0] - 1.0) < 1e-14


def test_ad_small_system_kraus_weights():
    # gamma = 0.3 on (|D2_0> + |D2_2>)/sqrt 2: branch weights by direct Kraus sums
    gamma = 0.3
    amps = np.zeros(3, dtype=complex)
    amps[0] = amps[2] = 1 / math.sqrt(2)
    outs = amplitude_damp(SymState(2, amps), gamma)
    # x=0: |phi_0> = (|D2_0> + (1-gamma)|D2_2>)/sqrt 2, weight (1+(1-g)^2)/2
    # x=1: amplitude sqrt(C(2,1) g (1-g))/sqrt2 on |D1_1>; x=2: gamma^2/2
    by_x = {o.damped: o for o in outs}
    assert abs(by_x[0].weight - 0.5 * (1 + 0.49)) < 1e-12
    assert abs(by_x[1].weight - 0.5 * (2 * 0.3 * 0.7)) < 1e-12
    assert abs(by_x[2].weight - 0.5 * 0.09) < 1e-12
    assert abs(sum(o.weight for o in outs) - 1.0) < 1e-12


def test_deletion_qfi_t0_and_precondition():
    params = GnuParams(5, 7, Fraction(1), 2)
    assert deletion_qfi(params, 0) == 25 * 7
    with pytest.raises(ValueError):
        deletion_qfi(GnuParams(3, 5, Fraction(1), 0), 3)
    with pytest.raises(ValueError):
        deletion_qfi(GnuParams(5, 3, Fraction(1), 0), 3)


def test_deletion_qfi_compositional_oracle():
    # closed-form branch sums vs delete() + jz_moments recomposition
    params = GnuParams(4, 4, Fraction(1), 0)
    plus = make_logical(params, Label.PLUS)
    for t in (1, 2, 3):
        want = 4.0 * sum(br.weight * jz_moments(br.state)[2] for br in delete(plus, t))
        got = deletion_qfi(params, t)
        assert abs(got - want) < 1e-9 * max(1.0, want)


def _deletion_qfi_exact(params, t):
    """deletion_qfi's branch formula in exact rationals, rounded once at the end;
    C(N-t, w-a) / C(N, w) is w_(a) (N-w)_(t-a) / N_(t) in falling factorials."""
    N, n = params.n_qubits, params.n
    lattice = [params.s + params.g * k for k in range(n + 1)]
    total = Fraction(0)
    for a in range(t + 1):
        probs = [Fraction(binom(n, k) * binom(t, a) * math.perm(w, a) * math.perm(N - w, t - a),
                          2**n * math.perm(N, t))
                 for k, w in enumerate(lattice)]
        na = sum(probs)
        m1 = sum(p * w for p, w in zip(probs, lattice)) / na
        total += sum(p * (w - m1) ** 2 for p, w in zip(probs, lattice))
    return float(4 * total)


@pytest.mark.parametrize(
    "params", [GnuParams(40, 3, Fraction(53, 6), 940), GnuParams(178, 3, Fraction(187), 49000)],
    ids=["N2000", "N148858"],
)
def test_deletion_qfi_matches_exact_rationals(params):
    for t in (1, 2):
        want = _deletion_qfi_exact(params, t)
        assert abs(deletion_qfi(params, t) - want) <= 1e-14 * want, t


def test_deletion_qfi_monotonicity_report():
    # monotonicity in t is plausible but not guaranteed; report, never hide
    violations = []
    for g, n, s in ((5, 5, 4), (8, 4, 10), (4, 9, 2)):
        params = GnuParams(g, n, Fraction(2), s)
        values = [deletion_qfi(params, t) for t in range(min(g, n) - 1)]
        for t in range(1, len(values)):
            if values[t] > values[t - 1] * (1 + 1e-12):
                violations.append((g, n, s, t, values[t - 1], values[t]))
    if violations:
        warnings.warn(f"deletion QFI non-monotone at {violations}")


def test_ad_qfi_bound_limits():
    params = GnuParams(3, 3, Fraction(2), 1)
    assert ad_qfi_bound(params, 0.0) == 27.0
    assert abs(ad_qfi_bound(params, 1.0)) < 1e-12
    with pytest.raises(ValueError):
        ad_qfi_bound(params, 1.5)


def test_ad_qfi_bound_compositional_oracle():
    params = GnuParams(3, 3, Fraction(1), 0)
    plus = make_logical(params, Label.PLUS)
    for gamma in (0.1, 0.35):
        want = 4.0 * sum(br.weight * jz_moments(br.state)[2] for br in amplitude_damp(plus, gamma))
        got = ad_qfi_bound(params, gamma)
        assert abs(got - want) < 1e-9 * max(1.0, want)


def test_channel_probability_conservation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        N = int(rng.integers(2, 12))
        psi = SymState.random(N, rng)
        outs = delete(psi, 1)
        assert abs(sum(o.weight for o in outs) + outs.pruned_mass - 1.0) < 1e-12
        outs = amplitude_damp(psi, float(rng.uniform(0.05, 0.95)))
        assert abs(sum(o.weight for o in outs) + outs.pruned_mass - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the support-only channels against the per-weight loops they replace
# ---------------------------------------------------------------------------


def _delete_loop(state, t):
    """Per-weight deletion channel: every (branch, weight) pair in Python, each
    amplitude scaled by the root of C(t,a) C(N-t, w-a) / C(N, w), written as the
    hypergeometric C(w, a) C(N-w, t-a) / C(N, t) and divided as exact integers."""
    N = state.n_qubits
    M = N - t
    outcomes = BranchList()
    for a in range(t + 1):
        amps = np.zeros(M + 1, dtype=complex)
        for w in range(a, M + a + 1):
            if state.amps[w] != 0:
                ratio = binom(w, a) * binom(N - w, t - a) / binom(N, t)
                amps[w - a] = state.amps[w] * math.sqrt(ratio)
        weight = float(np.vdot(amps, amps).real)
        if weight <= PRUNE_EPS:
            outcomes.pruned_mass += weight
            continue
        outcomes.append(DeletionOutcome(a, weight, SymState(M, amps / math.sqrt(weight))))
    return outcomes


def log_binom(n, k):
    """log C(n, k) as an lgamma difference, the damping law's reference."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _amplitude_damp_loop(state, gamma_ad):
    """Per-weight damping channel: all N + 1 branches, every weight in Python."""
    N = state.n_qubits
    outcomes = BranchList()
    for x in range(N + 1):
        amps = np.zeros(N - x + 1, dtype=complex)
        for w in range(x, N + 1):
            if state.amps[w] == 0:
                continue
            if gamma_ad == 0.0:
                if x != 0:
                    continue
                pwx = 1.0 * (1.0 - gamma_ad) ** w
            elif gamma_ad == 1.0:
                pwx = 1.0 if x == w else 0.0
            else:
                log_p = (
                    log_binom(w, x)
                    + x * math.log(gamma_ad)
                    + (w - x) * math.log1p(-gamma_ad)
                )
                pwx = math.exp(log_p)
            if pwx > 0.0:
                amps[w - x] = state.amps[w] * math.sqrt(pwx)
        nsq = float(np.vdot(amps, amps).real)
        if nsq <= PRUNE_EPS:
            outcomes.pruned_mass += nsq
            continue
        outcomes.append(ADOutcome(x, nsq, SymState(N - x, amps / math.sqrt(nsq))))
    return outcomes


def _branch_bits(result, label):
    rows = [
        (getattr(br, label), br.weight.hex(), br.state.n_qubits, br.state.amps.tobytes())
        for br in result
    ]
    return rows, result.pruned_mass.hex()


def _channel_states():
    rng = np.random.default_rng(2024)
    states = {f"random N={N}": SymState.random(N, rng) for N in (1, 7, 50, 300)}
    states["code N=2000"] = make_logical(GnuParams(40, 3, Fraction(53, 6), 940), Label.PLUS)
    states["Dicke N=40 w=17"] = dicke_state(40, 17)
    holes = SymState.random(60, rng).amps.copy()
    holes[[0, 5, 6, 7, 31, 58]] = 0.0  # interior zeros and a zero end
    holes[20:28] = 0.0
    states["support with holes N=60"] = SymState(60, holes / np.linalg.norm(holes))
    return states


CHANNEL_STATES = _channel_states()
GAMMAS = (0.0, 1e-9, 0.1, 0.5, 1.0)


@pytest.mark.parametrize("name", sorted(CHANNEL_STATES))
def test_amplitude_damp_bit_equal_to_weight_loop(name):
    psi = CHANNEL_STATES[name]
    for gamma in GAMMAS:
        got = amplitude_damp(psi, gamma)
        want = _amplitude_damp_loop(psi, gamma)
        assert _branch_bits(got, "damped") == _branch_bits(want, "damped"), (name, gamma)


@functools.cache
def _damp_loop_bits(name, gamma):
    """The per-weight loop's branches, computed once per (state, gamma) per session."""
    return _branch_bits(_amplitude_damp_loop(CHANNEL_STATES[name], gamma), "damped")


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", sorted(CHANNEL_STATES))
def test_amplitude_damp_bit_equal_across_chunk_boundaries(monkeypatch, name, chunk):
    monkeypatch.setattr(noise, "_AD_CHUNK_PAIRS", chunk)
    psi = CHANNEL_STATES[name]
    for gamma in GAMMAS:
        got = _branch_bits(amplitude_damp(psi, gamma), "damped")
        assert got == _damp_loop_bits(name, gamma), (name, gamma, chunk)


def test_damping_bit_equal_on_the_ad_command_grid():
    # `symsense ad --gamma-max 0.3 --steps 11` on the N = 2000 code
    params = GnuParams(40, 3, Fraction(53, 6), 940)
    psi = CHANNEL_STATES["code N=2000"]
    for gamma in np.linspace(0.0, 0.3, 11).tolist():
        got = _branch_bits(amplitude_damp(psi, gamma), "damped")
        assert got == _damp_loop_bits("code N=2000", gamma), gamma
        assert ad_qfi_bound(params, gamma) == _ad_qfi_bound_all_branches(params, gamma), gamma


def test_amplitude_damp_temporaries_stay_small():
    # a full-support N = 1000 state has ~500k (branch, weight) pairs; evaluated
    # in one step their temporaries take ~30 MB
    psi = SymState.random(1000, np.random.default_rng(11))
    tracemalloc.start()
    try:
        outs = amplitude_damp(psi, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(br.state.amps.nbytes for br in outs)
    assert peak - held < 4_000_000


@pytest.mark.parametrize("name", sorted(CHANNEL_STATES))
def test_delete_bit_equal_to_weight_loop(name):
    psi = CHANNEL_STATES[name]
    N = psi.n_qubits
    # every t on the small states, a selection on the large ones
    ts = range(1, N + 1) if N <= 60 else (1, 2, 3, 4, 100)
    for t in ts:
        got = delete(psi, t)
        want = _delete_loop(psi, t)
        assert _branch_bits(got, "shift") == _branch_bits(want, "shift"), (name, t)


def _ad_qfi_bound_all_branches(params, gamma_ad):
    """ad_qfi_bound's sum over every branch x = 0..N (empty ones skipped)."""
    if gamma_ad == 0.0:
        return float(params.g**2 * params.n)
    g, n, s = params.g, params.n, params.s
    total = 0.0
    for x in range(params.n_qubits + 1):
        probs, wts = [], []
        for k in range(n + 1):
            w = s + g * k
            if x > w:
                continue
            if gamma_ad == 1.0:
                pwx = 1.0 if x == w else 0.0
            else:
                pwx = math.exp(
                    log_binom(w, x) + x * math.log(gamma_ad) + (w - x) * math.log1p(-gamma_ad)
                )
            probs.append(2.0**-n * binom(n, k) * pwx)
            wts.append(float(w - x))
        if not probs:
            continue
        probs, wts = np.array(probs), np.array(wts)
        nx = probs.sum()
        if nx <= 0.0:
            continue
        p = probs / nx
        m1 = float(p @ wts)
        total += nx * (float(p @ wts**2) - m1 * m1)
    return 4.0 * total


def test_ad_qfi_bound_unchanged_by_branch_cut():
    for params in (GnuParams(40, 3, Fraction(53, 6), 940), GnuParams(3, 3, Fraction(2), 1)):
        for gamma in GAMMAS:
            assert ad_qfi_bound(params, gamma) == _ad_qfi_bound_all_branches(params, gamma)


@pytest.mark.parametrize("t", [1030, 1500])
def test_delete_past_float_binomials_conserves_mass(t):
    # C(t, a) overflows a float from t = 1030 on; the branches still sum to one
    outs = delete(CHANNEL_STATES["code N=2000"], t)
    assert outs
    assert abs(sum(o.weight for o in outs) + outs.pruned_mass - 1.0) < 1e-12
    for o in outs:
        assert abs(o.state.norm_sq() - 1.0) < 1e-12


def test_lgamma_table_is_built_once_and_read_only():
    table = _lgamma_table(2000)
    assert _lgamma_table(2000) is table
    assert not table.flags.writeable
    assert table[2000] == math.lgamma(2001)
    with pytest.raises(ValueError):
        table[0] = 1.0


# ---------------------------------------------------------------------------
# damping_branch_count: the kept damping branches, counted without forming them
# ---------------------------------------------------------------------------


def test_branch_count_equals_kept_branches_on_the_code():
    # the `symsense ad --gamma-max 0.3 --steps 11` grid and a grid over [0, 1]
    psi = CHANNEL_STATES["code N=2000"]
    for gamma in sorted({*np.linspace(0.0, 0.3, 11).tolist(), *np.linspace(0.0, 1.0, 41).tolist()}):
        assert damping_branch_count(psi, gamma) == len(amplitude_damp(psi, gamma)), gamma


@pytest.mark.parametrize("N", [5, 60, 300, 1000])
def test_branch_count_equals_kept_branches_on_random_states(N):
    psi = SymState.random(N, np.random.default_rng([7, N]))
    pruned = 0.0
    for gamma in (0.0, 0.01, 0.1, 0.5, 0.9, 1.0):
        outs = amplitude_damp(psi, gamma)
        assert damping_branch_count(psi, gamma) == len(outs), gamma
        pruned += outs.pruned_mass
    if N >= 60:
        assert pruned > 0.0  # the count had branches to drop


def test_branch_count_forms_a_branch_at_the_threshold(monkeypatch):
    # put PRUNE_EPS on each kept branch's exact np.vdot norm in turn: amplitude_damp
    # now drops that branch, and its compact sum, a few ulps off that norm, cannot
    # tell, so the branch must be formed and decided by the same norm
    psi = CHANNEL_STATES["support with holes N=60"]
    gamma = 0.5
    norm = noise._formed_norm
    formed = []
    monkeypatch.setattr(noise, "_formed_norm", lambda *args: formed.append(1) or norm(*args))
    for branch in amplitude_damp(psi, gamma):
        monkeypatch.setattr(noise, "PRUNE_EPS", branch.weight)
        want = len(amplitude_damp(psi, gamma))
        formed.clear()
        assert damping_branch_count(psi, gamma) == want, branch.damped
        assert formed, branch.damped


@pytest.mark.parametrize("gamma", [-0.1, 1.5, math.nan])
def test_branch_count_rejects_gamma_outside_unit_interval(gamma):
    with pytest.raises(ValueError, match="gamma"):
        damping_branch_count(CHANNEL_STATES["random N=7"], gamma)
