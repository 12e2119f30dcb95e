"""Deletion and amplitude-damping channels on symmetric states, in block form.

Both channels map a pure symmetric state to a mixture of pure symmetric states
on fewer qubits: deletions produce t+1 branches labelled by the weight shift a,
amplitude damping produces N+1 branches labelled by the damped-excitation
count x (insertion positions are traced out, which is harmless because every
downstream quantity depends only on the branch states).

Both channels work on the state's support (its non-zero weights), so a call
costs O(t |support|) (deletion) or O(N |support|) (damping) arithmetic.
Deletion evaluates each branch's binomial factors in one vectorized step and
writes one zero-filled output vector per branch.  Damping evaluates p_w(x)
for a block of branches in one step, in blocks of a bounded number of
(branch, weight) pairs, and forms only the branches with a non-zero p_w(x),
each in one reused zero-filled vector for its norm.  A codeword has n + 1
support weights, so damping the N = 2000 code state never visits all
N^2 / 2 (branch, weight) pairs.  The branch amplitudes are bit-identical to
evaluating each weight through ``log_binom`` / ``sqrt_binom_ratio`` and
``math.exp`` (``np.exp`` is 1 ulp off on some arguments, so it is not used).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from symsense.codes import GnuParams
from symsense.symcore import SymEnsemble, SymState, sqrt_binom_ratio, binom

PRUNE_EPS = 1e-15
# (branch, weight) pairs amplitude_damp evaluates per vectorized step
_AD_CHUNK_PAIRS = 1 << 14
# the largest integer that converts to a float without OverflowError
_FLOAT_INT_MAX = int(sys.float_info.max)


class BranchList(list):
    """Channel branches plus the total probability mass pruned as negligible."""

    def __init__(self, items=(), pruned_mass: float = 0.0):
        super().__init__(items)
        self.pruned_mass = pruned_mass

    def as_ensemble(self) -> SymEnsemble:
        """The block-diagonal mixture the channel produced."""
        return SymEnsemble(tuple((br.weight, br.state) for br in self))


@dataclass(frozen=True)
class DeletionOutcome:
    """One branch of the t-deletion channel: weight = C(t,a) * <psi_a|psi_a>."""

    shift: int
    weight: float
    state: SymState  # normalized


@dataclass(frozen=True)
class ADOutcome:
    """One branch of the amplitude-damping channel: weight = <phi_x|phi_x>."""

    damped: int
    weight: float
    state: SymState  # normalized


def delete(state: SymState, t: int) -> list[DeletionOutcome]:
    """Trace out t unknown qubits of a normalized symmetric state.

    Branch a (a = 0..t) keeps amplitude
    ``a_w * sqrt(C(N-t, w-a) / C(N, w))`` at the new weight w - a; the branch
    probabilities C(t,a) <psi_a|psi_a> sum to one.  Branches below the pruning
    threshold are dropped and their mass is reported on the surviving ones'
    ``weight`` total (diagnosed by the caller via the sum).  Where C(t, a)
    overflows a float (from t = 1030 on) or <psi_a|psi_a> is not a normal
    float, the branch takes C(t, a) C(N-t, w-a) / C(N, w) per weight as one
    correctly rounded ratio of exact integers.
    """
    N = state.n_qubits
    if not 1 <= t <= N:
        raise ValueError(f"deletion count t={t} outside 1..{N}")
    M = N - t
    support = np.flatnonzero(state.amps)
    lg = _lgamma_table(N)
    # log C(N, w) on the support, in log_binom's operation order
    log_den = lg[N] - lg[support] - lg[N - support]
    outcomes = BranchList()
    exact_rows = None  # C(M, k) and C(N, w) as exact integers, built on first need
    for a in range(t + 1):
        lo, hi = np.searchsorted(support, (a, M + a + 1))
        w = support[lo:hi]
        k = w - a
        log_num = lg[M] - lg[k] - lg[M - k]
        ratio = np.fromiter(map(math.exp, (0.5 * (log_num - log_den[lo:hi])).tolist()), float)
        amps = np.zeros(M + 1, dtype=complex)
        amps[k] = state.amps[w] * ratio
        nsq = float(np.vdot(amps, amps).real)
        c = binom(t, a)
        if nsq >= sys.float_info.min and c <= _FLOAT_INT_MAX:
            weight = c * nsq
        else:
            # C(t, a) overflows a float or <psi_a|psi_a> is not a normal
            # float: fold C(t, a) into each amplitude as the exact rational
            # C(t, a) C(M, w - a) / C(N, w), correctly rounded
            if exact_rows is None:
                exact_rows = _binom_row(M), _binom_row(N)
            row_m, row_n = exact_rows
            scale = [c * row_m[kk] / row_n[ww] for kk, ww in zip(k.tolist(), w.tolist())]
            amps[k] = state.amps[w] * np.sqrt(scale)
            nsq = weight = float(np.vdot(amps, amps).real)
        if weight <= PRUNE_EPS:
            outcomes.pruned_mass += weight
            continue
        outcomes.append(DeletionOutcome(a, weight, SymState(M, amps / math.sqrt(nsq))))
    return outcomes


def amplitude_damp(state: SymState, gamma_ad: float) -> list[ADOutcome]:
    """Amplitude-damping channel with per-qubit decay probability gamma.

    Branch x carries ``|phi_x> = sum_w a_w sqrt(p_w(x)) |D^{N-x}_{w-x}>`` with
    ``p_w(x) = C(w,x) gamma^x (1-gamma)^(w-x)``; branch weights sum to one.
    Branches above the top support weight, and branches whose every p_w(x)
    is zero (gamma = 0, or underflow), are exactly zero and are not formed;
    their (zero) mass is the only thing they would add.

    p_w(x) is evaluated for all (branch x, support weight w >= x) pairs of a
    block of branches at once, in blocks of at most ``_AD_CHUNK_PAIRS`` pairs
    (one branch where the support alone is larger), so a full-support state
    needs only a few MB of temporaries.  Each formed branch is written into
    one reused zero-filled vector of length N - x + 1 and its norm taken
    there: ``np.vdot``'s summation order depends on the positions of the
    entries, so a norm of the compact non-zero values would differ in the
    last bits.
    """
    if not 0.0 <= gamma_ad <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma_ad}")
    N = state.n_qubits
    support = np.flatnonzero(state.amps)
    outcomes = BranchList()
    if support.size == 0:
        return outcomes
    buf = np.zeros(N + 1, dtype=complex)
    n_branches = int(support[-1]) + 1
    rows = max(1, _AD_CHUNK_PAIRS // support.size)
    for x0 in range(0, n_branches, rows):
        xs = np.arange(x0, min(x0 + rows, n_branches))
        pos, vals, bounds = _damping_terms(state, support, xs, gamma_ad)
        for x, a, b in zip(xs.tolist(), bounds, bounds[1:]):
            if a == b:
                continue
            amps = buf[: N - x + 1]
            amps[pos[a:b]] = vals[a:b]
            nsq = float(np.vdot(amps, amps).real)
            if nsq <= PRUNE_EPS:
                outcomes.pruned_mass += nsq
            else:
                outcomes.append(ADOutcome(x, nsq, SymState(N - x, amps / math.sqrt(nsq))))
            amps[pos[a:b]] = 0.0
    return outcomes


def _damping_terms(state: SymState, support: np.ndarray, xs: np.ndarray, gamma_ad: float):
    """The non-zero terms ``a_w sqrt(p_w(x))`` of the damping branches ``xs``.

    Returns their positions w - x in the branch vectors, their values, and a
    list ``bounds`` such that branch ``xs[i]`` owns the terms
    ``bounds[i]:bounds[i + 1]``.  Only these three outlive the call, so the
    per-pair temporaries are freed before the branches are formed.
    """
    # the pairs (x, w >= x), branch-major: branch x meets the support weights support[lo:]
    lo = np.searchsorted(support, xs)
    counts = support.size - lo
    ends = np.cumsum(counts)
    x = np.repeat(xs, counts)
    w = support[np.arange(ends[-1]) - np.repeat(ends - counts - lo, counts)]
    pwx = _damping_probs(state.n_qubits, w, x, gamma_ad)
    keep = np.flatnonzero(pwx > 0.0)
    bounds = np.searchsorted(keep, np.concatenate(([0], ends))).tolist()
    return w[keep] - x[keep], state.amps[w[keep]] * np.sqrt(pwx[keep]), bounds


def _damping_probs(n_qubits: int, w: np.ndarray, x: np.ndarray, gamma_ad: float) -> np.ndarray:
    """p_w(x) = C(w,x) gamma^x (1-gamma)^(w-x) over broadcast ``w >= x``.

    Exact at gamma 0 and 1, else ``math.exp`` of the log (C(w,x) can be huge
    while p_w(x) is tiny; ``np.exp`` differs in the last bit on some arguments).
    """
    d = w - x
    if gamma_ad == 0.0:
        return (d == w).astype(float)
    if gamma_ad == 1.0:
        return (d == 0).astype(float)
    lg = _lgamma_table(n_qubits)
    log_g, log_1mg = math.log(gamma_ad), math.log1p(-gamma_ad)
    log_p = lg[w] - lg[x] - lg[d] + x * log_g + d * log_1mg
    return np.fromiter(map(math.exp, log_p.ravel().tolist()), float, d.size).reshape(d.shape)


def _binom_row(n: int) -> list[int]:
    """C(n, k) for k = 0..n as exact integers, by C(n, k+1) = C(n, k) (n-k) / (k+1)."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


@lru_cache(maxsize=16)
def _lgamma_table(n: int) -> np.ndarray:
    """``lgamma(k + 1)`` for k = 0..n, by math.lgamma (the values log_binom uses).

    Built once per n and shared read-only: a Protocol-1 reference trajectory
    deletes from the same few qubit counts round after round.
    """
    table = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    table.setflags(write=False)
    return table


def deletion_qfi(params: GnuParams, t: int) -> float:
    """QFI of the logical plus probe after t deletions, by the branch formula.

    Valid for g, n >= t+1, where the branches are supported on distinct
    weights modulo g and the QFI is the convex combination
    ``4 sum_a C(t,a) n_a v_a`` of per-branch variances.
    """
    if t == 0:
        return float(params.g**2 * params.n)
    if params.g < t + 1 or params.n < t + 1:
        raise ValueError(
            f"branch orthogonality needs g, n >= t+1; got g={params.g}, n={params.n}, t={t}"
        )
    N = params.n_qubits
    M = N - t
    n = params.n
    total = 0.0
    for a in range(t + 1):
        # subnormalized branch of |+_L>: amplitude 2^{-n/2} sqrt(C(n,k)) * ratio
        probs = np.zeros(n + 1)
        wts = np.zeros(n + 1)
        for k in range(n + 1):
            w = params.s + params.g * k
            r = sqrt_binom_ratio(M, w - a, N, w)
            probs[k] = 2.0**-n * binom(n, k) * r * r
            wts[k] = w - a
        na = probs.sum()
        if na <= 0.0:
            continue
        p = probs / na
        m1 = float(p @ wts)
        va = float(p @ wts**2) - m1 * m1
        total += binom(t, a) * na * va
    return 4.0 * total


def ad_qfi_bound(params: GnuParams, gamma_ad: float) -> float:
    """Convexity upper bound ``4 sum_x n_x q_x`` on the post-damping QFI.

    n_x and the per-branch variances q_x are evaluated from the closed-form
    damping weights p_w(x) on the code lattice, independently of the
    :func:`amplitude_damp` channel decomposition (which the tests replay
    against this formula).

    Branch x sees the lattice weights w_k = s + g k >= x, i.e. k >= k0(x).
    The branches of one k0 form a grid of (x, k) pairs, evaluated in
    vectorized steps; n_x is a row sum and the moments are stacked dot
    products.  Each row holds only the pairs of its branch, because the
    summation order of a row sum or dot depends on the row length; the
    result is bit-identical to summing one branch at a time.
    """
    if not 0.0 <= gamma_ad <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma_ad}")
    if gamma_ad == 0.0:
        return float(params.g**2 * params.n)
    g, n, s, N = params.g, params.n, params.s, params.n_qubits
    coef = np.array([2.0**-n * binom(n, k) for k in range(n + 1)])
    total = 0.0
    # no lattice weight lies above s + g n, so later branches are empty
    for k0 in range(n + 1):
        # the branches s + g (k0 - 1) < x <= s + g k0
        x = np.arange(s + g * (k0 - 1) + 1 if k0 else 0, s + g * k0 + 1)[:, None]
        w = s + g * np.arange(k0, n + 1)
        d = w - x
        probs = coef[k0:] * _damping_probs(N, w, x, gamma_ad)
        nx = probs.sum(axis=1)
        live = nx > 0.0
        nx = nx[live]
        p = probs[live] / nx[:, None]
        d = d[live].astype(float)
        m1, m2 = np.matmul(p[:, None, :], np.stack((d, d**2))[..., None])[..., 0, 0]
        for v in (nx * (m2 - m1 * m1)).tolist():
            total += v
    return 4.0 * total
