"""Deletion and amplitude-damping channels on symmetric states, in block form.

Both channels map a pure symmetric state to a mixture of pure symmetric states
on fewer qubits: deletions produce t+1 branches labelled by the weight shift a,
amplitude damping produces N+1 branches labelled by the damped-excitation
count x (insertion positions are traced out, which is harmless because every
downstream quantity depends only on the branch states).

Both channels work on the state's support (its non-zero weights).  Each
branch evaluates its binomial factors on the support weights only, in one
vectorized step, so a call costs O(t |support|) (deletion) or O(N |support|)
(damping) arithmetic, plus one zero-filled output vector and its norm per
branch.  A codeword has n + 1 support weights, so damping the N = 2000 code
state no longer visits all N^2 / 2 (branch, weight) pairs in Python.  The
branch amplitudes are bit-identical to evaluating each weight through
``log_binom`` / ``sqrt_binom_ratio`` and ``math.exp``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from symsense.codes import GnuParams
from symsense.symcore import SymEnsemble, SymState, log_binom, sqrt_binom_ratio, binom

PRUNE_EPS = 1e-15
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
    Branches above the top support weight are exactly zero and are not
    formed; their (zero) mass is the only thing they would add.
    """
    if not 0.0 <= gamma_ad <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma_ad}")
    N = state.n_qubits
    support = np.flatnonzero(state.amps)
    outcomes = BranchList()
    if support.size == 0:
        return outcomes
    if 0.0 < gamma_ad < 1.0:
        lg = _lgamma_table(N)
        log_g, log_1mg = math.log(gamma_ad), math.log1p(-gamma_ad)
    for x in range(int(support[-1]) + 1):
        w = support[np.searchsorted(support, x):]
        # p_w(x) in log space: C(w,x) can be huge while p_w(x) is tiny
        if gamma_ad == 0.0:
            pwx = np.ones(w.size) if x == 0 else np.zeros(w.size)
        elif gamma_ad == 1.0:
            pwx = (w == x).astype(float)
        else:
            log_p = lg[w] - lg[x] - lg[w - x] + x * log_g + (w - x) * log_1mg
            pwx = np.fromiter(map(math.exp, log_p.tolist()), float, w.size)
        keep = pwx > 0.0
        amps = np.zeros(N - x + 1, dtype=complex)
        amps[w[keep] - x] = state.amps[w[keep]] * np.sqrt(pwx[keep])
        nsq = float(np.vdot(amps, amps).real)
        if nsq <= PRUNE_EPS:
            outcomes.pruned_mass += nsq
            continue
        outcomes.append(ADOutcome(x, nsq, SymState(N - x, amps / math.sqrt(nsq))))
    return outcomes


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
    """
    if not 0.0 <= gamma_ad <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma_ad}")
    if gamma_ad == 0.0:
        return float(params.g**2 * params.n)
    g, n, s = params.g, params.n, params.s
    total = 0.0
    # no lattice weight lies above s + g n, so later branches are empty
    for x in range(s + g * n + 1):
        probs = []
        wts = []
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
        probs = np.array(probs)
        wts = np.array(wts)
        nx = probs.sum()
        if nx <= 0.0:
            continue
        p = probs / nx
        m1 = float(p @ wts)
        qx = float(p @ wts**2) - m1 * m1
        total += nx * qx
    return 4.0 * total
