"""Deletion and amplitude-damping channels on symmetric states, in block form.

Both channels map a pure symmetric state to a mixture of pure symmetric states
on fewer qubits: deletions produce t+1 branches labelled by the weight shift a,
amplitude damping produces N+1 branches labelled by the damped-excitation
count x (insertion positions are traced out, which is harmless because every
downstream quantity depends only on the branch states).
Each channel returns a ``BranchList``: a plain list of its branches (weight
and normalized state) that also carries the probability mass pruned as
negligible (weight <= PRUNE_EPS).

Both channels work on the state's support (its non-zero weights), so a call
costs O(t |support|) (deletion) or O(N |support|) (damping) arithmetic.
Deletion scales each branch by ``symcore.deletion_ratios``, exact-integer
ratios, and writes one zero-filled output vector per branch.  Damping
evaluates p_w(x) for a block of branches in one step, in blocks of a bounded
number of (branch, weight) pairs, and forms only the branches with a non-zero p_w(x),
each in one reused zero-filled vector for its norm.  A codeword has n + 1
support weights, so damping the N = 2000 code state never visits all
N^2 / 2 (branch, weight) pairs.  The damping amplitudes are bit-identical to
evaluating each weight's log C(w, x) as an lgamma difference and taking
``math.exp`` (``np.exp`` is 1 ulp off on some arguments, so it is not used).

``damping_branch_count`` counts the branches ``amplitude_damp`` keeps without
forming them: it sums each branch's compact terms |a_w|^2 p_w(x) in one
``np.add.reduceat`` per block, and only a branch whose sum lies within a few
ulps per term of PRUNE_EPS is formed, in the same zero-padded vector, and
decided by the same ``np.vdot`` norm.  ``symsense ad`` prints that count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from symsense.codes import GnuParams, plus_weights
from symsense.symcore import SymState, deletion_ratios

PRUNE_EPS = 1e-15
# (branch, weight) pairs amplitude_damp evaluates per vectorized step
_AD_CHUNK_PAIRS = 1 << 14
# ulps per term by which damping_branch_count widens its band around PRUNE_EPS
_NORM_ULPS = 4


class BranchList(list):
    """Channel branches plus the total probability mass pruned as negligible."""

    pruned_mass = 0.0


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

    Branch a (a = 0..t) keeps amplitude ``a_w * sqrt(C(t,a) C(N-t, w-a) / C(N, w))``
    at the new weight w - a (:func:`~symsense.symcore.deletion_ratios`), and its
    weight is that vector's squared norm.  Branches at or below the pruning
    threshold are dropped and their mass is added to the returned
    ``BranchList.pruned_mass``, so the kept weights plus it sum to one.
    """
    N = state.n_qubits
    if not 1 <= t <= N:
        raise ValueError(f"deletion count t={t} outside 1..{N}")
    M = N - t
    support = np.flatnonzero(state.amps)
    outcomes = BranchList()
    for a in range(t + 1):
        lo, hi = np.searchsorted(support, (a, M + a + 1))
        w = support[lo:hi]
        amps = np.zeros(M + 1, dtype=complex)
        amps[w - a] = state.amps[w] * np.sqrt(deletion_ratios(N, t, a, w))
        weight = float(np.vdot(amps, amps).real)
        if weight <= PRUNE_EPS:
            outcomes.pruned_mass += weight
            continue
        outcomes.append(DeletionOutcome(a, weight, SymState(M, amps / math.sqrt(weight))))
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
    N = state.n_qubits
    outcomes = BranchList()
    buf = np.zeros(N + 1, dtype=complex)
    for xs, pos, vals, bounds in _damping_blocks(state, gamma_ad):
        for x, a, b in zip(xs.tolist(), bounds, bounds[1:]):
            if a == b:
                continue
            amps = buf[: N - x + 1]
            nsq = _formed_norm(amps, pos[a:b], vals[a:b])
            if nsq <= PRUNE_EPS:
                outcomes.pruned_mass += nsq
            else:
                outcomes.append(ADOutcome(x, nsq, SymState(N - x, amps / math.sqrt(nsq))))
            amps[pos[a:b]] = 0.0
    return outcomes


def damping_branch_count(state: SymState, gamma_ad: float) -> int:
    """The number of branches :func:`amplitude_damp` keeps, without forming them.

    Equals ``len(amplitude_damp(state, gamma_ad))`` exactly.  Each formed
    branch's squared norm is first summed from its compact non-zero terms.
    That sum and the ``np.vdot`` norm ``amplitude_damp`` prunes on add the
    same non-negative products in different orders, so they differ by less
    than (1.5 terms + 0.5) eps of the norm; a compact sum outside
    PRUNE_EPS (1 +- _NORM_ULPS (terms + 2) eps) therefore decides the branch
    as the ``np.vdot`` norm would.  A branch inside that band is formed in
    the zero-padded vector and decided by that norm, :func:`_formed_norm`.
    """
    N = state.n_qubits
    kept = 0
    buf = np.zeros(N + 1, dtype=complex)
    for xs, pos, vals, bounds in _damping_blocks(state, gamma_ad):
        lo, hi = np.array(bounds[:-1]), np.array(bounds[1:])
        formed = lo < hi
        lo, hi, xs = lo[formed], hi[formed], xs[formed]
        # the empty branches own no terms, so each formed one's terms run up to the next start
        sums = np.add.reduceat(vals.real * vals.real + vals.imag * vals.imag, lo)
        band = _NORM_ULPS * (hi - lo + 2) * sys.float_info.epsilon * PRUNE_EPS
        kept += int(np.count_nonzero(sums > PRUNE_EPS + band))
        near = np.abs(sums - PRUNE_EPS) <= band
        for x, a, b in zip(xs[near].tolist(), lo[near].tolist(), hi[near].tolist()):
            amps = buf[: N - x + 1]
            kept += _formed_norm(amps, pos[a:b], vals[a:b]) > PRUNE_EPS
            amps[pos[a:b]] = 0.0
    return kept


def _formed_norm(amps: np.ndarray, pos: np.ndarray, vals: np.ndarray) -> float:
    """Write ``vals`` at ``pos`` into the zero vector ``amps`` and return its squared norm.

    ``np.vdot``'s summation order depends on the positions of the entries, so
    the norm is taken on the zero-padded vector, never on the compact values;
    the caller zeroes ``pos`` again.
    """
    amps[pos] = vals
    return float(np.vdot(amps, amps).real)


def _damping_blocks(state: SymState, gamma_ad: float):
    """``(xs, *_damping_terms(...))`` for consecutive blocks ``xs`` of the damping branches.

    Raises ValueError, on the first step, for gamma outside [0, 1].  Branches
    above the top support weight are exactly zero and are not visited; a
    block holds at most ``_AD_CHUNK_PAIRS`` (branch, weight) pairs, or one
    branch where the support alone is larger.
    """
    if not 0.0 <= gamma_ad <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma_ad}")
    support = np.flatnonzero(state.amps)
    if support.size == 0:
        return
    n_branches = int(support[-1]) + 1
    rows = max(1, _AD_CHUNK_PAIRS // support.size)
    for x0 in range(0, n_branches, rows):
        xs = np.arange(x0, min(x0 + rows, n_branches))
        yield xs, *_damping_terms(state, support, xs, gamma_ad)


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


@lru_cache(maxsize=16)
def _lgamma_table(n: int) -> np.ndarray:
    """``lgamma(k + 1)`` for k = 0..n, by math.lgamma: the log C(w, x) of the
    damping law :func:`_damping_probs`, whose gamma powers are floats anyway.

    Built once per n and shared read-only: ``symsense ad`` damps the same code
    at every gamma of its grid.
    """
    table = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    table.setflags(write=False)
    return table


def deletion_qfi(params: GnuParams, t: int) -> float:
    """QFI of the logical plus probe after t deletions, by the branch formula.

    Valid for g, n >= t+1, where the branches are supported on distinct
    weights modulo g and the QFI is the convex combination
    ``4 sum_a n_a v_a`` of the branch weights n_a (C(t, a) included) and
    the branches' centred weight variances v_a, as in ``jz_moments``.
    """
    if t == 0:
        return float(params.g**2 * params.n)
    if params.g < t + 1 or params.n < t + 1:
        raise ValueError(
            f"branch orthogonality needs g, n >= t+1; got g={params.g}, n={params.n}, t={t}"
        )
    w = params.weight_lattice()
    total = 0.0
    for a in range(t + 1):
        # subnormalized branch a of |+_L> on the lattice, before its shift to w - a
        probs = plus_weights(params.n) * deletion_ratios(params.n_qubits, t, a, w)
        na = float(probs.sum())
        if na <= 0.0:
            continue
        p = probs / na
        m1 = float(p @ w)
        total += na * float(p @ (w - m1) ** 2)
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
    coef = plus_weights(n)
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
