"""Symmetric-subspace QEC: modulo measurement, deletion recovery, QEC while sensing.

The QEC-while-sensing round (``qec_sense``) is the measure/project/recover
sequence: a modulo-g weight measurement fixes the post-deletion shift, a
projective measurement distinguishes the codespace (syn = 0) from the span of
the normalized ``Jz``-displaced codewords ``|q_j>`` (syn = 1), anything else
raises the failure flag, and on syn = 1 the recovery maps ``|q_j>`` back to
``|j_L>``.  All recoveries act as exact basis maps on the Dicke block.  The
round is :func:`project_syndrome` on a :func:`code_frame`, as in Protocol 1.

Closed-form phase bookkeeping lives in :func:`phase_formulas`: the relative
phases ``zeta_j`` picked up without deletions and the exact single-deletion
ratios ``u_syn`` whose arguments give ``phi_{1,j}``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from symsense.codes import CODEWORD_CACHE, GnuParams, code_fits, lattice_profile, logical_pair
from symsense.symcore import SymState, apply_signal, binom, check_float_binomials, deletion_ratios


@dataclass(frozen=True)
class ModuloOutcome:
    residue: int
    probability: float
    post_state: SymState


@dataclass(frozen=True)
class QecSenseResult:
    post_state: SymState
    new_shift: int
    syn: int
    flag: int


@dataclass(frozen=True)
class PhaseFormulas:
    """Per-round phases: zeta_j without deletions, phi_{1,j} = arg(u_j) with one."""

    zeta0: float
    zeta1: float
    phi10: Optional[float] = None
    phi11: Optional[float] = None
    u0: Optional[complex] = None
    u1: Optional[complex] = None


# ---------------------------------------------------------------------------
# modulo measurement, restricted to the symmetric block
# ---------------------------------------------------------------------------


def modulo_branches(state: SymState, g: int) -> list[ModuloOutcome]:
    """All residue branches of a modulo-g weight measurement (probability > 0)."""
    if g < 1:
        raise ValueError("modulus g must be >= 1")
    out = []
    w = state.weights
    for a in range(g):
        mask = (w % g) == a
        prob = float(np.sum(np.abs(state.amps[mask]) ** 2))
        if prob <= 0.0:
            continue
        amps = np.where(mask, state.amps, 0.0)
        out.append(ModuloOutcome(a, prob, SymState(state.n_qubits, amps / math.sqrt(prob))))
    return out


def modulo_meas(state: SymState, g: int, rng: np.random.Generator) -> ModuloOutcome:
    """Sample one residue branch with its Born probability."""
    branches = modulo_branches(state, g)
    probs = np.array([b.probability for b in branches])
    idx = rng.choice(len(branches), p=probs / probs.sum())
    return branches[idx]


# ---------------------------------------------------------------------------
# codespace geometry helpers
# ---------------------------------------------------------------------------


def jz_apply(state: SymState) -> SymState:
    """Apply Jz (eigenvalue N/2 - w on weight w); result is unnormalized."""
    vals = 0.5 * state.n_qubits - state.weights
    return SymState(state.n_qubits, state.amps * vals)


@lru_cache(maxsize=CODEWORD_CACHE)
def q_vectors(params: GnuParams) -> tuple[SymState, SymState, float]:
    """Normalized |q_0>, |q_1> and the common norm-square <Q_j|Q_j> (= g^2 n / 4 for n >= 3).

    ``|Q_j> = Jz |j_L> - <j_L|Jz|j_L> |j_L>`` is the component of the signal
    generator seen by codeword j, orthogonal to the codespace by construction.
    Built once per code and shared, like the codewords of ``make_logical``.
    """
    qs, norms = [], []
    for cw in logical_pair(params):
        jzc = jz_apply(cw)
        amps = jzc.amps - cw.inner(jzc).real * cw.amps
        norms.append(float(np.vdot(amps, amps).real))
        qs.append(SymState(params.n_qubits, amps / math.sqrt(norms[-1])))
    return qs[0], qs[1], norms[0]


class CodeFrame(NamedTuple):
    """A code's weight lattice, its |0_L>, |1_L>, |q_0>, |q_1> as Dicke vectors,
    and its |0_L>, |1_L> on the lattice."""

    lattice: np.ndarray
    basis: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    cw_on_lattice: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=CODEWORD_CACHE)
def code_frame(params: GnuParams) -> CodeFrame:
    """The vectors a QEC-while-sensing round on this code projects onto, built once per code."""
    lattice = params.weight_lattice()
    basis = tuple(v.amps for v in (*logical_pair(params), *q_vectors(params)[:2]))
    on_lattice = (basis[0][lattice], basis[1][lattice])
    for arr in (lattice, *on_lattice):  # shared by every caller, like the codewords
        arr.flags.writeable = False
    return CodeFrame(lattice, basis, on_lattice)


def frame_overlaps(frame: CodeFrame, amps: np.ndarray) -> list[complex]:
    """<0_L|psi>, <1_L|psi>, <q_0|psi>, <q_1|psi> for the Dicke vector ``amps`` of psi."""
    return [complex(np.vdot(v, amps)) for v in frame.basis]


def _leak(frame: CodeFrame, amps: np.ndarray, overlaps: list[complex]) -> float:
    """Squared norm of the part of ``amps`` outside the frame's basis."""
    residual = amps - sum(c * v for c, v in zip(overlaps, frame.basis))
    return float(np.vdot(residual, residual).real)


def project_syndrome(frame: CodeFrame, amps: np.ndarray, u: float):
    """(syn, c_0, c_1, P[syn]) of the projective round on the normalized ``amps``, for a uniform u.

    syn = 0 (codespace) if u < P[0], syn = 1 (q-space) if u < P[0] + P[1], with
    the recovered state (c_0 |0_L> + c_1 |1_L>) / sqrt(P[syn]); else the flag,
    syn = -1, with c_0 = c_1 = 0 and the leaked weight as P."""
    e0, e1, d0, d1 = overlaps = frame_overlaps(frame, amps)
    p_code = abs(e0) ** 2 + abs(e1) ** 2
    p_q = abs(d0) ** 2 + abs(d1) ** 2
    if u < p_code:
        return 0, e0, e1, p_code
    if u < p_code + p_q:
        return 1, d0, d1, p_q
    return -1, 0j, 0j, _leak(frame, amps, overlaps)


def deleted_codewords(params: GnuParams, sigma: int, t: int = 1) -> tuple[SymState, SymState]:
    """Exact (subnormalized) t-deletion branch images |0'_sigma>, |1'_sigma>.

    Amplitude at weight g k + s - sigma is the codeword amplitude times the root
    of ``deletion_ratios``, C(t, sigma) C(N-t, gk+s-sigma) / C(N, gk+s); these are
    the states the perturbation bounds compare against the ideal shift-(s - sigma)
    codewords.  C(t, sigma) is 1 at t = 1, where ``phase_formulas`` reads them,
    and ``deletion_qec`` normalises them.
    """
    if sigma < 0 or sigma > t:
        raise ValueError("deletion shift sigma must be in 0..t")
    if params.s - sigma < 0:
        raise ValueError("shift too small: s >= sigma required")
    N = params.n_qubits
    M = N - t
    w = params.weight_lattice()
    w = w[w - sigma <= M]  # above M the branch amplitude is exactly zero
    amps = lattice_profile(params.n)[: w.size] * np.sqrt(deletion_ratios(N, t, sigma, w))
    cw = np.zeros((2, M + 1), dtype=complex)
    for parity in (0, 1):  # even k: |0'_sigma>, odd k: |1'_sigma>
        cw[parity, w[parity::2] - sigma] = amps[parity::2]
    return SymState(M, cw[0]), SymState(M, cw[1])


# ---------------------------------------------------------------------------
# deletion QEC (recovery without sensing)
# ---------------------------------------------------------------------------


def deletion_qec(branch: SymState, params: GnuParams, t: int) -> tuple[SymState, int]:
    """Correct one post-deletion branch back onto a shifted gnu codespace.

    The branch of a code state after t <= min(g,n)-1 deletions sits in the span
    of the normalized deleted codewords with a definite weight shift a; the
    modulo-g residue reveals a, and the recovery is the basis map onto the
    (N-t)-qubit code with shift s-a.  Raises if the residue implies a > t or
    if the input leaks out of the correctible span.
    """
    if t > params.distance() - 1:
        raise ValueError("deletion count exceeds the code's correction capability")
    if params.s < t:
        raise ValueError("algorithm requires shift s >= t")
    residues = modulo_branches(branch, params.g)
    if len(residues) != 1:
        raise ValueError("input is not a single post-deletion branch (mixed residues)")
    a = (params.s - residues[0].residue) % params.g
    if a > t:
        raise ValueError(f"residue implies a shift of {a} > t = {t} deletions")
    prim0, prim1 = deleted_codewords(params, a, t)
    b0, b1 = prim0.normalized(), prim1.normalized()
    c0 = b0.inner(branch)
    c1 = b1.inner(branch)
    leak = branch.norm_sq() - abs(c0) ** 2 - abs(c1) ** 2
    if leak > 1e-9:
        raise ValueError(f"branch leaks {leak:.2e} outside the deleted-codeword span")
    small = params.with_shift(params.s - a, branch.n_qubits)
    cw0, cw1 = logical_pair(small)
    amps = c0 * cw0.amps + c1 * cw1.amps
    nrm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    return SymState(branch.n_qubits, amps / nrm), a


# ---------------------------------------------------------------------------
# QEC while sensing
# ---------------------------------------------------------------------------


def _deletions(state: SymState, params: GnuParams) -> int:
    """The deletions a round infers from the state's qubit count, after checking its inputs."""
    if params.n < 3 or params.n % 2 == 0:
        raise ValueError("qec_sense expects odd n >= 3")
    t = params.n_qubits - state.n_qubits
    if t < 0:
        raise ValueError("state has more qubits than the code")
    return t


def _residue_frame(params: GnuParams, n_qubits: int, t: int, residue: int):
    """(shift, frame) a modulo-g residue implies; frame is None when the round flags
    before projecting: more shift than deletions, or a shifted code that no longer fits."""
    sigma = (params.s - residue) % params.g
    if sigma > t or not code_fits(params, n_qubits, params.s - sigma):
        return params.s - sigma, None
    return params.s - sigma, code_frame(params.with_shift(params.s - sigma, n_qubits))


def qec_sense(state: SymState, params: GnuParams, rng: np.random.Generator) -> QecSenseResult:
    """One measure/project/recover round on a (possibly once-deleted) evolved code state.

    ``params`` describes the code *before* the deletions; the number of
    deletions is inferred from the state's qubit count.  flag = 1 is a modeled
    outcome, not an exception: the input is outside codespace + q-space, or
    the residue implies more shift than there were deletions, or the shifted
    code no longer fits the remaining qubits (``codes.code_fits``).
    """
    t = _deletions(state, params)
    mod = modulo_meas(state, params.g, rng)
    new_shift, frame = _residue_frame(params, state.n_qubits, t, mod.residue)
    if frame is not None:
        syn, c0, c1, p_syn = project_syndrome(frame, mod.post_state.amps, rng.random())
        if syn >= 0:
            amps = (c0 * frame.basis[0] + c1 * frame.basis[1]) / math.sqrt(p_syn)
            return QecSenseResult(SymState(state.n_qubits, amps), new_shift, syn=syn, flag=0)
    return QecSenseResult(mod.post_state, new_shift, syn=-1, flag=1)


def qec_sense_probabilities(state: SymState, params: GnuParams) -> tuple[float, float, float]:
    """(P[syn=0], P[syn=1], P[flag]) for the given input, without sampling.

    A branch's flag weight is the squared norm of its residual outside the
    orthonormal {|0_L>, |1_L>, |q_0>, |q_1>}, not ``1 - p_code - p_q``, which
    cancels: it is never negative and keeps its relative precision for tiny
    leakage.  A branch that ``qec_sense`` flags before projecting (too much
    shift for the deletions, or a shifted code that no longer fits) counts
    wholly as flag.  Inputs ``qec_sense`` refuses raise the same ValueError.
    """
    t = _deletions(state, params)
    p0 = p1 = pf = 0.0
    for br in modulo_branches(state, params.g):
        frame = _residue_frame(params, state.n_qubits, t, br.residue)[1]
        if frame is None:
            pf += br.probability
            continue
        c = frame_overlaps(frame, br.post_state.amps)
        p0 += br.probability * (abs(c[0]) ** 2 + abs(c[1]) ** 2)
        p1 += br.probability * (abs(c[2]) ** 2 + abs(c[3]) ** 2)
        pf += br.probability * _leak(frame, br.post_state.amps, c)
    return p0, p1, pf


def pflag_closed_form(n: int, x: float) -> tuple[float, float, float]:
    """Closed forms (|Pi psi|^2, |Pi_1 psi|^2, p_flag) at x = g Delta / 2, odd n.

    ``p_flag`` is the complementary binomial tail over k = 2..n-2, empty (zero)
    at n = 3; past n = 1029 it is out of float range, and ValueError is raised.
    """
    check_float_binomials(n)
    c, s = math.cos(x), math.sin(x)
    p_code = c ** (2 * n) + s ** (2 * n)
    p_q = 0.25 * n * math.sin(2 * x) ** 2 * (s ** (2 * n - 4) + c ** (2 * n - 4))
    p_flag = sum(
        binom(n, k) * c ** (2 * k) * s ** (2 * (n - k)) for k in range(2, n - 1)
    )
    return p_code, p_q, p_flag


# ---------------------------------------------------------------------------
# phase bookkeeping
# ---------------------------------------------------------------------------


def zeta(params: GnuParams, delta: float, j: int) -> float:
    """zeta_j = 2 arctan( (-1)^j i^(n-1) tan^(n-2j)(g delta / 2) ), odd n.

    ``i^(n-1)`` is real (+/-1) for odd n.  At n = 3 this gives
    zeta_1 = g delta exactly (for |g delta / 2| < pi/2) and
    zeta_0 = 2 arctan(-tan^3(g delta / 2)).
    """
    n = params.n
    if n % 2 == 0:
        raise ValueError("zeta_j is defined for odd n")
    sign_i = (-1) ** ((n - 1) // 2)
    x = 0.5 * params.g * delta
    return 2.0 * math.atan(((-1) ** j) * sign_i * math.tan(x) ** (n - 2 * j))


def zeta_derivative(params: GnuParams, delta: float, j: int) -> float:
    """d zeta_j / d delta = g m c tan^(m-1)(x) sec^2(x) / (1 + tan^(2m)(x)), closed form.

    Here x = g delta / 2, m = n - 2j and c = (-1)^j i^(n-1) as in :func:`zeta`.
    At n = 3 this is -3 g tan^2 x sec^2 x / (1 + tan^6 x) for j = 0 and g for
    j = 1; unlike a difference of zeta values it keeps full relative
    precision at small delta.
    """
    n = params.n
    if n % 2 == 0:
        raise ValueError("zeta_j is defined for odd n")
    sign = ((-1) ** j) * (-1) ** ((n - 1) // 2)
    m = n - 2 * j
    x = 0.5 * params.g * delta
    t = math.tan(x)
    return params.g * sign * m * t ** (m - 1) / (math.cos(x) ** 2 * (1.0 + t ** (2 * m)))


def phase_formulas(
    params: GnuParams, delta: float, sigma: Optional[int] = None
) -> PhaseFormulas:
    """Per-round phases for signal delta; with ``sigma`` also the one-deletion data.

    ``u_0`` and ``u_1`` are the exact sandwich ratios of inner products taken
    against the *exact* deleted codewords (never the leading
    order approximation); ``phi_{1,j}`` are their arguments.
    """
    z0 = zeta(params, delta, 0)
    z1 = zeta(params, delta, 1)
    if sigma is None:
        return PhaseFormulas(z0, z1)
    prim0, prim1 = deleted_codewords(params, sigma, t=1)
    frame = code_frame(params.with_shift(params.s - sigma, params.n_qubits - 1))
    c0 = frame_overlaps(frame, apply_signal(prim0, delta).amps)
    c1 = frame_overlaps(frame, apply_signal(prim1, delta).amps)
    u0, u1 = c1[1] / c0[0], c1[3] / c0[2]
    return PhaseFormulas(z0, z1, cmath.phase(u0), cmath.phase(u1), u0, u1)


# ---------------------------------------------------------------------------
# perturbation / Taylor bound checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def bound_checkers(
    params: GnuParams,
    delta: float,
    sigma: int,
) -> list[BoundCheck]:
    """Evaluate both sides of the single-deletion perturbation and Taylor bounds.

    Inputs must satisfy the bounds' assumption set (odd n >= 3 and
    |g delta / 2| <= pi/6); the zeta_0 cubic bound is evaluated with both the
    stated -1/8 constant and the -1/4 constant from the direct expansion of
    2 arctan(-tan^3), since the two disagree (see the series-fit test).
    """
    n, g, N = params.n, params.g, params.n_qubits
    if n < 3 or n % 2 == 0:
        raise ValueError("bounds assume odd n >= 3")
    if abs(0.5 * g * delta) > math.pi / 6 + 1e-12:
        raise ValueError("bounds assume |g delta / 2| <= pi/6")
    pf = phase_formulas(params, delta, sigma)
    eps = g * math.sqrt(n) / N
    # the plus probe: equal amplitudes on |0_L> and |1_L>
    a_amp = b_amp = 1.0 / math.sqrt(2.0)
    checks = []
    for j, u in ((0, pf.u0), (1, pf.u1)):
        checks.append(BoundCheck(f"u{j}_modulus", abs(abs(u) - 1.0), 3.0 * eps))
        a1 = a_amp / math.sqrt(a_amp**2 + b_amp**2 * abs(u) ** 2)
        checks.append(BoundCheck(f"amplitude_syn{j}", abs(a1 - a_amp), 12.0 * eps))
    checks.append(
        BoundCheck(
            "phi10_vs_zeta0",
            abs(pf.phi10 - pf.zeta0),
            10.0 * eps + 98.0 * g * g * n / (N * N),
        )
    )
    if n == 3:
        gd = g * delta
        checks.append(BoundCheck("zeta1_taylor", abs(pf.zeta1 - gd), (3.0 / 16.0) * abs(gd) ** 3))
        checks.append(
            BoundCheck("zeta0_taylor_stated", abs(pf.zeta0 + gd**3 / 8.0), 52.0 * abs(gd) ** 5)
        )
        checks.append(
            BoundCheck("zeta0_taylor_fitted", abs(pf.zeta0 + gd**3 / 4.0), 52.0 * abs(gd) ** 5)
        )
    return checks


def phi11_ratio(params: GnuParams, delta: float, sigma: int) -> float:
    """phi_{1,1} / (g delta).  Criterion 7 states 4 sqrt(2) for s = N/2 - gn/2 + o(g); on
    n = 3 codes the small-angle limit is 3, and the ratio falls towards 1 once N delta >~ 1."""
    pf = phase_formulas(params, delta, sigma)
    return pf.phi11 / (params.g * delta)


# ---------------------------------------------------------------------------
# teleportation decode rule
# ---------------------------------------------------------------------------


def teleport_decode(a: int, j_t_doubled: int, s: int, g: int) -> tuple[int, bool]:
    """Classical decode of the teleportation modulo-2g measurement.

    ``sigma = (a + j_T - s) mod 2g`` (j_T passed doubled to stay in integers);
    logical 0 iff sigma falls in {0..(g-1)/2} or {2g-(g-1)/2..2g-1}, and the X
    correction is applied exactly on logical 1.  Only odd g is meaningful.
    """
    if g % 2 == 0 or g < 1:
        raise ValueError("teleportation decode requires odd positive g")
    sigma_doubled = (2 * a + j_t_doubled - 2 * s) % (4 * g)
    if sigma_doubled % 2 != 0:
        raise ValueError("half-integer sigma: inconsistent (a, j_T, s) combination")
    sigma = sigma_doubled // 2
    half = (g - 1) // 2
    logical = 0 if (sigma <= half or sigma >= 2 * g - half) else 1
    return logical, logical == 1
