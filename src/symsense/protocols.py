"""Monte-Carlo simulation of the QEC-while-sensing protocols and analytic baselines.

Protocol 1 runs r rounds of {Poisson deletions -> signal -> QEC round}, aborts
on the failure flag, and reads out in the logical plus/minus basis; its Fisher
information comes from the accumulated logical phase Phi and its
theta-derivative.  Two implementations are provided:

* :func:`run_protocol1` -- exact reference: full Dicke-vector state tracking
  through the library channel/QEC operations, one trajectory at a time.
* :func:`run_protocol1_batch` -- vectorized lattice twin: because every reached
  state is supported on the n+1 code weights, the whole ensemble advances in
  lock-step with (n_traj, n+1) amplitude arrays, BATCH_SPAN trajectories at
  a time.  Identical randomness consumption per trajectory (a pre-drawn
  (r, 3) uniform block from a Philox stream keyed by (seed, trajectory
  index)) makes the two paths bitwise replayable against each other.  The
  batch reuses one Philox generator per span and resets it to each
  trajectory's key (seed, index) instead of constructing one per trajectory;
  the streams are the same.

Per-round randomness: uniform[0] resolves the deletion count (inverse CDF of
the Poisson truncated at >= 2, which aborts), uniform[1] the deletion shift
sigma, uniform[2] the QEC syndrome.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from symsense.codes import GnuParams, Label, logical_pair, make_logical
from symsense.metrology import PI_4_COS_FLOOR
from symsense.noise import delete
from symsense.qec import pflag_closed_form, q_vectors, zeta
from symsense.symcore import SymState, apply_signal, binom

FD_THETA_STEP = 1e-6
BATCH_SPAN = 16384  # trajectories per batch span, serial and pooled runs alike


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol-1 configuration; tau = r^(-q) and the signal per round is theta*tau."""

    params: GnuParams
    r: int
    q: float
    theta: float
    n_del: float
    seed: int = 0

    def __post_init__(self):
        if self.params.n != 3:
            raise ValueError("the sensing protocol uses n = 3 codes")
        if self.r < 1:
            raise ValueError("need at least one round")

    @property
    def tau(self) -> float:
        return float(self.r) ** (-self.q)

    @property
    def delta(self) -> float:
        return self.theta * self.tau

    def failure_bound(self) -> float:
        """r p_flag + r 2 g^2 n / N^2 + r n_del N tau (union bound on abort)."""
        p = self.params
        x = 0.5 * p.g * self.delta
        _, _, pflag = pflag_closed_form(p.n, x)
        N = p.n_qubits
        return self.r * (pflag + 2.0 * p.g**2 * p.n / N**2 + self.n_del * N * self.tau)


@dataclass
class TrajectoryRecord:
    counts: np.ndarray  # shape (2, 2): rounds with t deletions and syndrome j
    Phi: float
    dPhi_dtheta: float
    flag: bool
    invalid_regime: bool
    final_shift: int
    final_amp_a: float
    fisher_information: float
    n_deletions: int
    state_phase: float = float("nan")  # arg of the tracked state's logical ratio


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trajectory stream; parallel and serial runs agree."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


# ---------------------------------------------------------------------------
# per-round closed-form quantities (shared by both simulator paths)
# ---------------------------------------------------------------------------

_CW = None  # codeword profile cache for n = 3


def _n3_profiles():
    """(codeword profile c_k, q-vector profile q_k) over the lattice k = 0..3."""
    global _CW
    if _CW is None:
        c = 0.5 * np.array([1.0, math.sqrt(3.0), math.sqrt(3.0), 1.0])
        q = c * (2.0 / math.sqrt(3.0)) * (1.5 - np.arange(4))
        _CW = (c, q)
    return _CW


def one_deletion_ratios(
    g: int, n_qubits, s, sigma, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact sandwich ratios (u_syn0, u_syn1) after one deletion, vectorized.

    ``n_qubits``, ``s``, ``sigma`` refer to the code *before* the deletion and
    may be arrays.  u_syn0 is the codespace ratio <1|U|1'>/<0|U|0'>, u_syn1 the
    q-space ratio; their arguments are the per-round phases phi_{1,j}.
    """
    c, q = _n3_profiles()
    N = np.asarray(n_qubits, dtype=float)[..., None]
    s_arr = np.asarray(s, dtype=float)[..., None]
    sig = np.asarray(sigma, dtype=float)[..., None]
    k = np.arange(4, dtype=float)
    w = g * k + s_arr
    ratio = np.where(sig > 0.5, w / N, 1.0 - w / N)
    amp = np.sqrt(np.maximum(ratio, 0.0)) * c  # primed-state amplitudes
    phase = np.exp(1j * delta * (w - sig))  # e^{i Delta w'}; overall e^{-i Delta N'/2} cancels
    term = amp * phase
    num0 = c[1] * term[..., 1] + c[3] * term[..., 3]
    den0 = c[0] * term[..., 0] + c[2] * term[..., 2]
    num1 = q[1] * term[..., 1] + q[3] * term[..., 3]
    den1 = q[0] * term[..., 0] + q[2] * term[..., 2]
    return num0 / den0, num1 / den1


def _zeta_pair(g: int, delta: float) -> tuple[float, float]:
    x = 0.5 * g * delta
    return 2.0 * math.atan(-math.tan(x) ** 3), 2.0 * math.atan(math.tan(x))


def fi_phase_readout_vec(phi_amp, Phi, dPhi) -> np.ndarray:
    """Vectorized plus/minus readout FI (see metrology.fi_phase_readout)."""
    phi_amp = np.asarray(phi_amp)
    c2 = np.cos(2.0 * phi_amp)
    num = (np.sin(2.0 * phi_amp) * np.sin(Phi)) ** 2
    pref = np.where(np.abs(c2) <= PI_4_COS_FLOOR, 1.0, num / (c2 * c2 + num))
    return pref * np.asarray(dPhi) ** 2


# ---------------------------------------------------------------------------
# exact reference trajectory
# ---------------------------------------------------------------------------


def _poisson_bucket(u: float, lam: float) -> int:
    """0, 1, or 2 (meaning >= 2) by inverse CDF of Poisson(lam)."""
    p0 = math.exp(-lam)
    if u < p0:
        return 0
    if u < p0 * (1.0 + lam):
        return 1
    return 2


def run_protocol1(config: ProtocolConfig, rng: np.random.Generator) -> TrajectoryRecord:
    """One exact trajectory with full Dicke-vector state tracking.

    The state is evolved exactly (deletion branch, signal, projective QEC); the
    per-round phase increments are taken from the closed-form ratios and the
    derivative dPhi/dtheta from central differences of the same formulas at
    matched outcomes (common random numbers).
    """
    p = config.params
    g = p.g
    tau, theta = config.tau, config.theta
    h = FD_THETA_STEP
    uniforms = rng.random((config.r, 3))

    state = make_logical(p, Label.PLUS).state
    n_cur, s_cur = p.n_qubits, p.s
    counts = np.zeros((2, 2), dtype=int)
    Phi = dPhi = 0.0
    flag = invalid = False
    n_deleted = 0

    for i in range(config.r):
        u_del, u_sigma, u_syn = uniforms[i]
        lam = config.n_del * n_cur * tau
        t = _poisson_bucket(u_del, lam)
        if t >= 2:
            flag = True
            break
        if n_cur - t < p.n_qubits / 2:
            invalid = True
            break
        sigma = 0
        if t == 1:
            outs = delete(state, 1)
            p_sigma1 = sum(o.weight for o in outs if o.shift == 1)
            sigma = 1 if u_sigma < p_sigma1 else 0
            branch = next(o for o in outs if o.shift == sigma)
            state = branch.state
            n_deleted += 1
            pre_n, pre_s = n_cur, s_cur
            n_cur, s_cur = n_cur - 1, s_cur - sigma
        state = apply_signal(state, theta * tau)

        cur = p.with_shift(s_cur, n_cur)
        cw0, cw1 = logical_pair(cur)
        q0, q1, _ = q_vectors(cur)
        e0, e1 = cw0.inner(state), cw1.inner(state)
        d0, d1 = q0.inner(state), q1.inner(state)
        p_code = abs(e0) ** 2 + abs(e1) ** 2
        p_q = abs(d0) ** 2 + abs(d1) ** 2
        if u_syn < p_code:
            syn = 0
            amps = (e0 * cw0.amps + e1 * cw1.amps) / math.sqrt(p_code)
        elif u_syn < p_code + p_q:
            syn = 1
            amps = (d0 * cw0.amps + d1 * cw1.amps) / math.sqrt(p_q)
        else:
            flag = True
            break
        state = SymState(n_cur, amps)
        counts[t, syn] += 1

        # analytic phase increment and its theta-derivative at this outcome
        if t == 0:
            Phi += zeta(cur, theta * tau, syn)
            zp = zeta(cur, (theta + h) * tau, syn)
            zm = zeta(cur, (theta - h) * tau, syn)
            dPhi += (zp - zm) / (2.0 * h)
        else:
            vals = []
            for th in (theta, theta + h, theta - h):
                u_pair = one_deletion_ratios(g, [pre_n], [pre_s], [sigma], th * tau)
                vals.append(float(np.angle(u_pair[syn][0])))
            Phi += vals[0]
            dPhi += (vals[1] - vals[2]) / (2.0 * h)

    if flag or invalid:
        return TrajectoryRecord(
            counts, Phi, dPhi, flag, invalid, s_cur, float("nan"), 0.0, n_deleted
        )

    cur = p.with_shift(s_cur, n_cur)
    cw0, cw1 = logical_pair(cur)
    a0, a1 = cw0.inner(state), cw1.inner(state)
    phi_amp = math.atan2(abs(a1), abs(a0))
    fi = float(fi_phase_readout_vec(phi_amp, Phi, dPhi))
    return TrajectoryRecord(
        counts,
        Phi,
        dPhi,
        False,
        False,
        s_cur,
        abs(a0),
        fi,
        n_deleted,
        state_phase=float(np.angle(a1 / a0)),
    )


# ---------------------------------------------------------------------------
# vectorized lattice batch
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """Per-trajectory arrays plus the summary statistics the tests consume."""

    flag: np.ndarray
    invalid: np.ndarray
    counts: np.ndarray  # (n_traj, 2, 2)
    Phi: np.ndarray
    dPhi_dtheta: np.ndarray
    final_amp_a: np.ndarray
    fisher_information: np.ndarray
    n_deletions: np.ndarray
    final_shift: np.ndarray
    config: ProtocolConfig = None

    @property
    def success(self) -> np.ndarray:
        return ~(self.flag | self.invalid)

    def nodel_syn1_rounds(self) -> int:
        """Rounds with syn = 1 and no deletion (the analytically dominant but
        practically unsampleable sector; see expected_fi_p1)."""
        return int(self.counts[:, 0, 1].sum())

    def failure_rate(self) -> float:
        return float(np.mean(self.flag))

    def mean_fi(self) -> float:
        ok = self.success
        return float(np.mean(self.fisher_information[ok])) if ok.any() else 0.0

    def se_fi(self) -> float:
        ok = self.success
        n = int(ok.sum())
        if n < 2:
            return float("nan")
        return float(np.std(self.fisher_information[ok], ddof=1) / math.sqrt(n))

    def summary(self) -> dict:
        cfg = self.config
        return {
            "n_traj": int(self.flag.size),
            "mean_FI": self.mean_fi(),
            "se_FI": self.se_fi(),
            "p_flag_emp": self.failure_rate(),
            "p_flag_bound": cfg.failure_bound() if cfg else float("nan"),
            "mean_deletions": float(np.mean(self.n_deletions)),
        }


def parse_threads(raw: str | None) -> int:
    """Worker count from a SYMSENSE_THREADS value: 1 when unset, at most os.cpu_count()."""
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SYMSENSE_THREADS must be an integer >= 1, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def run_protocol1_batch(config: ProtocolConfig, n_traj: int) -> BatchResult:
    """Lock-step Monte-Carlo over n_traj trajectories on the code lattice.

    Exact within float arithmetic: the lattice amplitudes, one-deletion
    binomial ratios (N-w)/N and w/N, and the QEC projections are the same
    quantities the reference path computes on full Dicke vectors.

    ``[0, n_traj)`` is cut into spans of BATCH_SPAN trajectories that run
    one after another, or on SYMSENSE_THREADS > 1 worker processes (clamped
    to the CPU count), and are concatenated.  Randomness is keyed per
    trajectory index, so serial and pooled runs agree bit for bit.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    workers = parse_threads(os.environ.get("SYMSENSE_THREADS"))
    los = range(0, n_traj, BATCH_SPAN)
    span_args = ([config] * len(los), los, [min(lo + BATCH_SPAN, n_traj) for lo in los])
    if workers > 1 and len(los) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(los))) as pool:
            parts = list(pool.map(_run_batch_span, *span_args))
    else:
        parts = list(map(_run_batch_span, *span_args))
    merged = {
        f.name: np.concatenate([getattr(part, f.name) for part in parts])
        for f in fields(BatchResult)
        if f.name != "config"
    }
    return BatchResult(config=config, **merged)


def _span_uniforms(seed: int, lo: int, hi: int, r: int) -> np.ndarray:
    """(hi - lo, r, 3) uniforms whose row j is trajectory_rng(seed, lo + j).random((r, 3)).

    One generator, trajectory_rng(seed, lo), serves the span: before each row
    its Philox is put back into the state of a fresh stream with key
    (seed, index) -- counter 0, buffer empty -- which is much cheaper than
    constructing a generator per trajectory.
    """
    gen = trajectory_rng(seed, lo)
    fresh = gen.bit_generator.state
    key = fresh["state"]["key"]
    out = np.empty((hi - lo, r, 3))
    for j in range(hi - lo):
        key[1] = lo + j
        gen.bit_generator.state = fresh
        gen.random(out=out[j])
    return out


def _run_batch_span(config: ProtocolConfig, lo: int, hi: int) -> BatchResult:
    """Trajectories [lo, hi) in lock-step over full-width (hi - lo, 4) lattice arrays.

    Every row is updated every round and aborts only clear ``alive``: an
    aborted row adds no counts, phases or deletions after its abort, and its
    amplitudes, which keep being updated, are not read: as in
    :func:`run_protocol1`, its ``final_amp_a`` is NaN and its FI is 0.
    """
    n_traj = hi - lo
    p = config.params
    g, N0, s0 = p.g, p.n_qubits, p.s
    tau, theta = config.tau, config.theta
    h = FD_THETA_STEP
    c_prof, q_prof = _n3_profiles()
    even = np.array([1.0, 0.0, 1.0, 0.0])
    odd = 1.0 - even
    c_even, c_odd = c_prof * even, c_prof * odd
    q_even, q_odd = q_prof * even, q_prof * odd
    k_idx = np.arange(4, dtype=float)
    U = _span_uniforms(config.seed, lo, hi, config.r)

    # phase increments of a round by outcome 2 t + syn (t = 1 rows are
    # overwritten with their one-deletion phases); outcome 4 is an aborted row
    z_now = _zeta_pair(g, theta * tau)
    z_plus = _zeta_pair(g, (theta + h) * tau)
    z_minus = _zeta_pair(g, (theta - h) * tau)
    z_dthe = [(z_plus[j] - z_minus[j]) / (2 * h) for j in (0, 1)]
    z_inc = np.array([*z_now, *z_now, 0.0])
    z_dinc = np.array([*z_dthe, *z_dthe, 0.0])

    # the signal phases of a row depend only on its deletions d and shifts k
    # so far (n = N0 - d, s = s0 - k): row d * (dcap + 1) + k of ph_tab
    def phase_table(dcap):
        steps = np.arange(dcap + 1)
        n_tab = (N0 - steps)[:, None, None]
        w_tab = g * k_idx + (s0 - steps)[None, :, None].astype(float)
        return np.exp(-1j * theta * tau * (0.5 * n_tab - w_tab)).reshape(-1, 4)

    dcap = 4
    ph_tab = phase_table(dcap)

    amp = np.tile((c_prof / math.sqrt(2.0)).astype(complex), (n_traj, 1))
    n_cur = np.full(n_traj, N0, dtype=np.int64)
    s_cur = np.full(n_traj, s0, dtype=np.int64)
    alive = np.ones(n_traj, dtype=bool)
    flag = np.zeros(n_traj, dtype=bool)
    invalid = np.zeros(n_traj, dtype=bool)
    counts = np.zeros((4, n_traj), dtype=np.int64)  # row 2 t + syn
    Phi = np.zeros(n_traj)
    dPhi = np.zeros(n_traj)

    for i in range(config.r):
        if not alive.any():
            break
        u_del, u_sigma, u_syn = U[:, i, 0], U[:, i, 1], U[:, i, 2]
        lam = config.n_del * n_cur * tau
        p0 = np.exp(-lam)
        t2 = alive & (u_del >= p0 * (1.0 + lam))
        t1 = alive & (u_del >= p0) & ~t2
        low = alive & ~t2 & (n_cur - t1 < N0 / 2)
        flag |= t2
        invalid |= low
        alive &= ~(t2 | low)
        t1 &= ~low

        # --- one-deletion rows: branch sample and amplitude update
        drow = np.nonzero(t1)[0]
        if drow.size:
            pre_n, pre_s = n_cur[drow], s_cur[drow]
            w = g * k_idx[None, :] + pre_s[:, None].astype(float)
            ratio1 = w / pre_n[:, None]
            prob1 = np.sum(np.abs(amp[drow]) ** 2 * ratio1, axis=1)
            sigma = (u_sigma[drow] < prob1).astype(np.int64)
            ratio = np.where(sigma[:, None] > 0, ratio1, 1.0 - ratio1)
            new = amp[drow] * np.sqrt(np.maximum(ratio, 0.0))
            new /= np.sqrt(np.sum(np.abs(new) ** 2, axis=1))[:, None]
            amp[drow] = new
            n_cur[drow] -= 1
            s_cur[drow] -= sigma
            dmax = N0 - int(n_cur[drow].min())
            if dmax > dcap:
                dcap = 2 * dmax
                ph_tab = phase_table(dcap)

        # --- signal phases on the (post-deletion) lattice
        amp *= ph_tab[(N0 - n_cur) * (dcap + 1) + (s0 - s_cur)]

        # --- QEC projections
        e0 = amp @ c_even
        e1 = amp @ c_odd
        d0 = amp @ q_even
        d1 = amp @ q_odd
        p_code = np.abs(e0) ** 2 + np.abs(e1) ** 2
        p_q = np.abs(d0) ** 2 + np.abs(d1) ** 2
        syn0 = u_syn < p_code
        syn1 = (~syn0) & (u_syn < p_code + p_q)
        failed = alive & ~(syn0 | syn1)
        flag |= failed
        alive &= ~failed
        t1 &= ~failed
        # (e0 c_even + e1 c_odd) / sqrt(p_code) on syn = 0, the d pair over
        # sqrt(p_q) on syn = 1: scaling by the reciprocal gives the bits of
        # that complex division
        lc0 = np.where(syn0, e0, d0)
        lc1 = np.where(syn0, e1, d1)
        scl = 1.0 / np.sqrt(np.where(syn0, p_code, np.where(syn1, p_q, 1.0)))
        amp[:, 0::2] = lc0[:, None] * c_prof[0::2]
        amp[:, 1::2] = lc1[:, None] * c_prof[1::2]
        amp *= scl[:, None]

        # --- bookkeeping: counts, Phi, dPhi
        outcome = np.where(alive, 2 * t1 + syn1, 4)
        for j in range(4):
            counts[j] += outcome == j
        inc = z_inc[outcome]
        dinc = z_dinc[outcome]
        if drow.size and t1[drow].any():
            kept = t1[drow]
            rows = drow[kept]
            vals = []
            for th in (theta, theta + h, theta - h):
                u0_, u1_ = one_deletion_ratios(
                    g, pre_n[kept], pre_s[kept], sigma[kept], th * tau
                )
                vals.append(np.angle(np.where(syn1[rows], u1_, u0_)))
            inc[rows] = vals[0]
            dinc[rows] = (vals[1] - vals[2]) / (2 * h)
        Phi += inc
        dPhi += dinc

    ok = ~(flag | invalid)
    a0 = amp @ c_even
    a1 = amp @ c_odd
    phi_amp = np.arctan2(np.abs(a1), np.abs(a0))
    fi = np.where(ok, fi_phase_readout_vec(phi_amp, Phi, dPhi), 0.0)
    return BatchResult(
        flag=flag,
        invalid=invalid,
        counts=np.ascontiguousarray(counts.T).reshape(n_traj, 2, 2),
        Phi=Phi,
        dPhi_dtheta=dPhi,
        final_amp_a=np.where(ok, np.abs(a0), np.nan),
        fisher_information=fi,
        n_deletions=N0 - n_cur,
        final_shift=s_cur,
        config=config,
    )


# ---------------------------------------------------------------------------
# analytic leading-order expectation
# ---------------------------------------------------------------------------


def _round_classes(config: ProtocolConfig) -> list[tuple[float, float, float, float]]:
    """Per-round outcome classes as (probability, |u|, phase, dphase/dtheta).

    Six classes at leading order (per-round quantities frozen at the initial
    N, s; the O(1/N) drift over a trajectory is beyond leading order):

    * no deletion, syn 0/1 -- phases zeta_0 / zeta_1, |u| = 1 exactly;
    * one deletion with shift sigma in {0, 1}, syn 0/1 -- phases and amplitude
      ratios from the exact sandwich inner products.  The deleted state's
      epsilon-component gives syn = 1 a per-round probability of order
      g^2 n / N^2 here (vastly larger than the no-deletion q-space weight),
      which is what makes these rare rounds dominate E[F].

    Probabilities are conditioned on not flagging (the flag remainder is
    dropped and the class weights renormalized by the caller).
    """
    p = config.params
    g, n, N, s = p.g, p.n, p.n_qubits, p.s
    tau, theta = config.tau, config.theta
    h = FD_THETA_STEP
    lam = config.n_del * N * tau
    p_del = lam / (1.0 + lam)

    x = 0.5 * g * theta * tau
    p_code0, p_q0, _ = pflag_closed_form(n, x)
    z_tri = [
        (zeta(p, th * tau, 0), zeta(p, th * tau, 1))
        for th in (theta, theta + h, theta - h)
    ]
    dz0 = (z_tri[1][0] - z_tri[2][0]) / (2 * h)
    dz1 = (z_tri[1][1] - z_tri[2][1]) / (2 * h)
    classes = [
        ((1.0 - p_del) * p_code0, 1.0, z_tri[0][0], dz0),
        ((1.0 - p_del) * p_q0, 1.0, z_tri[0][1], dz1),
    ]

    c_prof, q_prof = _n3_profiles()
    k = np.arange(4, dtype=float)
    w = g * k + s
    prob_sigma1 = float(np.sum(0.5 * c_prof**2 * w) / N)
    for sigma in (0, 1):
        ratio = w / N if sigma else 1.0 - w / N
        prim = c_prof * np.sqrt(ratio)  # primed-state amplitudes (subnormalized)
        norm_sq = float(prim @ prim)
        tri0, tri1 = [], []
        for th in (theta, theta + h, theta - h):
            ph = np.exp(1j * th * tau * (w - sigma))
            term = prim * ph
            e0 = c_prof[0] * term[0] + c_prof[2] * term[2]
            e1 = c_prof[1] * term[1] + c_prof[3] * term[3]
            d0 = q_prof[0] * term[0] + q_prof[2] * term[2]
            d1 = q_prof[1] * term[1] + q_prof[3] * term[3]
            tri0.append((e0, e1))
            tri1.append((d0, d1))
        p_sig = p_del * (prob_sigma1 if sigma else 1.0 - prob_sigma1)
        # syn probabilities at equal logical amplitudes a = b = 1/sqrt(2)
        e0, e1 = tri0[0]
        d0, d1 = tri1[0]
        p_code = 0.5 * (abs(e0) ** 2 + abs(e1) ** 2) / (0.5 * norm_sq)
        p_q = 0.5 * (abs(d0) ** 2 + abs(d1) ** 2) / (0.5 * norm_sq)
        for tri, p_syn in ((tri0, p_code), (tri1, p_q)):
            us = [pair[1] / pair[0] for pair in tri]
            phi = float(np.angle(us[0]))
            dphi = float((np.angle(us[1]) - np.angle(us[2])) / (2 * h))
            classes.append((p_sig * p_syn, abs(us[0]), phi, dphi))
    return classes


def expected_fi_p1(
    config: ProtocolConfig,
    max_counts: tuple = (1, 6, 2, 6, 2),
    include_nodel_syn1: bool = True,
    max_total_syn1: int | None = None,
) -> dict:
    """Leading-order analytic E[F] for Protocol 1, plus the published constants.

    Enumerates trajectories by their per-round outcome counts over the six
    classes of :func:`_round_classes` (all but the dominant no-deletion syn=0
    class are rare, so the enumeration is truncated at ``max_counts``), folds
    the plus/minus readout prefactor exactly, and averages.  Everything uses
    the exact zeta / sandwich-ratio functions, hence the direct-expansion
    cubic coefficient zeta_0 ~ -(g Delta)^3 / 4.

    ``include_nodel_syn1=False`` drops the no-deletion syn = 1 sector: its
    per-trajectory probability is ~ r n (g theta tau)^2 / 4 (around 1e-6 at
    protocol scales) but each hit carries an enormous FI, so no affordable
    Monte-Carlo run resolves it; excluding it on both sides makes the
    analytic-vs-empirical comparison meaningful (the batch result reports the
    corresponding event count so the exclusion can be asserted).
    ``max_total_syn1`` truncates the enumeration at that many syn = 1 rounds
    per trajectory for the same reason one order higher: trajectories with two
    shift-balanced syn = 1 deletions recover a near-unit readout prefactor and
    an FI ~ (2 dphi_11/dtheta)^2, at a per-trajectory probability ~ 1e-8.

    For reference the dictionary also reports the two r^2-scaling constants:
    ``r2_formula_stated`` is the published 37/64 r^2 g^6 tau^6 theta^4,
    ``r2_formula_quarter`` the (r dzeta0/dtheta)^2 = (9/16) r^2 g^6 tau^6
    theta^4 that the -1/4 cubic coefficient implies for the pure syn=0 sector.
    """
    p = config.params
    g = p.g
    r = config.r
    tau, theta = config.tau, config.theta
    classes = _round_classes(config)
    if not include_nodel_syn1:
        classes = [classes[0], (0.0,) + classes[1][1:]] + classes[2:]
    rare = classes[1:]

    log_fact = [math.lgamma(i + 1) for i in range(r + 1)]

    mean = 0.0
    total_p = 0.0
    ranges = [range(min(cap, r) + 1) for cap in max_counts]
    import itertools as _it

    for counts in _it.product(*ranges):
        m = sum(counts)
        if m > r:
            continue
        if max_total_syn1 is not None and counts[0] + counts[2] + counts[4] > max_total_syn1:
            continue  # rare classes are (nodel-syn1, del0-syn0, del0-syn1, del1-syn0, del1-syn1)
        m_base = r - m
        log_p = log_fact[r] - log_fact[m_base] + m_base * math.log(classes[0][0])
        Phi = m_base * classes[0][2]
        dPhi = m_base * classes[0][3]
        mod_u = 1.0
        for cnt, (prob, mod, phi, dphi) in zip(counts, rare):
            if cnt == 0:
                continue
            if prob <= 0.0:
                log_p = -math.inf
                break
            log_p += cnt * math.log(prob) - log_fact[cnt]
            Phi += cnt * phi
            dPhi += cnt * dphi
            mod_u *= mod**cnt
        if log_p == -math.inf:
            continue
        prob_traj = math.exp(log_p)
        if prob_traj < 1e-18:
            continue
        phi_amp = math.atan(mod_u)  # tan(phi) = |b/a| Prod|u| with a = b initially
        fi = float(fi_phase_readout_vec(phi_amp, Phi, dPhi))
        mean += prob_traj * fi
        total_p += prob_traj
    mean /= total_p

    base = r * r * g**6 * tau**6 * theta**4
    return {
        "mean_fi": mean,
        "sector_probability": total_p,
        "del_syn1_round_prob": classes[3][0] + classes[5][0],
        "r2_formula_stated": (37.0 / 64.0) * base,
        "r2_formula_quarter": (9.0 / 16.0) * base,
        "p_zero_deletions": (classes[0][0] + classes[1][0]) ** r,
    }


# ---------------------------------------------------------------------------
# protocols 2 and 3, baselines
# ---------------------------------------------------------------------------


def run_protocol2(config: ProtocolConfig, n_traj: int = 2000) -> dict:
    """Repeat Protocol 1 r^(q-1) times: E[F_P2] = r^(q-1) (1 - f1) E[F_P1 | success]."""
    batch = run_protocol1_batch(config, n_traj)
    reps = float(config.r) ** (config.q - 1.0)
    f1 = batch.failure_rate()
    fi = reps * (1.0 - f1) * batch.mean_fi()
    return {
        "fi_p2": fi,
        "repetitions": reps,
        "failure_rate": f1,
        "mean_fi_p1": batch.mean_fi(),
    }


def run_protocol3(c1: float, k: int, q, e1, e2) -> list[Fraction]:
    """Iterate the prior-knowledge exponent: c_{j+1} = p2_exponent(c_j) / 2.

    Converges to the fixed point of the repeated-protocol exponent map; at
    e1 = e2 = 0 the fixed point is 1 (Heisenberg scaling), strictly below 1
    for positive error budgets.
    """
    from symsense.optimizer import LPInstance, p2_exponent
    from symsense.symcore import as_fraction

    cs = [as_fraction(c1)]
    for _ in range(k):
        inst = LPInstance(cs[-1], as_fraction(q), Fraction(1), as_fraction(e1), as_fraction(e2))
        cs.append(p2_exponent(inst) / 2)
    return cs


def baselines(N: int, eta: float, q: float, gamma_rounds: float) -> tuple[float, float]:
    """(SNL exponent, repeated-GHZ exponent) in log_N of the Fisher information.

    SNL: N classical probes over the protocol duration r^(1-q) give
    1 + 2 gamma (1 - q).  GHZ: max{2 - 2 eta, -2 gamma (q - 1)}, which is
    2 - 2 eta for q >= 1 and eta in [0, 1].
    """
    snl = 1.0 + 2.0 * gamma_rounds * (1.0 - q)
    ghz = max(2.0 - 2.0 * eta, -2.0 * gamma_rounds * (q - 1.0))
    return snl, ghz


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


_JSONL_ROW = (
    '{"index": %d, "flag": %s, "invalid_regime": %s, "counts": [[%d, %d], [%d, %d]], '
    '"Phi": %s, "dPhi_dtheta": %s, "final_amp_a": %s, "fisher_information": %s, '
    '"n_deletions": %d, "final_shift": %d}\n'
)
_JSON_BOOL = ("false", "true")


def _json_floats(col: np.ndarray) -> list[str]:
    """json.dumps spellings of a float column, each distinct bit pattern spelled once.

    A Monte-Carlo column holds few distinct values (trajectories with the
    same outcomes share them); keying on the bits keeps -0.0 apart from 0.0.
    """
    bits, where = np.unique(np.asarray(col, dtype=np.float64).view(np.int64), return_inverse=True)
    spelled = np.array([json.dumps(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return spelled[where].tolist()


def write_trajectories_jsonl(batch: BatchResult, path):
    """One JSON object per trajectory, byte-identical to json.dumps of each row dict.

    Columns are converted BATCH_SPAN rows at a time and poured into a fixed
    row template.
    """
    with open(path, "w") as fh:
        for lo in range(0, batch.flag.size, BATCH_SPAN):
            sl = slice(lo, lo + BATCH_SPAN)
            counts = batch.counts[sl]
            cols = (
                range(lo, lo + counts.shape[0]),
                map(_JSON_BOOL.__getitem__, batch.flag[sl].tolist()),
                map(_JSON_BOOL.__getitem__, batch.invalid[sl].tolist()),
                counts[:, 0, 0].tolist(),
                counts[:, 0, 1].tolist(),
                counts[:, 1, 0].tolist(),
                counts[:, 1, 1].tolist(),
                _json_floats(batch.Phi[sl]),
                _json_floats(batch.dPhi_dtheta[sl]),
                _json_floats(batch.final_amp_a[sl]),
                _json_floats(batch.fisher_information[sl]),
                batch.n_deletions[sl].tolist(),
                batch.final_shift[sl].tolist(),
            )
            fh.writelines(map(_JSONL_ROW.__mod__, zip(*cols)))


def write_summary_csv(batch: BatchResult, path):
    import csv as _csv

    cfg = batch.config
    s = batch.summary()
    with open(path, "w", newline="") as fh:
        wr = _csv.writer(fh)
        header = ["g", "n", "u", "s", "N", "r", "q", "theta", "n_del", "seed"]
        header += ["n_traj", "mean_FI", "se_FI", "p_flag_emp", "p_flag_bound", "mean_deletions"]
        wr.writerow(header)
        p = cfg.params
        wr.writerow(
            [
                p.g,
                p.n,
                str(p.u),
                p.s,
                p.n_qubits,
                cfg.r,
                cfg.q,
                cfg.theta,
                cfg.n_del,
                cfg.seed,
                s["n_traj"],
                s["mean_FI"],
                s["se_FI"],
                s["p_flag_emp"],
                s["p_flag_bound"],
                s["mean_deletions"],
            ]
        )
