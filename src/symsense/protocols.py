"""Monte-Carlo simulation of the QEC-while-sensing protocols and analytic baselines.

Protocol 1 runs r rounds of {Poisson deletions -> signal -> QEC round}, aborts
on the failure flag, and reads out in the logical plus/minus basis; its Fisher
information comes from the accumulated logical phase Phi and its
theta-derivative.

Each round starts from a logical pair a|0_L> + b|1_L> of the current n = 3
code and maps (a, b) -> (a X_0, b X_1) / sqrt(P).  With one deletion the
factors are the lattice sums of :func:`one_deletion_ratios`: E_0, E_1 onto the
codespace (syn = 0) or D_0, D_1 onto the q-space (syn = 1), the deletion's
binomial sqrt-ratios folded in, returned with their analytic theta-derivatives
and the deleted state's norm weights.  The phase increment is arg(X_1/X_0) and
its derivative Im(dX_1/X_1 - dX_0/X_0).  Without a deletion the closed forms
``zeta``, ``zeta_derivative`` and ``pflag_closed_form`` of :mod:`symsense.qec`
take their place.  Two implementations are provided:

* :func:`run_protocol1` -- exact reference: full Dicke-vector state tracking,
  one trajectory at a time, its signal applied on the state's known support
  only; only its Phi bookkeeping uses the shared formulas.
* :func:`run_protocol1_batch` -- vectorized lattice twin: BATCH_SPAN
  trajectories advance in lock-step, each as its logical weights
  (|a|^2, |b|^2).  Every trajectory consumes a pre-drawn (r, 3) uniform block
  from a Philox stream keyed by (seed, trajectory index), so the two paths
  replay each other; the batch resets one Philox per span to each key.  A
  row's quiet rounds before its first deletion or syndrome 1 keep its
  weights at (1/2, 1/2) and add only to its counts, Phi and dPhi, so each
  row joins the lock-step at its first event with those rounds' running
  sums, bit for bit what the rounds would have added.

The batch has one span loop, :func:`protocol1_spans`.  Its spans run on a
process pool with one worker per usable CPU by default (SYMSENSE_THREADS=1
runs them in this process) and arrive in index order; because every stream
is keyed by its trajectory index, the worker count never changes a bit of
the result.  :func:`run_protocol1_batch` concatenates the spans; the CLI's
JSONL exporter (:mod:`symsense.cli`) writes each one as it arrives.  This
module reads and writes no files.

Per-round randomness: uniform[0] resolves the deletion count (inverse CDF of
the Poisson truncated at >= 2, which aborts), uniform[1] the deletion shift
sigma, uniform[2] the QEC syndrome.  A trajectory stops as an invalid regime
before a deletion that would leave fewer than half its starting qubits, and
after one that leaves a code which no longer fits (N - s < g n, or s < 0).
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from symsense.codes import GnuParams, Label, code_fits, logical_pair, make_logical
from symsense.metrology import PI_4_COS_FLOOR
from symsense.noise import delete
from symsense.qec import pflag_closed_form, q_vectors, zeta, zeta_derivative
from symsense.symcore import SymState, signal_phases

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
        for name in ("q", "theta", "n_del"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_del < 0:
            raise ValueError(f"n_del must be >= 0, got {self.n_del!r}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            # a Philox key word is 64 bits; wider or negative seeds would be wrapped or rounded
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

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
    """Counter-based per-trajectory stream; parallel and serial runs agree.

    The Philox key is (seed, index) as two exact 64-bit words.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# per-round lattice sums (shared by every Protocol-1 path)
# ---------------------------------------------------------------------------

# n = 3 profiles over the lattice k = 0..3: codeword amplitudes c_k (even k
# carry |0_L>, odd k |1_L>) and q-vector amplitudes q_k
_K = np.arange(4, dtype=float)
_C = 0.5 * np.array([1.0, math.sqrt(3.0), math.sqrt(3.0), 1.0])
_Q = _C * (2.0 / math.sqrt(3.0)) * (1.5 - _K)


class LatticeSums(NamedTuple):
    """Factors X = (E_0, E_1, D_0, D_1) of a round with one deletion, stacked
    on axis 0, their theta-derivatives dX, and the deleted state's norm
    weights A (even k) and B (odd k)."""

    X: np.ndarray
    dX: np.ndarray
    A: np.ndarray
    B: np.ndarray


def _pairs(t, prof):
    """(even-k, odd-k) sums of prof * t over the lattice (last) axis."""
    return prof[0] * t[..., 0] + prof[2] * t[..., 2], prof[1] * t[..., 1] + prof[3] * t[..., 3]


def one_deletion_ratios(g: int, n_qubits, s, sigma, delta: float, tau: float) -> LatticeSums:
    """Lattice sums of a round with one deletion of shift sigma, vectorized.

    ``n_qubits``, ``s``, ``sigma`` refer to the code *before* the deletion and
    broadcast against each other.  Weight w = g k + s keeps sqrt((N - w)/N)
    of its amplitude on sigma = 0 and sqrt(w/N) on sigma = 1, moves to
    w - sigma and picks up e^{i delta (w - sigma)} (the common e^{-i delta N'/2}
    is dropped), whose theta-derivative is i tau (w - sigma) times itself.
    X_1/X_0 is the codespace ratio <1|U|1'>/<0|U|0'> for the E pair and the
    q-space ratio for the D pair; their arguments are phi_{1,0} and phi_{1,1}.
    """
    N = np.asarray(n_qubits, dtype=float)[..., None]
    sig = np.asarray(sigma, dtype=float)[..., None]
    w = g * _K + np.asarray(s, dtype=float)[..., None]
    ratio = np.maximum(np.where(sig > 0.5, w / N, 1.0 - w / N), 0.0)
    term = np.sqrt(ratio) * _C * np.exp(1j * delta * (w - sig))
    dterm = (1j * tau) * (w - sig) * term
    X, dX = (np.stack([*_pairs(t, _C), *_pairs(t, _Q)]) for t in (term, dterm))
    return LatticeSums(X, dX, *_pairs(ratio, _C * _C))


def _phase_step(x0, x1, dx0, dx1):
    """arg(x1 / x0) and its theta-derivative Im(dx1/x1 - dx0/x0)."""
    return np.angle(x1 / x0), (dx1 / x1 - dx0 / x0).imag


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


class _CodeFrame(NamedTuple):
    """A code's lattice, |0_L>, |1_L>, q_0, q_1, both codewords on the lattice, and its signal phases."""

    lattice: np.ndarray
    cw0: np.ndarray
    cw1: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    cw0_lat: np.ndarray
    cw1_lat: np.ndarray
    phases: np.ndarray


def _code_frame(params: GnuParams, s: int, n_qubits: int, delta: float) -> _CodeFrame:
    """The frame of the (g, n) code shifted to (s, n_qubits), for a signal delta per round."""
    cur = params.with_shift(s, n_qubits)
    lattice = cur.weight_lattice()
    cw0, cw1 = logical_pair(cur)
    q0, q1 = q_vectors(cur)[:2]
    return _CodeFrame(lattice, cw0.amps, cw1.amps, q0.amps, q1.amps,
                      cw0.amps[lattice], cw1.amps[lattice], signal_phases(n_qubits, lattice, delta))


def _on_weights(n_qubits: int, weights: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The length-(n_qubits + 1) amplitude vector holding ``amps`` at ``weights``, zero elsewhere."""
    full = np.zeros(n_qubits + 1, dtype=complex)
    full[weights] = amps
    return full


def run_protocol1(config: ProtocolConfig, rng: np.random.Generator) -> TrajectoryRecord:
    """One exact trajectory with full Dicke-vector state tracking.

    The state is evolved exactly (deletion branch, signal, projective QEC).
    The per-round phase increments and their theta-derivatives at the
    realized outcomes are analytic: ``zeta`` and ``zeta_derivative`` without
    a deletion, the lattice sums of :func:`one_deletion_ratios` with one.

    The state is kept on a known support: the code lattice after a QEC
    round, the branch's non-zero weights after a deletion.  A round writes
    the signal-evolved support into a zero Dicke vector and projects it with
    full-vector ``np.vdot``s against the :func:`_code_frame` arrays, which
    equals ``apply_signal`` then ``SymState.inner`` bit for bit.
    """
    p = config.params
    g = p.g
    tau, delta = config.tau, config.theta * config.tau
    z = [zeta(p, delta, j) for j in (0, 1)]
    dz = [tau * zeta_derivative(p, delta, j) for j in (0, 1)]
    uniforms = rng.random((config.r, 3)).tolist()

    N0 = n_cur = p.n_qubits
    s_cur = p.s
    counts = np.zeros((2, 2), dtype=int)
    Phi = dPhi = 0.0
    flag = invalid = False
    n_deleted = 0

    frame = _code_frame(p, s_cur, n_cur, delta)
    # the state: amplitudes `amps` on the weights `support`, whose signal phases are `phases`
    support, phases = frame.lattice, frame.phases
    amps = make_logical(p, Label.PLUS).state.amps[support]
    for u_del, u_sigma, u_syn in uniforms:
        lam = config.n_del * n_cur * tau
        t = _poisson_bucket(u_del, lam)
        if t >= 2:
            flag = True
            break
        if n_cur - t < N0 / 2:
            invalid = True
            break
        sigma = 0
        if t == 1:
            outs = delete(SymState(n_cur, _on_weights(n_cur, support, amps)), 1)
            p_sigma1 = sum(o.weight for o in outs if o.shift == 1)
            sigma = 1 if u_sigma < p_sigma1 else 0
            branch = next(o for o in outs if o.shift == sigma).state.amps
            n_deleted += 1
            pre_n, pre_s = n_cur, s_cur
            n_cur, s_cur = n_cur - 1, s_cur - sigma
            if not code_fits(p, n_cur, s_cur):
                invalid = True
                break
            frame = _code_frame(p, s_cur, n_cur, delta)
            support = np.flatnonzero(branch)
            amps, phases = branch[support], signal_phases(n_cur, support, delta)
        evolved = _on_weights(n_cur, support, amps * phases)

        e0, e1 = complex(np.vdot(frame.cw0, evolved)), complex(np.vdot(frame.cw1, evolved))
        d0, d1 = complex(np.vdot(frame.q0, evolved)), complex(np.vdot(frame.q1, evolved))
        p_code = abs(e0) ** 2 + abs(e1) ** 2
        p_q = abs(d0) ** 2 + abs(d1) ** 2
        if u_syn < p_code:
            syn, c0, c1, p_syn = 0, e0, e1, p_code
        elif u_syn < p_code + p_q:
            syn, c0, c1, p_syn = 1, d0, d1, p_q
        else:
            flag = True
            break
        support, phases = frame.lattice, frame.phases
        amps = (c0 * frame.cw0_lat + c1 * frame.cw1_lat) / math.sqrt(p_syn)
        counts[t, syn] += 1

        # analytic phase increment and its theta-derivative at this outcome
        if t == 0:
            Phi += z[syn]
            dPhi += dz[syn]
        else:
            X, dX = one_deletion_ratios(g, pre_n, pre_s, sigma, delta, tau)[:2]
            inc, dinc = _phase_step(X[2 * syn], X[2 * syn + 1], dX[2 * syn], dX[2 * syn + 1])
            Phi += float(inc)
            dPhi += float(dinc)

    if flag or invalid:
        return TrajectoryRecord(
            counts, Phi, dPhi, flag, invalid, s_cur, float("nan"), 0.0, n_deleted
        )

    final = _on_weights(n_cur, support, amps)
    a0, a1 = complex(np.vdot(frame.cw0, final)), complex(np.vdot(frame.cw1, final))
    phi_amp = math.atan2(abs(a1), abs(a0))
    fi = float(fi_phase_readout_vec(phi_amp, Phi, dPhi))
    return TrajectoryRecord(counts, Phi, dPhi, False, False, s_cur, abs(a0), fi, n_deleted,
                            state_phase=float(np.angle(a1 / a0)))


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
    config: ProtocolConfig

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

    @classmethod
    def concatenate(cls, parts: list[BatchResult], config: ProtocolConfig) -> BatchResult:
        """The consecutive spans ``parts`` as one batch of ``config``."""
        merged = {
            f.name: np.concatenate([getattr(part, f.name) for part in parts])
            for f in fields(cls)
            if f.name != "config"
        }
        return cls(config=config, **merged)

    def summary(self) -> dict:
        return {
            "n_traj": int(self.flag.size),
            "mean_FI": self.mean_fi(),
            "se_FI": self.se_fi(),
            "p_flag_emp": self.failure_rate(),
            "p_flag_bound": self.config.failure_bound(),
            "mean_deletions": float(np.mean(self.n_deletions)),
        }


def parse_threads(raw: str | None) -> int:
    """Worker count from a SYMSENSE_THREADS value.

    Unset means every usable CPU: the process's affinity set where the
    platform has one, else ``os.cpu_count()``.  ``"1"`` is the serial run.
    Other values must be integers >= 1 and are clamped to the usable CPUs,
    so a CPU-restricted process is never oversubscribed.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if raw is None:
        return cpus
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SYMSENSE_THREADS must be an integer >= 1, got {raw!r}")
    return min(workers, cpus)


def protocol1_spans(config: ProtocolConfig, n_traj: int) -> Iterator[BatchResult]:
    """The spans of a Protocol-1 batch over ``[0, n_traj)``, in index order.

    ``n_traj`` and SYMSENSE_THREADS are checked here, before any span runs or
    any worker starts; the returned iterator does the work.  Each span holds
    BATCH_SPAN trajectories (the last one fewer).  With more than one worker
    and more than one span, the spans run on a process pool and arrive in
    order as they finish; otherwise they run one after another in this
    process.  Randomness is keyed per trajectory index, so every worker
    count gives the same spans bit for bit.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    workers = parse_threads(os.environ.get("SYMSENSE_THREADS"))
    los = range(0, n_traj, BATCH_SPAN)
    span_args = ([config] * len(los), los, [min(lo + BATCH_SPAN, n_traj) for lo in los])
    return _mapped_spans(min(workers, len(los)), span_args)


def _mapped_spans(workers: int, span_args) -> Iterator[BatchResult]:
    """_run_batch_span over span_args, in order, in this process or on a pool."""
    if workers == 1:
        yield from map(_run_batch_span, *span_args)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(_run_batch_span, *span_args)
    finally:
        # a consumer that stops early (an error while writing) leaves spans
        # that have not started; drop them instead of computing them
        pool.shutdown(cancel_futures=True)


def run_protocol1_batch(config: ProtocolConfig, n_traj: int) -> BatchResult:
    """Lock-step Monte-Carlo over n_traj trajectories on the code lattice.

    Exact within float arithmetic: the lattice amplitudes, one-deletion
    binomial ratios (N-w)/N and w/N, and the QEC projections are the same
    quantities the reference path computes on full Dicke vectors.

    Concatenates the spans of :func:`protocol1_spans`, which run on every
    usable CPU unless SYMSENSE_THREADS says otherwise; serial and pooled
    runs agree bit for bit.
    """
    return BatchResult.concatenate(list(protocol1_spans(config, n_traj)), config)


def _span_uniforms(seed: int, lo: int, hi: int, r: int) -> np.ndarray:
    """(hi - lo, r, 3) uniforms whose row j is trajectory_rng(seed, lo + j).random((r, 3)).

    One generator, trajectory_rng(seed, lo), serves the span: before each row
    its Philox is put back into the state of a fresh stream with key
    (seed, index) -- counter 0, buffer empty -- which is much cheaper than
    constructing a generator per trajectory.  The fresh state holds its words
    as Python-int lists rather than the getter's uint64 arrays, because the
    setter reads plain ints faster; a Python int carries all 64 bits of a key
    word.
    """
    gen = trajectory_rng(seed, lo)
    bitgen, random = gen.bit_generator, gen.random
    state = bitgen.state
    fresh = dict(state, state={name: words.tolist() for name, words in state["state"].items()},
                 buffer=state["buffer"].tolist())
    key = fresh["state"]["key"]
    out = np.empty((hi - lo, r, 3))
    for j, row in enumerate(out):
        key[1] = lo + j
        bitgen.state = fresh
        random(out=row)
    return out


def _run_batch_span(config: ProtocolConfig, lo: int, hi: int) -> BatchResult:
    """Trajectories [lo, hi) in lock-step over the logical weights (|a|^2, |b|^2) of each row.

    A round maps (a, b) -> (a X_0, b X_1) / sqrt(P) with the factors of its
    outcome: the closed-form no-deletion ones, or the lattice sums of
    :func:`one_deletion_ratios` on rows with a deletion.  Every probability
    is |a|^2 |X_0|^2 + |b|^2 |X_1|^2 over the deleted norm |a|^2 A + |b|^2 B,
    so the phases of a and b never feed back and only their squared moduli
    are carried; Phi is the sum of the analytic increments.

    A row's rounds before its first event are quiet: no deletion (u_del below
    p_0 at the starting N) and syndrome 0 (u_syn below p_code at Delta).  A
    quiet round leaves the weights at (1/2, 1/2) exactly and adds zeta_0 and
    its derivative, so each row starts at its first event round with the
    quiet count and the running sums of those increments, which are
    sequential like the rounds' own ``+=``.  The rows are stably sorted by
    that round, and round i runs only on the prefix of rows that have joined
    it; they go back to index order once, at the end.

    On the prefix, every row is updated every round and aborts only clear
    ``alive``: an aborted row adds no counts, phases or deletions after its
    abort, and its weights, which keep being updated, are not read: as in
    :func:`run_protocol1`, its ``final_amp_a`` is NaN and its FI is 0.
    """
    n_traj = hi - lo
    r = config.r
    p = config.params
    g, N0, s0 = p.g, p.n_qubits, p.s
    tau, delta = config.tau, config.theta * config.tau
    U = _span_uniforms(config.seed, lo, hi, r)

    # phase increments of a round by outcome 2 t + syn (t = 1 rows are
    # overwritten with their one-deletion phases); outcome 4 is an aborted row
    z = [zeta(p, delta, j) for j in (0, 1)]
    dz = [tau * zeta_derivative(p, delta, j) for j in (0, 1)]
    z_inc = np.array([*z, *z, 0.0])
    z_dinc = np.array([*dz, *dz, 0.0])
    p_code0, p_q0, _ = pflag_closed_form(p.n, 0.5 * g * delta)
    fac_nodel = np.array([[p_code0], [p_code0], [p_q0], [p_q0]])  # |X|^2 without deletion
    both_sigmas = np.array([[0], [1]])

    # --- quiet rounds: each row's first event round, the rows sorted by it.
    # p_0 at N0 is computed as the round loop computes it, so the two agree
    p0_start = np.exp(-(config.n_del * np.full(1, N0, dtype=np.int64) * tau))
    loud = (U[:, :, 0] >= p0_start) | (U[:, :, 2] >= p_code0)
    first = np.where(loud.any(axis=1), loud.argmax(axis=1), r)
    order = np.argsort(first, kind="stable")
    first = first[order]
    joined = np.searchsorted(first, np.arange(r), side="right")  # rows that run round i
    U = U[order[: joined[-1]]]  # rows that never join read no uniforms
    # Phi after f quiet rounds: +0.0 then f sequential additions, as in the loop
    # (starting from +0.0 keeps a -0.0 zeta_0 from signing the sum)
    quiet_Phi, quiet_dPhi = (np.cumsum(np.r_[0.0, np.full(r, x)]) for x in (z[0], dz[0]))

    mod2 = np.full((2, n_traj), 0.5)  # |a|^2, |b|^2
    n_cur = np.full(n_traj, N0, dtype=np.int64)
    s_cur = np.full(n_traj, s0, dtype=np.int64)
    alive = np.ones(n_traj, dtype=bool)
    flag = np.zeros(n_traj, dtype=bool)
    invalid = np.zeros(n_traj, dtype=bool)
    counts = np.zeros((4, n_traj), dtype=np.int64)  # row 2 t + syn
    counts[0] = first
    Phi = quiet_Phi[first]
    dPhi = quiet_dPhi[first]

    for i in range(r):
        k = joined[i]
        if not k:
            continue
        if not alive.any():
            break
        # views of the rows that have joined
        alive_k, flag_k, invalid_k = alive[:k], flag[:k], invalid[:k]
        n_k, s_k, mod2_k = n_cur[:k], s_cur[:k], mod2[:, :k]
        u_del, u_sigma, u_syn = U[:k, i, 0], U[:k, i, 1], U[:k, i, 2]
        lam = config.n_del * n_k * tau
        p0 = np.exp(-lam)
        t2 = alive_k & (u_del >= p0 * (1.0 + lam))
        t1 = alive_k & (u_del >= p0) & ~t2
        low = alive_k & ~t2 & (n_k - t1 < N0 / 2)
        flag_k |= t2
        invalid_k |= low
        alive_k &= ~(t2 | low)
        t1 &= ~low

        # --- |X|^2 of this round's outcome and the deleted norm; the sigma = 1
        # weights A, B give that branch's probability
        fac = np.repeat(fac_nodel, k, axis=1)
        norm = np.ones(k)
        drow = np.nonzero(t1)[0]
        if drow.size:
            both = one_deletion_ratios(g, n_k[drow], s_k[drow], both_sigmas, delta, tau)
            ma, mb = mod2_k[:, drow]
            sigma = (u_sigma[drow] < ma * both.A[1] + mb * both.B[1]).astype(np.int64)
            cols = np.arange(drow.size)
            X, dX = both.X[:, sigma, cols], both.dX[:, sigma, cols]
            fac[:, drow] = X.real**2 + X.imag**2
            norm[drow] = ma * both.A[sigma, cols] + mb * both.B[sigma, cols]
            n_k[drow] -= 1
            s_k[drow] -= sigma
            unfit = drow[~code_fits(p, n_k[drow], s_k[drow])]
            invalid_k[unfit] = True
            alive_k[unfit] = t1[unfit] = False

        # --- QEC projections
        P_code = mod2_k[0] * fac[0] + mod2_k[1] * fac[1]
        P_q = mod2_k[0] * fac[2] + mod2_k[1] * fac[3]
        p_code = P_code / norm
        syn0 = u_syn < p_code
        syn1 = (~syn0) & (u_syn < p_code + P_q / norm)
        failed = alive_k & ~(syn0 | syn1)
        flag_k |= failed
        alive_k &= ~failed
        t1 &= ~failed
        P_syn = np.where(syn0, P_code, np.where(syn1, P_q, 1.0))
        mod2_k[0] *= np.where(syn0, fac[0], fac[2]) / P_syn
        mod2_k[1] *= np.where(syn0, fac[1], fac[3]) / P_syn

        # --- bookkeeping: counts, Phi, dPhi
        outcome = np.where(alive_k, 2 * t1 + syn1, 4)
        for j in range(4):
            counts[j, :k] += outcome == j
        inc = z_inc[outcome]
        dinc = z_dinc[outcome]
        if drow.size and t1[drow].any():
            done = np.nonzero(t1[drow])[0]
            rows = drow[done]
            j = 2 * syn1[rows]
            inc[rows], dinc[rows] = _phase_step(
                X[j, done], X[j + 1, done], dX[j, done], dX[j + 1, done]
            )
        Phi[:k] += inc
        dPhi[:k] += dinc

    # --- back to index order
    back = np.argsort(order)
    flag, invalid, Phi, dPhi, n_cur, s_cur = (
        x[back] for x in (flag, invalid, Phi, dPhi, n_cur, s_cur)
    )
    ok = ~(flag | invalid)
    a_abs, b_abs = np.sqrt(mod2[:, back])
    phi_amp = np.arctan2(b_abs, a_abs)
    fi = np.where(ok, fi_phase_readout_vec(phi_amp, Phi, dPhi), 0.0)
    return BatchResult(
        flag=flag,
        invalid=invalid,
        counts=counts.T[back].reshape(n_traj, 2, 2),
        Phi=Phi,
        dPhi_dtheta=dPhi,
        final_amp_a=np.where(ok, a_abs, np.nan),
        fisher_information=fi,
        n_deletions=N0 - n_cur,
        final_shift=s_cur,
        config=config,
    )


# ---------------------------------------------------------------------------
# analytic leading-order expectation
# ---------------------------------------------------------------------------

# most rounds of each rare class a trajectory is enumerated with, in the order
# (nodel-syn1, del0-syn0, del0-syn1, del1-syn0, del1-syn1)
RARE_COUNT_CAPS = (1, 6, 2, 6, 2)


def _round_classes(config: ProtocolConfig) -> list[tuple[float, float, float, float]]:
    """Per-round outcome classes as (probability, |u|, phase, dphase/dtheta).

    Six classes at leading order (per-round quantities frozen at the initial
    N, s; the O(1/N) drift over a trajectory is beyond leading order):

    * no deletion, syn 0/1 -- phases zeta_0 / zeta_1, |u| = 1 exactly;
    * one deletion with shift sigma in {0, 1}, syn 0/1 -- phases and amplitude
      ratios from the lattice sums of :func:`one_deletion_ratios` at the
      initial (N, s).  The deleted state's epsilon-component gives syn = 1 a
      per-round probability of order g^2 n / N^2 here (vastly larger than the
      no-deletion q-space weight), which is what makes these rare rounds
      dominate E[F].

    Probabilities are conditioned on not flagging (the flag remainder is
    dropped and the class weights renormalized by the caller).
    """
    p = config.params
    g, n, N, s = p.g, p.n, p.n_qubits, p.s
    tau, delta = config.tau, config.theta * config.tau
    lam = config.n_del * N * tau
    p_del = lam / (1.0 + lam)

    p_code0, p_q0, _ = pflag_closed_form(n, 0.5 * g * delta)
    classes = [
        ((1.0 - p_del) * p_nodel, 1.0, zeta(p, delta, j), tau * zeta_derivative(p, delta, j))
        for j, p_nodel in enumerate((p_code0, p_q0))
    ]

    # sigma on axis 0; logical amplitudes a = b = 1/sqrt(2)
    X, dX, A, B = one_deletion_ratios(g, N, s, np.array([0, 1]), delta, tau)
    prob_sigma1 = 0.5 * (A[1] + B[1])
    for sigma in (0, 1):
        p_sig = p_del * (prob_sigma1 if sigma else 1.0 - prob_sigma1)
        norm = A[sigma] + B[sigma]
        for j in (0, 2):  # the E pair (syn = 0), then the D pair (syn = 1)
            x0, x1 = X[j, sigma], X[j + 1, sigma]
            p_syn = (abs(x0) ** 2 + abs(x1) ** 2) / norm
            phi, dphi = _phase_step(x0, x1, dX[j, sigma], dX[j + 1, sigma])
            classes.append((p_sig * p_syn, abs(x1 / x0), float(phi), float(dphi)))
    return classes


def expected_fi_p1(
    config: ProtocolConfig,
    include_nodel_syn1: bool = True,
    max_total_syn1: int | None = None,
) -> dict:
    """Leading-order analytic E[F] for Protocol 1, plus the published constants.

    Enumerates trajectories by their per-round outcome counts over the six
    classes of :func:`_round_classes` (all but the dominant no-deletion syn=0
    class are rare, so the enumeration is truncated at ``RARE_COUNT_CAPS``), folds
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
    ranges = [range(min(cap, r) + 1) for cap in RARE_COUNT_CAPS]
    for counts in itertools.product(*ranges):
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
    return {"fi_p2": fi, "repetitions": reps, "failure_rate": f1, "mean_fi_p1": batch.mean_fi()}


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
