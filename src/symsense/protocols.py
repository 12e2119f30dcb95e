"""Monte-Carlo simulation of the QEC-while-sensing protocols and analytic baselines.

Protocol 1 runs r rounds of {Poisson deletions -> signal -> QEC round}, aborts
on the failure flag, and reads out in the logical plus/minus basis; its Fisher
information comes from the accumulated logical phase Phi and its
theta-derivative.

Each round starts from a logical pair a|0_L> + b|1_L> of the current code (any
odd n >= 3) and maps (a, b) -> (a X_0, b X_1) / sqrt(P).  With one deletion the
factors are the lattice sums of :func:`one_deletion_ratios`: E_0, E_1 onto the
codespace (syn = 0) or D_0, D_1 onto the q-space (syn = 1), the deletion's
binomial sqrt-ratios folded in, returned with their analytic theta-derivatives
and the deleted state's norm weights.  The phase increment is arg(X_1/X_0) and
its derivative Im(dX_1/X_1 - dX_0/X_0).  Without a deletion the closed forms
``zeta``, ``zeta_derivative`` and ``pflag_closed_form`` of :mod:`symsense.qec`
take their place.  :func:`round_law` is the one home of these rules, cached
per code (N, s); the batch, :func:`expected_fi_p1` and the reference's phase
increments read it, each splitting shift and syndrome by its (|a|^2, |b|^2).
Two implementations are provided:

* :func:`run_protocol1` -- exact reference: full Dicke-vector state tracking,
  one trajectory at a time, the signal applied on the state's known support
  only and the QEC round of ``qec.qec_sense``; Phi sums the law's increments.
  Its quiet rounds before the first event replay one cached chain of states.
* :func:`run_protocol1_batch` -- vectorized lattice twin: the trajectories
  of a span advance in lock-step, each as its logical weights
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

import math
import os
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterator, NamedTuple

import numpy as np

from symsense.codes import CODEWORD_CACHE, GnuParams, Label, code_fits, lattice_profile, make_logical
from symsense.metrology import fi_phase_readout
from symsense.noise import delete
from symsense.qec import code_frame, pflag_closed_form, project_syndrome, zeta, zeta_derivative
from symsense.symcore import SymState, check_float_binomials, signal_phases

BATCH_SPAN = 16384  # trajectories per batch span at r <= 32, serial and pooled runs alike
SPAN_ROUNDS = 32 * BATCH_SPAN  # trajectory-rounds per span, 24 bytes of uniforms each


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
        if self.params.n < 3 or self.params.n % 2 == 0:
            raise ValueError(f"the sensing protocol needs an odd n >= 3, got n = {self.params.n}")
        check_float_binomials(self.params.n)  # the round's p_flag sum, before any span runs
        if self.params.n_qubits >= 2**63:
            raise ValueError("N = g n u + s must be below 2^63, the batch's int64 range")
        if self.r < 1:
            raise ValueError("need at least one round")
        if self.r > SPAN_ROUNDS:
            raise ValueError(f"r must be <= {SPAN_ROUNDS}, the rounds one batch span holds, "
                             f"got r = {self.r}")
        for name in ("q", "theta", "n_del"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_del < 0:
            raise ValueError(f"n_del must be >= 0, got {self.n_del!r}")
        try:
            scales_finite = math.isfinite(self.tau) and math.isfinite(self.delta)
        except OverflowError:  # a float ** raises past the float range instead of giving inf
            scales_finite = False
        if not scales_finite:
            raise ValueError(
                f"tau = r^-q and delta = theta*tau must be finite, got r = {self.r}, "
                f"q = {self.q!r}, theta = {self.theta!r}"
            )
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
# per-round lattice sums and the round law
# ---------------------------------------------------------------------------

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
    return (prof[0::2] * t[..., 0::2]).sum(axis=-1), (prof[1::2] * t[..., 1::2]).sum(axis=-1)


def one_deletion_ratios(g: int, n: int, n_qubits, s, sigma, delta, tau) -> LatticeSums:
    """Lattice sums of a round with one deletion of shift sigma on a (g, n) code, vectorized.

    ``n_qubits``, ``s``, ``sigma`` refer to the code *before* the deletion and
    broadcast against each other.  On the lattice k = 0..n the codewords carry
    c_k = ``lattice_profile(n)`` and the q-vectors the J_z displacement of
    ``qec.q_vectors`` over its norm g sqrt(n)/2, q_k = c_k (2/sqrt(n)) (n/2 - k).
    Weight w = g k + s keeps sqrt((N - w)/N) of its amplitude on sigma = 0 and
    sqrt(w/N) on sigma = 1, moves to w - sigma and picks up e^{i delta (w - sigma)}
    (the common e^{-i delta N'/2} is dropped), whose theta-derivative is
    i tau (w - sigma) times itself.
    X_1/X_0 is the codespace ratio <1|U|1'>/<0|U|0'> for the E pair and the
    q-space ratio for the D pair; their arguments are phi_{1,0} and phi_{1,1}.
    """
    k = np.arange(n + 1, dtype=float)
    c = lattice_profile(n)
    q = c * (2.0 / math.sqrt(n)) * (n / 2 - k)
    N = np.asarray(n_qubits, dtype=float)[..., None]
    sig = np.asarray(sigma, dtype=float)[..., None]
    w = g * k + np.asarray(s, dtype=float)[..., None]
    ratio = np.maximum(np.where(sig > 0.5, w / N, 1.0 - w / N), 0.0)
    term = np.sqrt(ratio) * c * np.exp(1j * delta * (w - sig))
    dterm = (1j * tau) * (w - sig) * term
    X, dX = (np.stack([*_pairs(t, c), *_pairs(t, q)]) for t in (term, dterm))
    return LatticeSums(X, dX, *_pairs(ratio, c * c))


def _phase_step(x0, x1, dx0, dx1):
    """arg(x1 / x0) and its theta-derivative Im(dx1/x1 - dx0/x0)."""
    return np.angle(x1 / x0), (dx1 / x1 - dx0 / x0).imag


def _syndrome_split(mod2, fac, norm):
    """(P_code, P_q) = |a|^2 |X_0|^2 + |b|^2 |X_1|^2 per pair (E, D), then over the norm."""
    P = mod2[0] * fac[0::2] + mod2[1] * fac[1::2]
    return P, P / norm


class RoundLaw(NamedTuple):
    """One code's round, on the outcome axis o: 0 without a deletion, 1 + sigma with one."""

    lam: float  # Poisson mean: t = 0, 1 with e^-lam, lam e^-lam; t >= 2 aborts
    A: np.ndarray  # (2,) by sigma, even k: P[sigma | t = 1] = |a|^2 A_sigma + |b|^2 B_sigma
    B: np.ndarray  # (2,) by sigma, odd k
    fac: np.ndarray  # (4, 3): |X|^2 of E_0, E_1 (codespace) and D_0, D_1 (q-space)
    inc: np.ndarray  # (2, 3): the phase increment at (syn, o)
    dinc: np.ndarray  # (2, 3): its theta-derivative


def _cached_without_seed(law):
    """``law`` cached on its configuration with the seed set to 0: no law reads the seed,
    so every seed of one configuration shares each code's law."""
    cached = lru_cache(maxsize=4096)(law)
    seedless = wraps(law)(lambda config, *code: cached(replace(config, seed=0), *code))
    seedless.cache_info, seedless.cache_clear = cached.cache_info, cached.cache_clear
    return seedless


@_cached_without_seed
def round_law(config: ProtocolConfig, n_qubits: int, s: int) -> RoundLaw:
    """The round on the (N, s) = (``n_qubits``, ``s``) code, cached per configuration
    without its seed, with read-only arrays: the one home of the round's rules."""
    p = config.params
    tau, delta = config.tau, config.delta
    X, dX, A, B = one_deletion_ratios(p.g, p.n, n_qubits, s, np.array([0, 1]), delta, tau)
    p_code0, p_q0, _ = pflag_closed_form(p.n, 0.5 * p.g * delta)
    # no deletion: |E_0| = |E_1|, |D_0| = |D_1| at odd n (k -> n - k swaps the lattice halves)
    nodel = ([p_code0, p_code0, p_q0, p_q0], [zeta(p, delta, j) for j in (0, 1)],
             [tau * zeta_derivative(p, delta, j) for j in (0, 1)])
    deleted = (X.real**2 + X.imag**2, *_phase_step(X[0::2], X[1::2], dX[0::2], dX[1::2]))
    law = RoundLaw(config.n_del * n_qubits * tau, A, B,
                   *(np.c_[x0, x1] for x0, x1 in zip(nodel, deleted)))
    for x in law[1:]:
        x.flags.writeable = False
    return law


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


def _on_weights(n_qubits: int, weights: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The length-(n_qubits + 1) amplitude vector holding ``amps`` at ``weights``, zero elsewhere."""
    full = np.zeros(n_qubits + 1, dtype=complex)
    full[weights] = amps
    return full


@lru_cache(maxsize=CODEWORD_CACHE)
def _quiet_chain(params: GnuParams, delta: float, r: int):
    """The quiet rounds of the reference trajectory from |+_L> on the code ``params``.

    Returns P[syn 0] of quiet round k for k = 0..r-1 and, as row k of a
    read-only array, the lattice amplitudes before round k (row r: after the
    last).  Each round is :func:`run_protocol1`'s own: the signal on the
    lattice, ``qec.project_syndrome`` on the full Dicke vector, then
    (c_0 cw_0 + c_1 cw_1) / sqrt(P).  The chain stops early if a round has
    P[syn 0] = 0, after which no round is quiet.  Building it costs one
    all-quiet trajectory, once per (code, delta, r).
    """
    frame = code_frame(params)
    phases = signal_phases(params.n_qubits, frame.lattice, delta)
    amps = make_logical(params, Label.PLUS).amps[frame.lattice]
    p_code, before = [], [amps]
    for _ in range(r):
        evolved = _on_weights(params.n_qubits, frame.lattice, amps * phases)
        syn, c0, c1, p_syn = project_syndrome(frame, evolved, 0.0)
        if syn:
            break
        amps = (c0 * frame.cw_on_lattice[0] + c1 * frame.cw_on_lattice[1]) / math.sqrt(p_syn)
        p_code.append(p_syn)
        before.append(amps)
    before = np.array(before)
    before.flags.writeable = False
    return tuple(p_code), before


def run_protocol1(config: ProtocolConfig, rng: np.random.Generator) -> TrajectoryRecord:
    """One exact trajectory with full Dicke-vector state tracking.

    The state is evolved exactly (deletion branch, signal, projective QEC).
    The per-round phase increments and their theta-derivatives at the
    realized outcomes are analytic, read from :func:`round_law` of the code
    the round starts on, as is the round's Poisson mean.

    The state is kept on a known support: the code lattice after a QEC
    round, the branch's non-zero weights after a deletion.  A round writes
    the signal-evolved support into a zero Dicke vector and runs the library
    QEC round on it: ``qec.project_syndrome`` against the current code's
    ``qec.code_frame``, as ``qec.qec_sense`` does, which equals
    ``apply_signal`` then ``SymState.inner`` bit for bit.

    The rounds before the first deletion or syndrome 1 are quiet, and from
    |+_L> they form one deterministic chain of states for a given code, delta
    and r.  :func:`_quiet_chain` runs that chain once, with this loop's own
    round, and caches P[syn 0] of each round and the state before it.  A
    trajectory advances through its quiet prefix by comparing its uniforms
    against p_0 (as ``_poisson_bucket`` computes it) and those P[syn 0],
    adding the law's zeta_0, its derivative and the count one round at a
    time, and the loop then starts from the cached state.  The result is bit
    for bit what the loop would give.  The chain is built on full Dicke
    vectors, not with the batch's closed-form (1/2, 1/2) shortcut, so the
    reference stays an oracle independent of the batch.
    """
    p = config.params
    delta = config.delta
    uniforms = rng.random((config.r, 3)).tolist()

    N0 = n_cur = p.n_qubits
    s_cur = p.s
    counts = np.zeros((2, 2), dtype=int)
    Phi = dPhi = 0.0
    flag = invalid = False
    n_deleted = 0

    # the quiet prefix: rounds with no deletion (u_del below p_0, as in
    # _poisson_bucket) and syndrome 0, replayed from the cached chain
    law = round_law(config, n_cur, s_cur)  # the current code's round
    p_code, before = _quiet_chain(p, delta, config.r)
    p0 = math.exp(-law.lam)
    k = 0
    while k < len(p_code) and uniforms[k][0] < p0 and uniforms[k][2] < p_code[k]:
        counts[0, 0] += 1
        Phi += float(law.inc[0, 0])
        dPhi += float(law.dinc[0, 0])
        k += 1

    frame = code_frame(p)
    lattice_phases = signal_phases(n_cur, frame.lattice, delta)
    # the state: amplitudes `amps` on the weights `support`, whose signal phases are `phases`
    support, phases = frame.lattice, lattice_phases
    amps = before[k]
    for u_del, u_sigma, u_syn in uniforms[k:]:
        t = _poisson_bucket(u_del, law.lam)
        if t >= 2:
            flag = True
            break
        if n_cur - t < N0 / 2:
            invalid = True
            break
        step = law  # the round's increments are those of the code it starts on
        sigma = 0
        if t == 1:
            outs = delete(SymState(n_cur, _on_weights(n_cur, support, amps)), 1)
            p_sigma1 = sum(o.weight for o in outs if o.shift == 1)
            sigma = 1 if u_sigma < p_sigma1 else 0
            branch = next(o for o in outs if o.shift == sigma).state.amps
            n_deleted += 1
            n_cur, s_cur = n_cur - 1, s_cur - sigma
            if not code_fits(p, n_cur, s_cur):
                invalid = True
                break
            law = round_law(config, n_cur, s_cur)
            frame = code_frame(p.with_shift(s_cur, n_cur))
            lattice_phases = signal_phases(n_cur, frame.lattice, delta)
            support = np.flatnonzero(branch)
            amps, phases = branch[support], signal_phases(n_cur, support, delta)
        evolved = _on_weights(n_cur, support, amps * phases)
        syn, c0, c1, p_syn = project_syndrome(frame, evolved, u_syn)
        if syn < 0:
            flag = True
            break
        support, phases = frame.lattice, lattice_phases
        amps = (c0 * frame.cw_on_lattice[0] + c1 * frame.cw_on_lattice[1]) / math.sqrt(p_syn)
        counts[t, syn] += 1
        Phi += float(step.inc[syn, t + sigma])
        dPhi += float(step.dinc[syn, t + sigma])

    if flag or invalid:
        return TrajectoryRecord(
            counts, Phi, dPhi, flag, invalid, s_cur, float("nan"), 0.0, n_deleted
        )

    final = _on_weights(n_cur, support, amps)
    a0, a1 = (complex(np.vdot(cw, final)) for cw in frame.basis[:2])
    phi_amp = math.atan2(abs(a1), abs(a0))
    fi = float(fi_phase_readout(phi_amp, Phi, dPhi))
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
        """Rounds with syn = 1 and no deletion: rare (~1e-6 per trajectory at
        protocol scales) but each carries a large FI, so a run of affordable
        size does not resolve their share of E[F]; ``expected_fi_p1(...,
        include_nodel_syn1=False)`` leaves them out on the analytic side."""
        return int(self.counts[:, 0, 1].sum())

    def failure_rate(self) -> float:
        """The flagged share of the rows only: unlike ``run_protocol2``'s
        ``failure_rate``, which counts every abort, it leaves out invalid rows."""
        return float(np.mean(self.flag))

    def mean_fi(self) -> float:
        ok = self.success
        return float(np.mean(self.fisher_information[ok])) if ok.any() else math.nan

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
    BATCH_SPAN trajectories, or at r > 32 as many as SPAN_ROUNDS rounds
    allow, so that its uniforms stay within 24 * SPAN_ROUNDS bytes (the last
    span holds fewer).  With more than one worker and more than one span,
    the spans run on a process pool and arrive in order as they finish;
    otherwise they run one after another in this process.  Randomness is
    keyed per trajectory index, so every worker count gives the same spans
    bit for bit.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    workers = parse_threads(os.environ.get("SYMSENSE_THREADS"))
    rows = min(BATCH_SPAN, SPAN_ROUNDS // config.r)
    los = range(0, n_traj, rows)
    span_args = ([config] * len(los), los, [min(lo + rows, n_traj) for lo in los])
    return _mapped_spans(min(workers, len(los)), span_args)


def _mapped_spans(workers: int, span_args) -> Iterator[BatchResult]:
    """_run_batch_span over span_args, in order, in this process or on a pool."""
    if workers == 1:
        yield from map(_run_batch_span, *span_args)
        return
    # imported where the pool starts, so that serial runs never load the pool machinery
    from concurrent.futures import ProcessPoolExecutor

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
    outcome from :func:`round_law`, whose probabilities depend on a and b
    only through |a|^2 and |b|^2: only those are carried, and Phi is the sum
    of the analytic increments.

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
    N0 = p.n_qubits
    U = _span_uniforms(config.seed, lo, hi, r)
    mod2 = np.full((2, n_traj), 0.5)  # |a|^2, |b|^2
    n_cur = np.full(n_traj, N0, dtype=np.int64)
    s_cur = np.full(n_traj, p.s, dtype=np.int64)

    # the start code's law holds for quiet rounds and rounds without a deletion; increments by
    # outcome 2 t + syn (t = 1 rows take their one-deletion phases), outcome 4 an aborted row
    start = round_law(config, N0, p.s)
    z_inc, z_dinc = (np.r_[x[:, 0], x[:, 0], 0.0] for x in (start.inc, start.dinc))

    # --- quiet rounds: each row's first event round, the rows sorted by it.
    # p_0 at N0 as the round loop computes it, so the two agree; at a = b, P[syn 0] is p_code
    loud = (U[:, :, 0] >= np.exp(-start.lam)) | (U[:, :, 2] >= start.fac[0, 0])
    first = np.where(loud.any(axis=1), loud.argmax(axis=1), r)
    order = np.argsort(first, kind="stable")
    first = first[order]
    joined = np.searchsorted(first, np.arange(r), side="right")  # rows that run round i
    U = U[order[: joined[-1]]]  # rows that never join read no uniforms
    # Phi after f quiet rounds: +0.0 then f sequential additions, as in the loop
    # (starting from +0.0 keeps a -0.0 zeta_0 from signing the sum)
    quiet_Phi, quiet_dPhi = (np.cumsum(np.r_[0.0, np.full(r, x[0])]) for x in (z_inc, z_dinc))

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
        lam = config.n_del * n_k * config.tau
        p0 = np.exp(-lam)
        t2 = alive_k & (u_del >= p0 * (1.0 + lam))
        t1 = alive_k & (u_del >= p0) & ~t2
        low = alive_k & ~t2 & (n_k - t1 < N0 / 2)
        flag_k |= t2
        invalid_k |= low
        alive_k &= ~(t2 | low)
        t1 &= ~low

        # --- |X|^2 of this round's outcome and the deleted norm, by the deleting rows' codes
        fac = np.repeat(start.fac[:, :1], k, axis=1)
        norm = np.ones(k)
        drow = np.nonzero(t1)[0]
        if drow.size:
            # each row's code keyed by what it has lost, below (r + 1)^2, so it cannot overflow
            lost = (N0 - n_k[drow]) * (r + 1) + p.s - s_k[drow]
            codes, which = np.unique(lost, return_inverse=True)
            laws = [round_law(config, N0 - code // (r + 1), p.s - code % (r + 1))[1:]
                    for code in codes.tolist()]
            A, B, law_fac, law_inc, law_dinc = (np.stack(x)[which] for x in zip(*laws))
            ma, mb = mod2_k[:, drow]
            sigma = (u_sigma[drow] < ma * A[:, 1] + mb * B[:, 1]).astype(np.int64)
            cols = np.arange(drow.size)
            fac[:, drow] = law_fac[cols, :, 1 + sigma].T
            norm[drow] = ma * A[cols, sigma] + mb * B[cols, sigma]
            n_k[drow] -= 1
            s_k[drow] -= sigma
            unfit = drow[~code_fits(p, n_k[drow], s_k[drow])]
            invalid_k[unfit] = True
            alive_k[unfit] = t1[unfit] = False

        # --- QEC projections
        P, p_syn = _syndrome_split(mod2_k, fac, norm)
        syn0 = u_syn < p_syn[0]
        syn1 = (~syn0) & (u_syn < p_syn[0] + p_syn[1])
        failed = alive_k & ~(syn0 | syn1)
        flag_k |= failed
        alive_k &= ~failed
        t1 &= ~failed
        mod2_k *= np.where(syn0, fac[:2], fac[2:]) / np.where(syn0, P[0], np.where(syn1, P[1], 1.0))

        # --- bookkeeping: counts, Phi, dPhi
        outcome = np.where(alive_k, 2 * t1 + syn1, 4)
        for j in range(4):
            counts[j, :k] += outcome == j
        inc = z_inc[outcome]
        dinc = z_dinc[outcome]
        if drow.size and t1[drow].any():
            done = np.nonzero(t1[drow])[0]
            rows = drow[done]
            at = (done, syn1[rows].astype(np.int64), 1 + sigma[done])
            inc[rows], dinc[rows] = law_inc[at], law_dinc[at]
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
    fi = np.where(ok, fi_phase_readout(phi_amp, Phi, dPhi), 0.0)
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
# exact expectation over the deletion sequences
# ---------------------------------------------------------------------------

MAX_DELETION_ROUNDS = 6  # deletion rounds per trajectory that expected_fi_p1 enumerates
GRID_CELLS = 1 << 17  # (sequence, k) cells that expected_fi_p1 evaluates at a time
LOG_TINY = math.log(np.finfo(float).tiny)  # least log share of the top k-weight a k keeps


def _log_gaps(M: int, D: int, eps: float) -> float:
    """log of the sum, over the ways M quiet rounds fall into the D + 1 gaps around D
    deletions, of q^m, q = e^-eps and m the deletions still to come summed over the quiet
    rounds: the Gaussian binomial [M + D, D]_q = prod_{i=1..D} (1 - q^(M+i)) / (1 - q^i),
    which is C(M + D, D) at eps = 0."""
    return sum(math.log(math.expm1(-(M + i) * eps) / math.expm1(-i * eps)) if eps
               else math.log1p(M / i) for i in range(1, D + 1))


def expected_fi_p1(
    config: ProtocolConfig,
    include_nodel_syn1: bool = True,
    max_total_syn1: int | None = None,
) -> dict:
    """Exact E[F | ok] and P[ok] of Protocol 1 by enumeration, plus the published constants.

    ``mean_fi`` and ``sector_probability`` are the batch's estimands E[F | ok] and P[ok]
    over the trajectories with at most MAX_DELETION_ROUNDS deletion rounds (nan and 0 if
    none survives).  A round without a deletion leaves (|a|^2, |b|^2) unchanged, adds the
    start code's zeta_syn and has syndrome probabilities that depend on neither the state
    nor the code, so only the deletion rounds are enumerated, each as its outcome
    (sigma, syn) from :func:`round_law` of the sequence's own code, under the batch's
    weights and invalid-regime rules.  The M = r - D quiet rounds fold into one factor:
    one after d deletions has probability e^-lam(N0 - d), lam(N) = eps N, so their spread
    sums to e^(-lam(N0 - D) M) [M + D, D] (:func:`_log_gaps`), and the k of them with
    syn = 1 weigh C(M, k) p_code^(M-k) p_q^k: k below LOG_TINY of the largest weight are
    dropped, and the (sequence, k) grid is summed GRID_CELLS cells at a time.

    ``include_nodel_syn1=False`` drops the trajectories with a no-deletion syn = 1 round,
    ~ r n (g theta tau)^2 / 4 of them (around 1e-6 at protocol scales) with an enormous
    FI each, which no affordable Monte-Carlo run resolves (the batch counts them).
    ``max_total_syn1`` keeps those with at most that many syn = 1 rounds, for the same
    reason one order higher: two shift-balanced syn = 1 deletions give an FI ~
    (2 dphi_11/dtheta)^2 at ~ 1e-8 per trajectory.

    The two r^2-scaling constants are n = 3 statements reported at every n:
    ``r2_formula_stated`` is the published 37/64 r^2 g^6 tau^6 theta^4,
    ``r2_formula_quarter`` the (r dzeta0/dtheta)^2 = (9/16) r^2 g^6 tau^6 theta^4 that
    the -1/4 cubic implies for the syn=0 sector.
    """
    p = config.params
    r, N0, s0, tau = config.r, p.n_qubits, p.s, config.tau
    start = round_law(config, N0, s0)
    p_code, p_q = float(start.fac[0, 0]), float(start.fac[2, 0])
    z_inc, z_dinc = start.inc[:, 0], start.dinc[:, 0]  # no deletion, by syn
    eps = config.n_del * tau  # lam(N) = eps N
    limit = math.inf if max_total_syn1 is None else max_total_syn1
    k_max = min(r if include_nodel_syn1 and p_q > 0.0 else 0, limit)
    log_fact = np.array([math.lgamma(k + 1) for k in range(r + 1)])

    # the deletion sequences so far: probability, (|a|^2, |b|^2), Phi, dPhi, syn = 1
    # rounds and shift lost; outcome o = 2 sigma + syn
    prob, mod2, Phi, dPhi = np.ones(1), np.full((1, 2), 0.5), np.zeros(1), np.zeros(1)
    syn1 = lost = np.zeros(1, dtype=np.int64)
    sigma, syn = np.divmod(np.arange(4), 2)
    weight = weighted_fi = 0.0
    cap = min(r, MAX_DELETION_ROUNDS)
    for D in range(cap + 1):
        codes, at = np.unique(lost, return_inverse=True)
        laws = [round_law(config, N0 - D, s0 - int(c)) for c in codes]
        lam, M = laws[0].lam, r - D

        # the M quiet rounds: their spread, then k of them with syn = 1, for every sequence
        ks = np.arange(min(M, k_max) + 1)
        log_k = (log_fact[M] - log_fact[ks] - log_fact[M - ks] + (M - ks) * math.log(p_code)
                 + (ks * math.log(p_q) if k_max > 0 else 0.0))
        keep = log_k >= log_k.max(initial=-math.inf) + LOG_TINY
        ks, log_k = ks[keep], log_k[keep] - M * lam + _log_gaps(M, D, eps)
        phi_amp = np.arctan2(np.sqrt(mod2[:, 1]), np.sqrt(mod2[:, 0]))[:, None]
        step = max(1, GRID_CELLS // prob.size)
        for lo in range(0, ks.size, step):
            k = ks[lo : lo + step]
            w = prob[:, None] * np.exp(log_k[lo : lo + step]) * (syn1[:, None] + k <= limit)
            fi = fi_phase_readout(phi_amp, Phi[:, None] + ((M - k) * z_inc[0] + k * z_inc[1]),
                                  dPhi[:, None] + ((M - k) * z_dinc[0] + k * z_dinc[1]))
            weight += float(w.sum())
            weighted_fi += float((w * fi).sum())

        # one more deletion round, unless it would leave fewer than half the qubits
        if D == cap or N0 - D - 1 < N0 / 2:
            break
        fac, inc, dinc = (np.stack(x)[at] for x in zip(*(law[3:] for law in laws)))
        pair = fac[:, 2 * syn + [[0], [1]], 1 + sigma]  # (sequence, |X_0|^2 or |X_1|^2, o)
        P = mod2[:, :1] * pair[:, 0] + mod2[:, 1:] * pair[:, 1]
        child_prob = (prob * (lam * math.exp(-lam)))[:, None] * P
        child_lost, child_syn1 = lost[:, None] + sigma, syn1[:, None] + syn
        fits = code_fits(p, N0 - D - 1, s0 - child_lost)
        src, o = np.nonzero((child_prob > 0.0) & fits & (child_syn1 <= limit))
        prob, lost, syn1 = child_prob[src, o], child_lost[src, o], child_syn1[src, o]
        mod2 = mod2[src] * pair[src, :, o] / P[src, o, None]
        Phi = Phi[src] + inc[src, syn[o], 1 + sigma[o]]
        dPhi = dPhi[src] + dinc[src, syn[o], 1 + sigma[o]]
        if not prob.size:
            break

    try:
        base = r * r * p.g**6 * tau**6 * config.theta**4
    except OverflowError:  # reported, not used: past the float range the constants read inf
        base = math.inf
    return {
        "mean_fi": weighted_fi / weight if weight > 0.0 else math.nan,
        "sector_probability": weight,
        "r2_formula_stated": (37.0 / 64.0) * base,
        "r2_formula_quarter": (9.0 / 16.0) * base,
    }


# ---------------------------------------------------------------------------
# protocols 2 and 3, baselines
# ---------------------------------------------------------------------------


def run_protocol2(config: ProtocolConfig, n_traj: int) -> dict:
    """Repeat Protocol 1 r^(q-1) times: E[F_P2] = r^(q-1) (1 - f1) E[F_P1 | success],
    where f1 (``failure_rate``) is the share of rows that are flagged or stop as invalid."""
    if config.q < 1:
        raise ValueError(
            f"Protocol 2 repeats Protocol 1 r^(q-1) times: q must be >= 1, got {config.q}"
        )
    try:
        reps = float(config.r) ** (config.q - 1.0)
    except OverflowError:  # a float ** raises past the float range instead of giving inf
        reps = math.inf
    if not math.isfinite(reps):
        raise ValueError(
            f"Protocol 2's r^(q-1) repetitions must be finite, got r = {config.r}, q = {config.q!r}"
        )
    batch = run_protocol1_batch(config, n_traj)
    success, fi = float(batch.success.mean()), batch.mean_fi()
    return {"fi_p2": reps * success * fi, "repetitions": reps, "failure_rate": 1.0 - success,
            "mean_fi_p1": fi}


def run_protocol3(c1: float, k: int, q, e1, e2) -> list[Fraction]:
    """Iterate the prior-knowledge exponent: c_{j+1} = p2_exponent(c_j) / 2.

    Converges to the fixed point of the repeated-protocol exponent map; at
    e1 = e2 = 0 the fixed point is 1 (Heisenberg scaling), strictly below 1
    for positive error budgets.
    """
    from symsense.optimizer import LPInstance, p2_exponent
    from symsense.symcore import as_fraction

    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
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
