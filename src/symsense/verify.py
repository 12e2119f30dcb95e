"""Small-N oracle verification suite behind the `verify` CLI subcommand.

Each check pits a scalable Dicke-block computation against an independent
brute-force construction (full 2^N vectors, Kraus strings, dense partial
traces, explicit projectors).  Prints one pass/fail line per check, or one
JSON object per check, and returns the list of failures.

Each comparison is written once, here; the tests call it with their own
inputs and thresholds.  ``deletion_distance``: test_acceptance.py criterion 2
and test_noise.py::test_delete_matches_dense_partial_trace.
``damping_distance``: criterion 3.  ``projection_deviation``: criterion 5 and
test_qec.py::test_projection_probabilities_closed_forms_grid.
``check_kl_gnu``: test_fullspace.py::test_kl_check_gnu_code_and_rotations.
``general_qec_report``: test_fullspace.py::test_general_qec_single_qubit_channel
and test_fullspace.py::test_general_qec_report_memory_excludes_dense_kraus_operators.
Criterion 10 runs ``check_schur_dimension``, ``check_syt_counts``,
``check_sequential_split``, ``check_kl_gnu`` and ``check_general_qec``.
test_noise.py::test_shared_oracles_catch_a_broken_channel shows the deletion
and damping oracles failing on a broken channel.

``protocol1_mismatches`` is the one comparison of the Protocol-1 batch with
its exact reference trajectory, which the tests of test_protocols.py call and
the ``verify`` command does not run.  It is the one reader of
:mod:`symsense.protocols` here and imports it when called, so ``verify`` never
loads the Protocol-1 layer.  It is an oracle at every odd n: both paths delete
by the correctly rounded (N - w)/N and w/N, so the tiny Phi of n >= 5 gets
the same FI on both, and the tests also replay those rows at 50 digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from symsense.codes import GnuParams, Label, logical_pair, make_logical
from symsense.fullspace import (
    DenseState,
    YoungDiagram2,
    embed_sym,
    enumerate_syt,
    general_qec_smallN,
    insert_zeros,
    kl_check,
    partial_trace_first,
    sequential_j2_measure,
    signal_phases_dense,
)
from symsense.metrology import qfi_pure
from symsense.noise import amplitude_damp, delete, deletion_qfi
from symsense.qec import pflag_closed_form, qec_sense_probabilities
from symsense.symcore import SymState, apply_signal, binom

if TYPE_CHECKING:
    from symsense.protocols import BatchResult


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(evals)))


def deletion_distance(psi: SymState, t: int) -> float:
    """Trace distance between the dense partial trace of the first t qubits
    of |psi><psi| and the mixture of ``delete(psi, t)``'s branches."""
    N = psi.n_qubits
    dense = embed_sym(psi).vec
    rho_traced = partial_trace_first(np.outer(dense, dense.conj()), N, t)
    rho_rec = np.zeros((2 ** (N - t), 2 ** (N - t)), dtype=complex)
    for br in delete(psi, t):
        v = embed_sym(br.state).vec
        rho_rec += br.weight * np.outer(v, v.conj())
    return _trace_distance(rho_traced, rho_rec)


def check_deletion_oracle(rng) -> float:
    worst = 0.0
    for _ in range(12):
        N = int(rng.integers(3, 9))
        t = int(rng.integers(1, min(3, N - 1) + 1))
        worst = max(worst, deletion_distance(SymState.random(N, rng), t))
    return worst


def _ad_kraus_brute(psi: SymState, gamma: float) -> np.ndarray:
    """Amplitude damping on every qubit of the full 2^N density matrix.

    The N-fold product of the one-qubit channel is applied one qubit at a
    time: qubit q's Kraus pair acts on q's row index and column index of
    rho.  Equal to the sum over the 2^N Kraus strings, without forming them.
    """
    N = psi.n_qubits
    vec = embed_sym(psi).vec
    rho = np.outer(vec, vec.conj())
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    for q in range(N):
        # rows and columns split as (qubits before q, qubit q, qubits after q)
        r = rho.reshape(2**q, 2, 2 ** (N - q - 1), 2**q, 2, 2 ** (N - q - 1))
        rho = sum(
            np.einsum("ab,ibjkcl,dc->iajkdl", a, r, a.conj(), optimize=True) for a in (a0, a1)
        )
        rho = rho.reshape(2**N, 2**N)
    return rho


def _ad_insertion_reconstruction(psi: SymState, gamma: float) -> np.ndarray:
    N = psi.n_qubits
    out = np.zeros((2**N, 2**N), dtype=complex)
    for br in amplitude_damp(psi, gamma):
        x = br.damped
        small = embed_sym(br.state).vec * math.sqrt(br.weight)
        for positions in combinations(range(1, N + 1), x):
            big = insert_zeros(small, N - x, positions)
            out += np.outer(big, big.conj()) / binom(N, x)
    return out


def damping_distance(psi: SymState, gamma: float) -> float:
    """Trace distance between damping every qubit of |psi><psi| by Kraus
    strings and the re-embedded branches of ``amplitude_damp(psi, gamma)``."""
    return _trace_distance(_ad_kraus_brute(psi, gamma), _ad_insertion_reconstruction(psi, gamma))


def check_ad_oracle(rng) -> float:
    worst = 0.0
    for gamma in (0.05, 0.3, 0.9):
        worst = max(worst, damping_distance(SymState.random(6, rng), gamma))
    return worst


@lru_cache(maxsize=None)
def _enumerated_syt_counts(N: int) -> tuple[tuple[YoungDiagram2, int], ...]:
    """Each two-row diagram of N boxes with its number of ``enumerate_syt`` tableaux."""
    return tuple((diagram, len(tabs)) for diagram, tabs in enumerate_syt(N).items())


def check_schur_dimension() -> int:
    return sum(
        sum(d.syt_count() * d.ssyt_count() for d, _ in _enumerated_syt_counts(N)) != 2**N
        for N in range(1, 13)
    )


def check_syt_counts() -> int:
    return sum(
        count != diagram.syt_count() or count != diagram.syt_count_hooks()
        for N in range(1, 13)
        for diagram, count in _enumerated_syt_counts(N)
    )


def check_sequential_split() -> float:
    # |01> splits 1/2 triplet (post = |D^2_1>), 1/2 singlet
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0
    hits = {2: 0, 0: 0}
    for k in range(400):
        tab, post = sequential_j2_measure(DenseState(2, vec), np.random.default_rng(k))
        hits[tab.j_total_doubled] += 1
        if tab.j_total_doubled == 2:
            want = np.zeros(4, dtype=complex)
            want[1] = want[2] = 1.0 / math.sqrt(2.0)
            if abs(abs(np.vdot(want, post.vec)) - 1.0) > 1e-10:
                return 1.0
    return abs(hits[2] / 400.0 - 0.5)


def check_kl_gnu() -> float:
    """Largest KL violation of the (3,3,1) code, before and after a signal rotation."""
    params = GnuParams(3, 3, Fraction(1), 0)
    cw0, cw1 = logical_pair(params)
    report = kl_check([embed_sym(cw0), embed_sym(cw1)], t=1)
    theta_rot = 0.7
    phases = signal_phases_dense(params.n_qubits, theta_rot)
    rot = [DenseState(9, phases * embed_sym(cw).vec) for cw in (cw0, cw1)]
    report_rot = kl_check(rot, t=1)
    return max(report["max_violation"], report_rot["max_violation"])


def general_qec_report() -> dict:
    """``general_qec_smallN`` of the (3,3,1) code under the one-qubit channel
    with Kraus operators I, X_1 / 2 and Z_1 / 2, normalized."""
    params = GnuParams(3, 3, Fraction(1), 0)
    cw0, cw1 = logical_pair(params)
    norm = math.sqrt(1.0 + 0.25 + 0.25)
    kraus = [[(1 / norm, (), ())], [(0.5 / norm, (1,), ("X",))], [(0.5 / norm, (1,), ("Z",))]]
    return general_qec_smallN([embed_sym(cw0), embed_sym(cw1)], kraus, max_weight=1)


def check_general_qec() -> float:
    return 1.0 - general_qec_report()["entanglement_fidelity"]


def projection_deviation(params: GnuParams, x: float, a, b) -> float:
    """Largest gap between ``qec_sense_probabilities`` of a|0_L> + b|1_L>
    after the signal x = g delta / 2 and ``pflag_closed_form(n, x)``."""
    cw0, cw1 = logical_pair(params)
    psi = SymState(params.n_qubits, a * cw0.amps + b * cw1.amps)
    got = qec_sense_probabilities(apply_signal(psi, 2 * x / params.g), params)
    return max(abs(p - q) for p, q in zip(got, pflag_closed_form(params.n, x)))


def check_pflag() -> float:
    worst = 0.0
    rng = np.random.default_rng(5)
    for n in (3, 5):
        params = GnuParams(3, n, Fraction(2), 1)
        for x in np.linspace(0.05, 1.4, 8):
            a = rng.random()
            b = math.sqrt(1.0 - a * a)
            worst = max(worst, projection_deviation(params, x, a, b))
    return worst


# Protocol-1 record fields the two paths compute in different float orders, as
# (field, rel, abs): |got - want| <= max(rel |want|, abs), or both NaN.  The
# other fields must be equal.
PROTOCOL1_TOLERANCES = (
    ("Phi", 1e-9, 1e-13),
    ("dPhi_dtheta", 1e-9, 1e-12),
    ("final_amp_a", 0.0, 1e-10),
    ("fisher_information", 1e-6, 1e-300),
)
PROTOCOL1_EXACT = ("flag", "invalid_regime", "counts", "n_deletions", "final_shift")


def protocol1_mismatches(batch: BatchResult, indices) -> list[str]:
    """Where the rows ``indices`` of ``batch`` differ from ``run_protocol1``.

    Each row is replayed by the exact reference trajectory on its own stream,
    ``trajectory_rng(batch.config.seed, index)``, and compared field by field,
    aborted rows included.  One line per mismatch names the trajectory, the
    field, the batch's value and the reference's.
    """
    from symsense.protocols import run_protocol1, trajectory_rng

    config = batch.config
    found = []
    for index in map(int, indices):
        rec = run_protocol1(config, trajectory_rng(config.seed, index))
        for field in PROTOCOL1_EXACT:
            got = getattr(batch, "invalid" if field == "invalid_regime" else field)[index].tolist()
            want = np.asarray(getattr(rec, field)).tolist()
            if got != want:
                found.append(f"trajectory {index}: {field} {got!r}, want {want!r}")
        for field, rel, abs_tol in PROTOCOL1_TOLERANCES:
            got, want = float(getattr(batch, field)[index]), float(getattr(rec, field))
            close = got == want or abs(got - want) <= max(rel * abs(want), abs_tol)
            if not (close or math.isnan(got) and math.isnan(want)):
                found.append(f"trajectory {index}: {field} {got!r}, want {want!r}")
    return found


def check_deletion_qfi_monotone() -> list:
    violations = []
    for g, n in ((5, 5), (7, 4), (4, 7)):
        params = GnuParams(g, n, Fraction(2), 3)
        prev = None
        for t in range(0, min(g, n) - 1):
            val = deletion_qfi(params, t)
            if prev is not None and val > prev * (1 + 1e-12):
                violations.append((g, n, t, prev, val))
            prev = val
    return violations


@dataclass(frozen=True)
class CheckResult:
    """One oracle check.  It passes when |value| <= threshold; a check with
    threshold None only reports its value."""

    name: str
    value: float
    threshold: float | None
    detail: str

    @property
    def passed(self) -> bool:
        return self.threshold is None or abs(self.value) <= self.threshold


def run_checks() -> list[CheckResult]:
    """Run every oracle check in order, with the suite's fixed seeds."""
    rng = np.random.default_rng(2024)
    results: list[CheckResult] = []

    def record(name, value, threshold, detail):
        results.append(CheckResult(name, value, threshold, detail))

    worst = check_deletion_oracle(rng)
    record("deletion block form vs dense partial trace", worst, 1e-10, f"max dist {worst:.2e}")
    worst = check_ad_oracle(rng)
    record("damping block form vs Kraus strings", worst, 1e-10, f"max dist {worst:.2e}")
    bad = check_schur_dimension()
    record("sum syt*ssyt = 2^N for N <= 12", bad, 0, f"{bad} mismatches")
    bad = check_syt_counts()
    record("tableau counts vs hook lengths", bad, 0, f"{bad} mismatches")
    dev = check_sequential_split()
    record("sequential J^2 split of |01>", dev, 0.1, f"freq offset {dev:.3f}")
    viol = check_kl_gnu()
    record("Knill-Laflamme for the (3,3,1) code", viol, 1e-10, f"max violation {viol:.2e}")
    infid = check_general_qec()
    record("general QEC entanglement fidelity", infid, 1e-8, f"infidelity {infid:.2e}")
    worst = check_pflag()
    record("projection probabilities closed form", worst, 1e-10, f"max dev {worst:.2e}")
    mono = check_deletion_qfi_monotone()
    record(
        "deletion QFI monotone in t (report only)",
        len(mono),
        None,
        f"{len(mono)} counterexample(s)" + (f": {mono}" if mono else ""),
    )
    params = GnuParams(4, 4, Fraction(1), 0)
    qfi = qfi_pure(make_logical(params, Label.PLUS))
    record("plus-probe QFI = g^2 n", qfi - 64.0, 1e-10, f"value {qfi}")
    return results


def run_verification(as_json: bool = False) -> list[str]:
    """Run the checks and return the names of the failed ones.

    Prints one PASS/FAIL line per check and a summary, or with ``as_json``
    one JSON object per line and check, holding its name, value, threshold
    and pass.
    """
    results = run_checks()
    failures = [res.name for res in results if not res.passed]
    if as_json:
        for res in results:
            print(json.dumps({"name": res.name, "value": res.value,
                              "threshold": res.threshold, "pass": res.passed}))
    else:
        width = max(len(res.name) for res in results)
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'}  {res.name:<{width}}  {res.detail}")
        print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return failures
