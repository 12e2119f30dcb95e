"""Dense small-N certification: tableaux, Schur blocks, symmetrization, KL, recovery."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from symsense.codes import GnuParams, Label, logical_pair, make_logical
from symsense.fullspace import (
    KL_LABEL_FLOOR,
    DenseState,
    YoungDiagram2,
    embed_sym,
    enumerate_paulis,
    enumerate_syt,
    general_qec_smallN,
    insert_zeros,
    kl_check,
    partial_trace_first,
    pauli_apply,
    schur_blocks,
    sequential_j2_measure,
)
from symsense.fullspace import _path_twirl, _schur_coeffs, _schur_coordinates, _weights
from symsense.noise import delete
from symsense.symcore import SymState, binom
from symsense.verify import _ad_kraus_brute, check_kl_gnu, general_qec_report


def project_sym(dense):
    """Reference inverse of embed_sym: the overlap of a dense state with each
    Dicke state (no normalization)."""
    N = dense.n_qubits
    amps = np.zeros(N + 1, dtype=complex)
    np.add.at(amps, _weights(N), dense.vec)  # in index order, as a loop would add
    return SymState(N, amps / np.sqrt([binom(N, w) for w in range(N + 1)]))


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_op(N, positions, kinds):
    """Reference for pauli_apply: the dense N-qubit Pauli with the given
    letters at 1-based positions."""
    ops = ["I"] * N
    for pos, kind in zip(positions, kinds):
        ops[pos - 1] = kind
    out = np.array([[1.0 + 0j]])
    for name in ops:
        out = np.kron(out, _PAULI[name])
    return out


def j2_dense(N, k):
    """Reference for the sequential measurement: the total angular momentum
    squared of the first k qubits, on all N."""
    out = 0.75 * k * np.eye(2**N, dtype=complex)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for kind in "XYZ":
                out += 0.5 * pauli_op(N, (i, j), (kind, kind))
    return out


def symmetrize_channel(rho, N):
    """Reference for the per-spin path average of general_qec_smallN: the mean
    over all qubit permutations, rho -> (1/N!) sum_sigma P rho P^dag.

    Evaluated by the coset recursion (average over S_k built from the S_{k-1}
    average and k transpositions), so the cost is O(N^2) conjugations instead
    of N! terms.  Conjugating by the transposition of qubits i and k swaps
    their row axes and their column axes of rho viewed as a (2,)*2N tensor.
    """
    out = np.array(rho, dtype=complex).reshape((2,) * (2 * N))
    for k in range(2, N + 1):
        acc = out.copy()  # i = k term (identity)
        for i in range(1, k):
            axes = list(range(2 * N))
            axes[i - 1], axes[k - 1] = k - 1, i - 1
            axes[N + i - 1], axes[N + k - 1] = N + k - 1, N + i - 1
            acc += out.transpose(axes)
        out = acc / k
    return out.reshape(2**N, 2**N)


def test_embed_round_trip():
    rng = np.random.default_rng(2)
    psi = SymState.random(5, rng)
    dense = embed_sym(psi)
    assert abs(np.vdot(dense.vec, dense.vec).real - 1.0) < 1e-12
    back = project_sym(dense)
    assert np.allclose(back.amps, psi.amps)


def test_dense_cap():
    with pytest.raises(ValueError):
        DenseState(13, np.zeros(2**13, dtype=complex))


def test_young_diagram_counts():
    d = YoungDiagram2(4, 2)
    assert d.syt_count() == 9
    assert d.syt_count_hooks() == 9
    assert d.ssyt_count() == 3
    assert YoungDiagram2(1, 1).syt_count() == 1


def test_enumerate_syt_small():
    tabs = enumerate_syt(2)
    diagrams = {d: len(v) for d, v in tabs.items()}
    assert diagrams == {YoungDiagram2(2, 0): 1, YoungDiagram2(1, 1): 1}
    tabs6 = enumerate_syt(6)
    assert len(tabs6[YoungDiagram2(4, 2)]) == 9


@pytest.mark.parametrize("N", range(1, 13))
def test_schur_weyl_dimension_count(N):
    total = 0
    for diagram, tabs in enumerate_syt(N).items():
        assert len(tabs) == diagram.syt_count() == diagram.syt_count_hooks()
        total += len(tabs) * diagram.ssyt_count()
    assert total == 2**N


def _schur_blocks_kron(N):
    """Reference Clebsch-Gordan build of schur_blocks: each new vector as a sum
    of coefficient * np.kron(old vector, qubit state), in complex arithmetic."""
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    blocks = [((1,), {1: up, -1: down})]
    for _ in range(1, N):
        new_blocks = []
        for path, vecs in blocks:
            j2 = path[-1]
            for j2_new in (j2 + 1, j2 - 1):
                if j2_new < 0:
                    continue
                new_vecs = {}
                for m2 in range(j2_new, -j2_new - 1, -2):
                    vec = None
                    for half, qubit in ((1, up), (-1, down)):
                        m2_old = m2 - half
                        if abs(m2_old) > j2:
                            continue
                        if j2_new == j2 + 1:
                            coeff = math.sqrt((j2 + half * m2 + 1) / (2.0 * (j2 + 1)))
                        else:
                            coeff = -half * math.sqrt((j2 - half * m2 + 1) / (2.0 * (j2 + 1)))
                        term = coeff * np.kron(vecs[m2_old], qubit)
                        vec = term if vec is None else vec + term
                    new_vecs[m2] = vec
                new_blocks.append((path + (j2_new,), new_vecs))
        blocks = new_blocks
    return [(path, np.array([vecs[m2] for m2 in range(path[-1], -path[-1] - 1, -2)]))
            for path, vecs in blocks]


@pytest.mark.parametrize("N", range(1, 9))
def test_schur_blocks_equal_kron_reference(N):
    got = schur_blocks(N)
    want = _schur_blocks_kron(N)
    assert [blk.j_path_doubled for blk in got] == [path for path, _ in want]
    for blk, (_, vecs) in zip(got, want):
        assert blk.vectors.dtype == np.float64
        assert np.array_equal(blk.vectors, vecs)


@pytest.mark.parametrize("N", range(3, 7))
def test_path_twirl_matches_symmetrize_channel(N):
    # a random complex, non-Hermitian y = sum_c |y e_c><e_c|, twirled per spin
    # in Schur coordinates and mapped back, against the dense coset recursion
    rng = np.random.default_rng(60 + N)
    y = rng.standard_normal((2**N, 2**N)) + 1j * rng.standard_normal((2**N, 2**N))
    basis, _, spins = _schur_coordinates(N)
    ket = _schur_coeffs(basis, y.T[:, None, :])
    bra = _schur_coeffs(basis, np.eye(2**N)[:, None, :])
    got = np.zeros_like(y)
    for j2, block in _path_twirl(ket, bra, spins).items():
        for rows in spins[j2]:
            got += basis[rows].T @ block[0, 0] @ basis[rows]
    assert np.max(np.abs(got - symmetrize_channel(y, N))) < 1e-13


def test_schur_blocks_orthonormal_and_diagonal():
    N = 4
    blocks = schur_blocks(N)
    all_vecs = np.vstack([b.vectors for b in blocks])
    assert all_vecs.shape == (2**N, 2**N)
    gram = all_vecs.conj() @ all_vecs.T
    assert np.max(np.abs(gram - np.eye(2**N))) < 1e-12
    # every block vector is a simultaneous eigenvector of all prefix J^2
    for blk in blocks:
        for k in range(1, N + 1):
            j2k = j2_dense(N, k)
            jk = blk.j_path_doubled[k - 1] / 2.0
            want = jk * (jk + 1.0)
            for vec in blk.vectors:
                resid = j2k @ vec - want * vec
                assert np.max(np.abs(resid)) < 1e-12


def test_prefix_j2_operators_commute():
    N = 6
    mats = [j2_dense(N, k) for k in range(1, N + 1)]
    for a in mats:
        for b in mats:
            comm = a @ b - b @ a
            assert np.max(np.abs(comm)) < 1e-12


def test_sequential_measurement_symmetric_input():
    params = GnuParams(2, 2, Fraction(1), 1)
    plus = make_logical(params, Label.PLUS)
    tab, post = sequential_j2_measure(embed_sym(plus), np.random.default_rng(0))
    assert tab.diagram == YoungDiagram2(plus.n_qubits, 0)  # one-row tableau
    assert abs(abs(np.vdot(post.vec, embed_sym(plus).vec)) - 1.0) < 1e-12


def test_sequential_measurement_01_split():
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0  # |01>
    triplet = singlet = 0
    for seed in range(600):
        tab, post = sequential_j2_measure(DenseState(2, vec), np.random.default_rng(seed))
        if tab.j_total_doubled == 2:
            triplet += 1
            want = np.zeros(4, dtype=complex)
            want[1] = want[2] = 1 / math.sqrt(2)  # |D^2_1>
            assert abs(abs(np.vdot(want, post.vec)) - 1.0) < 1e-12
        else:
            singlet += 1
            assert tab.diagram == YoungDiagram2(1, 1)
    assert abs(triplet / 600 - 0.5) < 0.07


def test_sequential_measurement_against_dense_projectors():
    # probabilities from the path-basis implementation match brute-force
    # spectral projectors of the prefix J^2 operators
    N = 3
    rng = np.random.default_rng(5)
    z = rng.standard_normal(2**N) + 1j * rng.standard_normal(2**N)
    z /= np.linalg.norm(z)
    blocks = schur_blocks(N)
    path_probs = {}
    for blk in blocks:
        coeffs = blk.vectors.conj() @ z
        path_probs[blk.j_path_doubled] = float(np.sum(np.abs(coeffs) ** 2))
    # dense: sequentially project on eigenspaces
    def dense_prob(path):
        vec = z.copy()
        prob = 1.0
        for k in range(1, N + 1):
            j2k = j2_dense(N, k)
            evals, evecs = np.linalg.eigh(j2k)
            jk = path[k - 1] / 2.0
            target = jk * (jk + 1.0)
            mask = np.abs(evals - target) < 1e-9
            proj = evecs[:, mask] @ evecs[:, mask].conj().T
            vec = proj @ vec
        return float(np.vdot(vec, vec).real)

    for path, p in path_probs.items():
        assert abs(dense_prob(path) - p) < 1e-12


def test_measurement_order_invariance():
    # probabilities of the final (j_N) outcome do not depend on whether the
    # nested subsets are measured in increasing or decreasing order
    N = 4
    rng = np.random.default_rng(8)
    z = rng.standard_normal(2**N) + 1j * rng.standard_normal(2**N)
    z /= np.linalg.norm(z)
    j2n = j2_dense(N, N)
    evals, evecs = np.linalg.eigh(j2n)
    # final-only projection probabilities
    final = {}
    for target_doubled in (0, 2, 4):
        j = target_doubled / 2.0
        mask = np.abs(evals - j * (j + 1.0)) < 1e-9
        proj = evecs[:, mask] @ evecs[:, mask].conj().T
        final[target_doubled] = float(np.vdot(proj @ z, proj @ z).real)
    # summed path probabilities agree (sequential measurement refines J^2_[N])
    blocks = schur_blocks(N)
    summed = {}
    for blk in blocks:
        coeffs = blk.vectors.conj() @ z
        summed[blk.j_doubled] = summed.get(blk.j_doubled, 0.0) + float(
            np.sum(np.abs(coeffs) ** 2)
        )
    for key, val in final.items():
        assert abs(summed.get(key, 0.0) - val) < 1e-12


def test_symmetrize_invariant_state_unchanged():
    params = GnuParams(2, 2, Fraction(1), 0)
    vec = embed_sym(make_logical(params, Label.PLUS)).vec
    rho = np.outer(vec, vec.conj())
    out = symmetrize_channel(rho, 4)
    assert np.max(np.abs(out - rho)) < 1e-12


def test_symmetrize_01_pair():
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0
    rho = np.outer(vec, vec.conj())
    out = symmetrize_channel(rho, 2)
    want = np.zeros((4, 4), dtype=complex)
    want[1, 1] = want[2, 2] = 0.5
    assert np.max(np.abs(out - want)) < 1e-14


def test_symmetrize_equals_group_average():
    # coset recursion vs explicit S_N average at N = 3
    import itertools

    N = 3
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho)

    def perm_matrix(perm):
        mat = np.zeros((8, 8))
        for idx in range(8):
            bits = [(idx >> (N - 1 - i)) & 1 for i in range(N)]
            new_bits = [bits[perm[i]] for i in range(N)]
            j = sum(b << (N - 1 - i) for i, b in enumerate(new_bits))
            mat[j, idx] = 1.0
        return mat

    want = np.zeros_like(rho)
    for perm in itertools.permutations(range(N)):
        P = perm_matrix(perm)
        want += P @ rho @ P.T
    want /= math.factorial(N)
    got = symmetrize_channel(rho, N)
    assert np.max(np.abs(got - want)) < 1e-12


def test_partial_trace_matches_channel():
    # shared oracle with the noise module on symmetric inputs
    rng = np.random.default_rng(12)
    for _ in range(20):
        N = int(rng.integers(2, 8))
        psi = SymState.random(N, rng)
        dense = embed_sym(psi).vec
        want = partial_trace_first(np.outer(dense, dense.conj()), N, 1)
        got = np.zeros_like(want)
        for br in delete(psi, 1):
            v = embed_sym(br.state).vec
            got += br.weight * np.outer(v, v.conj())
        assert np.max(np.abs(want - got)) < 1e-12


def test_insert_zeros_positions():
    vec = np.array([0.0, 1.0], dtype=complex)  # |1> on one qubit
    out = insert_zeros(vec, 1, (1,))  # |0> inserted in front: |01>
    assert abs(out[0b01] - 1.0) < 1e-15
    out = insert_zeros(vec, 1, (2,))  # |0> behind: |10>
    assert abs(out[0b10] - 1.0) < 1e-15


def test_kl_check_gnu_code_and_rotations():
    # the (3,3,1) code and its theta-rotated codewords
    assert check_kl_gnu() < 1e-10


def test_kl_check_names_a_pauli_only_above_rounding():
    # the exact (3,3) code leaves rounding noise, which names no Pauli
    params = GnuParams(3, 3, Fraction(1), 0)
    cw0, cw1 = (embed_sym(cw).vec for cw in logical_pair(params))
    report = kl_check([DenseState(9, cw0), DenseState(9, cw1)], t=1)
    assert report["max_violation"] <= KL_LABEL_FLOOR
    assert report["worst_pauli"] is None
    # mixing X_4 |1_L> into |0_L> breaks <0|X_4|1> = 0 at first order in eps;
    # every other Pauli of weight <= 2 moves at second order only
    eps = 1e-6
    bent = cw0 + eps * pauli_apply(9, (4,), ("X",), cw1[None, :])[0]
    bent /= np.linalg.norm(bent)
    report = kl_check([DenseState(9, bent), DenseState(9, cw1)], t=1)
    assert report["worst_pauli"] == ((4,), ("X",))
    assert report["max_violation"] == pytest.approx(eps, rel=1e-6)


def test_kl_check_repetition_code_fails():
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    one = np.zeros(8, dtype=complex)
    one[7] = 1.0
    report = kl_check([DenseState(3, zero), DenseState(3, one)], t=1)
    assert report["max_violation"] > 0.5  # X-type violations


def _random_orthonormal_states(N, M, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2**N, M)) + 1j * rng.standard_normal((2**N, M))
    q, _ = np.linalg.qr(z)
    return [DenseState(N, q[:, j]) for j in range(M)]


def _kl_check_loop(code_states, t):
    """Reference for kl_check: one Pauli at a time, the first largest deviation."""
    N = code_states[0].n_qubits
    vecs = np.array([cs.vec for cs in code_states])
    M = len(vecs)
    worst, worst_label = 0.0, None
    for positions, kinds in enumerate_paulis(N, 2 * t):
        overlaps = vecs.conj() @ pauli_apply(N, positions, kinds, vecs).T
        dev = float(np.max(np.abs(overlaps - np.trace(overlaps) / M * np.eye(M))))
        if dev > worst:
            worst, worst_label = dev, (positions, kinds)
    return {"max_violation": worst, "worst_pauli": worst_label if worst > KL_LABEL_FLOOR else None}


@pytest.mark.parametrize(
    "states, t",
    [
        # 106 Paulis of weight <= 2 on 5 qubits: two batches, the last one short
        (_random_orthonormal_states(5, 3, seed=4), 1),
        (_random_orthonormal_states(3, 2, seed=6), 2),
        # the repetition code: equal deviations, the first label is reported
        ([DenseState(3, np.eye(8, dtype=complex)[0]), DenseState(3, np.eye(8, dtype=complex)[7])], 1),
    ],
)
def test_kl_check_batches_equal_a_loop_over_paulis(states, t):
    assert kl_check(states, t) == _kl_check_loop(states, t)


def test_general_qec_identity_channel():
    params = GnuParams(3, 3, Fraction(1), 0)
    cw0, cw1 = logical_pair(params)
    rep = general_qec_smallN([embed_sym(cw0), embed_sym(cw1)], [[(1.0, (), ())]], max_weight=0)
    assert abs(rep["entanglement_fidelity"] - 1.0) < 1e-10


def test_general_qec_single_qubit_channel():
    rep = general_qec_report()
    assert abs(rep["entanglement_fidelity"] - 1.0) < 1e-8
    assert abs(rep["output_trace"] - 1.0) < 1e-10
    for block in rep["blocks"]:
        assert block["r_T"] <= block["bound"] + 1e-12


def test_general_qec_report_memory_excludes_dense_kraus_operators():
    # the Schur basis is cached per N, so warm it first; the (3,3,1) check then
    # needs no 2^9 x 2^9 operator (a dense Kraus matrix alone is 4 MiB)
    schur_blocks(9)
    _schur_coordinates(9)
    tracemalloc.start()
    try:
        general_qec_report()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("N", [1, 6])
def test_schur_blocks_are_read_only_views_into_the_stacked_basis(N):
    basis, starts, _ = _schur_coordinates(N)
    assert basis.shape == (2**N, 2**N) and not basis.flags.writeable
    for blk, start in zip(schur_blocks(N), starts):
        assert blk.vectors.base is basis and not blk.vectors.flags.writeable
        assert np.array_equal(blk.vectors, basis[start:start + blk.j_doubled + 1])


def test_cold_schur_build_holds_one_basis_beside_the_one_it_returns():
    # at N = 10: the 8 MiB basis and the 2 MiB step before it, no per-block copies
    schur_blocks.cache_clear()
    _schur_coordinates.cache_clear()
    tracemalloc.start()
    try:
        schur_blocks(10)
        _schur_coordinates(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2**20


def test_check_kl_gnu_builds_no_dense_operator():
    # the signal rotation is a phase vector; one 2^9 x 2^9 complex matrix is 4 MiB
    check_kl_gnu()
    tracemalloc.start()
    try:
        check_kl_gnu()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**9


def test_measurement_order_permutation_invariance():
    # the prefix J^2 operators commute, so measuring the nested family in any
    # order yields the same joint outcome distribution; compare increasing vs
    # decreasing order with dense eigenprojectors at N = 4
    N = 4
    rng = np.random.default_rng(21)
    z = rng.standard_normal(2**N) + 1j * rng.standard_normal(2**N)
    z /= np.linalg.norm(z)

    projectors = {}
    for k in range(1, N + 1):
        evals, evecs = np.linalg.eigh(j2_dense(N, k))
        by_j = {}
        for jd in range(k % 2, k + 1, 2):
            j = jd / 2.0
            mask = np.abs(evals - j * (j + 1.0)) < 1e-9
            if mask.any():
                by_j[jd] = evecs[:, mask] @ evecs[:, mask].conj().T
        projectors[k] = by_j

    def joint(order):
        probs = {}
        for blk in schur_blocks(N):
            vec = z.copy()
            for k in order:
                vec = projectors[k][blk.j_path_doubled[k - 1]] @ vec
            probs[blk.j_path_doubled] = float(np.vdot(vec, vec).real)
        return probs

    forward = joint(range(1, N + 1))
    backward = joint(range(N, 0, -1))
    assert abs(sum(forward.values()) - 1.0) < 1e-12
    for path in forward:
        assert abs(forward[path] - backward[path]) < 1e-12


def test_sequential_measurement_returns_valid_tableau():
    rng = np.random.default_rng(33)
    N = 5
    z = rng.standard_normal(2**N) + 1j * rng.standard_normal(2**N)
    z /= np.linalg.norm(z)
    for seed in range(10):
        tab, _ = sequential_j2_measure(DenseState(N, z), np.random.default_rng(seed))
        row2 = tuple(k for k in range(1, N + 1) if k not in tab.row1)
        assert sorted(tab.row1 + row2) == list(range(1, N + 1))
        assert tab.row1[0] == 1  # label 1 always sits in row 1
        # row-2 label k must have more row-1 labels than row-2 labels before it
        for pos, label in enumerate(row2, start=1):
            assert sum(1 for r in tab.row1 if r < label) >= pos
        d = tab.diagram
        assert d.j_total_doubled == tab.j_path_doubled[-1]


def test_pauli_apply_matches_dense_pauli():
    N = 4
    rng = np.random.default_rng(17)
    vecs = rng.standard_normal((3, 2**N)) + 1j * rng.standard_normal((3, 2**N))
    labels = list(enumerate_paulis(N, 2))
    assert len(labels) == 1 + 4 * 3 + 6 * 9
    for positions, kinds in labels:
        want = vecs @ pauli_op(N, positions, kinds).T
        assert np.max(np.abs(pauli_apply(N, positions, kinds, vecs) - want)) < 1e-14
        single = pauli_apply(N, positions, kinds, vecs[0])
        assert np.max(np.abs(single - want[0])) < 1e-14
    with pytest.raises(ValueError):
        pauli_apply(N, (1,), ("W",), vecs)


def _kraus_string_damping(rho, N, gamma):
    """Reference: sum over all 2^N Kraus strings of one-qubit damping operators."""
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]])
    a1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
    out = np.zeros_like(rho)
    for string in range(2**N):
        K = np.array([[1.0]])
        for pos in range(N):
            K = np.kron(K, a1 if (string >> (N - 1 - pos)) & 1 else a0)
        out += K @ rho @ K.T
    return out


@pytest.mark.parametrize("N", range(1, 6))
def test_per_qubit_damping_matches_kraus_strings(N):
    rng = np.random.default_rng(40 + N)
    psi = SymState.random(N, rng)
    vec = embed_sym(psi).vec
    for gamma in (0.0, 0.3, 1.0):
        want = _kraus_string_damping(np.outer(vec, vec.conj()), N, gamma)
        assert np.max(np.abs(_ad_kraus_brute(psi, gamma) - want)) < 1e-14


def _dense_recovery_qec(code_states, kraus_ops, max_weight):
    """Reference for general_qec_smallN with dense Paulis and recovery Kraus operators.

    The channel's Kraus operators, given as Pauli expansions, are built as
    dense matrices with ``pauli_op``.
    """
    N = code_states[0].n_qubits
    M = len(code_states)
    kraus_ops = [sum(c * pauli_op(N, pos, kinds) for c, pos, kinds in K) for K in kraus_ops]
    vecs = [cs.vec for cs in code_states]
    errors = [pauli_op(N, pos, kinds) for pos, kinds in enumerate_paulis(N, max_weight)]
    recovery, blocks = [], []
    covered = np.zeros((2**N, 2**N), dtype=complex)
    for blk in schur_blocks(N):
        coeffs = [np.array([blk.vectors.conj() @ (E @ v) for E in errors]) for v in vecs]
        evals, evecs = np.linalg.eigh(coeffs[0] @ coeffs[0].conj().T)
        keep = evals > 1e-10
        if not keep.any():
            continue
        dim = blk.vectors.shape[0]
        blocks.append({"j_path": blk.j_path_doubled, "r_T": int(keep.sum()), "bound": dim / M})
        combo = evecs[:, keep] / np.sqrt(evals[keep])
        for k in range(combo.shape[1]):
            rows = [(combo[:, k].conj() @ c) @ blk.vectors for c in coeffs]
            recovery.append(sum(np.outer(v, b.conj()) for v, b in zip(vecs, rows)))
            covered += sum(np.outer(b, b.conj()) for b in rows)
    recovery.append(np.eye(2**N) - covered)

    def phi(x):
        y = symmetrize_channel(sum(K @ x @ K.conj().T for K in kraus_ops), N)
        return sum(R @ y @ R.conj().T for R in recovery)

    fid = sum(np.vdot(a, phi(np.outer(a, b.conj())) @ b) for a in vecs for b in vecs)
    rho_in = sum(np.outer(v, v.conj()) for v in vecs) / M
    return fid.real / M**2, np.trace(phi(rho_in)).real, blocks


@pytest.mark.parametrize(
    "states, max_weight",
    [
        # the (2, 3) code fails KL for the weight-1 spanning set, so the
        # recovery is not trace preserving there
        ([embed_sym(cw) for cw in logical_pair(GnuParams(2, 3, Fraction(1), 0))], 1),
        # a random pair is no code at all: the codewords leak into the remainder
        (_random_orthonormal_states(4, 2, seed=9), 0),
        (_random_orthonormal_states(4, 2, seed=9), 1),
        # three random codewords: every block's recovery rows come from M = 3
        (_random_orthonormal_states(7, 3, seed=13), 1),
    ],
)
def test_general_qec_matches_dense_recovery_reference(states, max_weight):
    N = states[0].n_qubits
    norm = math.sqrt(1.0 + 0.25 + 0.16 + 0.09)
    kraus = [
        [(1.0 / norm, (), ())],
        [(0.5 / norm, (1,), ("X",))],
        [(0.4 / norm, (1, 2), ("Y", "Z"))],
        [(0.3 / norm, (2, N), ("X", "X"))],
    ]
    rep = general_qec_smallN(states, kraus, max_weight=max_weight)
    fid, trace, blocks = _dense_recovery_qec(states, kraus, max_weight=max_weight)
    assert abs(rep["entanglement_fidelity"] - fid) < 1e-12
    assert abs(rep["output_trace"] - trace) < 1e-12
    assert abs(rep["output_trace"] - 1.0) > 0.1
    assert rep["blocks"] == blocks


@pytest.mark.parametrize(
    "states, max_weight",
    [
        ([embed_sym(cw) for cw in logical_pair(GnuParams(2, 3, Fraction(1), 0))], 1),
        (_random_orthonormal_states(5, 3, seed=21), 1),
    ],
)
def test_general_qec_two_term_kraus_matches_dense_recovery_reference(states, max_weight):
    # amplitude damping of qubit 1: K0 = diag(1, sqrt(1 - gamma)) and
    # K1 = sqrt(gamma) |0><1|, as sums of two Pauli terms each
    gamma = 0.3
    rest = math.sqrt(1.0 - gamma)
    kraus = [
        [((1.0 + rest) / 2, (), ()), ((1.0 - rest) / 2, (1,), ("Z",))],
        [(math.sqrt(gamma) / 2, (1,), ("X",)), (1j * math.sqrt(gamma) / 2, (1,), ("Y",))],
    ]
    rep = general_qec_smallN(states, kraus, max_weight=max_weight)
    fid, trace, blocks = _dense_recovery_qec(states, kraus, max_weight=max_weight)
    assert abs(rep["entanglement_fidelity"] - fid) < 1e-12
    assert abs(rep["output_trace"] - trace) < 1e-12
    assert rep["blocks"] == blocks
