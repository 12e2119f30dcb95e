"""Small-N full-Hilbert-space verification layer.

Everything here is brute force over the full 2^N space and deliberately
simple: this module exists to certify the scalable Dicke-block code paths,
not to scale itself.  Qubit 1 is the most significant bit of the basis
index, so "the first k qubits" are the high bits and the nested subsets [k]
of the sequential angular-momentum measurement are prefixes of the index.

Paulis are applied to 2^N vectors as (x|z) bit masks (Aaronson & Gottesman,
PRA 70, 052328 (2004)) by ``pauli_apply``, in O(2^N) per vector; the dense
``pauli_op`` matrix is kept for building Kraus inputs and as the reference
the bit-mask form is tested against.

``general_qec_smallN`` computes in Schur coefficients (Bacon, Chuang &
Harrow, PRL 97, 170502 (2006)).  By Schur-Weyl duality the qubit
permutations act on each spin-j block as Q_j (x) P_j, on the path factor
P_j only, so the permutation twirl of an operator keeps its path-diagonal
(2j+1) x (2j+1) blocks and replaces each by their mean over the paths of
spin j.  The recovery rows lie in single path blocks and the remainder of
the recovery is block diagonal, so the fidelity comes from (2j+1)-sized
matrices; no 2^N x 2^N operator is formed besides the caller's Kraus
operators and the basis.  The dense ``symmetrize_channel`` stays as the
reference the twirl is tested against.

Two-row Young diagrams (r1, r2) label the Schur-Weyl blocks of N qubits;
standard tableaux of a diagram are in bijection with the admissible
total-angular-momentum paths j_1, ..., j_N (j_1 = 1/2, steps of +-1/2,
never negative), which is exactly how the sequential measurement walks
them.  j values are stored doubled (integers) throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from symsense.symcore import SymState, binom

MAX_DENSE_QUBITS = 12
# Knill-Laflamme deviations at or below this are rounding noise (exact codes
# give ~1e-16 at N = 9), well under the 1e-10 tolerance of verify's KL check
KL_LABEL_FLOOR = 1e-12


@dataclass(frozen=True)
class DenseState:
    """Full 2^N state vector; N is capped to keep everything honest but small."""

    n_qubits: int
    vec: np.ndarray

    def __post_init__(self):
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise ValueError(f"dense layer is capped at N = {MAX_DENSE_QUBITS}")
        vec = np.asarray(self.vec, dtype=complex)
        if vec.shape != (2**self.n_qubits,):
            raise ValueError("vector dimension must be 2^N")
        object.__setattr__(self, "vec", vec)


# ---------------------------------------------------------------------------
# embeddings and dense operators
# ---------------------------------------------------------------------------


def embed_sym(state: SymState) -> DenseState:
    """Embed a Dicke-basis symmetric state into the full 2^N space."""
    N = state.n_qubits
    vec = np.zeros(2**N, dtype=complex)
    for idx in range(2**N):
        w = idx.bit_count()
        if state.amps[w] != 0:
            vec[idx] = state.amps[w] / math.sqrt(binom(N, w))
    return DenseState(N, vec)


def project_sym(dense: DenseState) -> SymState:
    """Overlap of a dense state with each Dicke state (no normalization)."""
    N = dense.n_qubits
    amps = np.zeros(N + 1, dtype=complex)
    for idx in range(2**N):
        amps[idx.bit_count()] += dense.vec[idx]
    for w in range(N + 1):
        amps[w] /= math.sqrt(binom(N, w))
    return SymState(N, amps)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_op(N: int, positions: tuple[int, ...], kinds: tuple[str, ...]) -> np.ndarray:
    """Dense N-qubit Pauli with the given letters at 1-based positions."""
    ops = ["I"] * N
    for pos, kind in zip(positions, kinds):
        ops[pos - 1] = kind
    out = np.array([[1.0 + 0j]])
    for name in ops:
        out = np.kron(out, _PAULI[name])
    return out


@lru_cache(maxsize=None)
def _parity_table(N: int) -> np.ndarray:
    """popcount(i) mod 2 for every N-bit basis index i."""
    parity = np.zeros(2**N, dtype=np.int8)
    for b in range(N):
        parity[1 << b : 2 << b] = 1 - parity[: 1 << b]
    return parity


def pauli_apply(
    N: int, positions: tuple[int, ...], kinds: tuple[str, ...], vecs: np.ndarray
) -> np.ndarray:
    """``pauli_op(N, positions, kinds) @ v`` for each vector v, without the matrix.

    With x (z) the bit mask of the X or Y (Z or Y) letters, Y = iXZ gives
    (P v)[i] = i^{#Y} (-1)^{popcount((i xor x) and z)} v[i xor x].  ``vecs``
    is one 2^N vector or a stack of them with the basis index last.
    """
    x = z = n_y = 0
    for pos, kind in zip(positions, kinds):
        if kind not in "IXYZ":
            raise ValueError(f"unknown Pauli letter {kind!r}")
        bit = 1 << (N - pos)
        if kind in "XY":
            x |= bit
        if kind in "YZ":
            z |= bit
        n_y += kind == "Y"
    src = np.arange(2**N) ^ x
    phase = (1, 1j, -1, -1j)[n_y % 4] * (1 - 2 * _parity_table(N)[src & z])
    return phase * np.asarray(vecs)[..., src]


def enumerate_paulis(N: int, max_weight: int):
    """All Pauli operators (as (positions, kinds) labels) of weight 0..max_weight."""
    yield (), ()
    for w in range(1, max_weight + 1):
        for positions in itertools.combinations(range(1, N + 1), w):
            for kinds in itertools.product("XYZ", repeat=w):
                yield positions, kinds


def j2_dense(N: int, k: int) -> np.ndarray:
    """Total angular momentum squared of the first k qubits, on all N."""
    dim = 2**N
    out = 0.75 * k * np.eye(dim, dtype=complex)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for kind in "XYZ":
                out += 0.5 * pauli_op(N, (i, j), (kind, kind))
    return out


def signal_unitary_dense(N: int, theta: float) -> np.ndarray:
    diag = np.exp(-1j * theta * np.array([0.5 * N - idx.bit_count() for idx in range(2**N)]))
    return np.diag(diag)


def partial_trace_first(rho: np.ndarray, N: int, t: int) -> np.ndarray:
    """Trace out the first t qubits (the high bits) of an N-qubit density matrix."""
    d_keep = 2 ** (N - t)
    r = rho.reshape(2**t, d_keep, 2**t, d_keep)
    return np.einsum("abad->bd", r)


def insert_zeros(vec: np.ndarray, n_small: int, positions: tuple[int, ...]) -> np.ndarray:
    """Insert |0> qubits at the given 1-based positions of the enlarged register."""
    n_big = n_small + len(positions)
    pos_set = set(positions)
    small_slots = [p for p in range(1, n_big + 1) if p not in pos_set]
    out = np.zeros(2**n_big, dtype=complex)
    for idx in range(2**n_small):
        big = 0
        for bit_i, slot in enumerate(small_slots):
            if (idx >> (n_small - 1 - bit_i)) & 1:
                big |= 1 << (n_big - slot)
        out[big] = vec[idx]
    return out


# ---------------------------------------------------------------------------
# two-row Young diagrams, SYTs, and j-paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YoungDiagram2:
    r1: int
    r2: int

    def __post_init__(self):
        if self.r1 < self.r2 or self.r2 < 0:
            raise ValueError("need r1 >= r2 >= 0")

    @property
    def n_boxes(self) -> int:
        return self.r1 + self.r2

    @property
    def j_total_doubled(self) -> int:
        return self.r1 - self.r2

    def syt_count(self) -> int:
        """Number of standard tableaux: C(N, r1) (2 r1 - N + 1) / (r1 + 1)."""
        N = self.n_boxes
        num = binom(N, self.r1) * (2 * self.r1 - N + 1)
        assert num % (self.r1 + 1) == 0
        return num // (self.r1 + 1)

    def syt_count_hooks(self) -> int:
        """Hook-length formula evaluated box by box (independent of the closed form)."""
        hooks = []
        for col in range(self.r1):
            arm = self.r1 - col - 1
            leg = 1 if col < self.r2 else 0
            hooks.append(arm + leg + 1)
        for col in range(self.r2):
            hooks.append(self.r2 - col)
        prod = math.prod(hooks)
        assert math.factorial(self.n_boxes) % prod == 0
        return math.factorial(self.n_boxes) // prod

    def ssyt_count(self) -> int:
        """Semistandard fillings with entries {1, 2}: r1 - r2 + 1."""
        return self.r1 - self.r2 + 1


@dataclass(frozen=True)
class StandardTableau:
    """A two-row SYT, stored as the row-1 labels and the running j_k path (doubled)."""

    n_boxes: int
    row1: tuple[int, ...]
    j_path_doubled: tuple[int, ...]

    @property
    def row2(self) -> tuple[int, ...]:
        in_row1 = set(self.row1)
        return tuple(k for k in range(1, self.n_boxes + 1) if k not in in_row1)

    @property
    def diagram(self) -> YoungDiagram2:
        return YoungDiagram2(len(self.row1), self.n_boxes - len(self.row1))

    @property
    def j_total_doubled(self) -> int:
        return self.j_path_doubled[-1]


def enumerate_syt(N: int) -> dict[YoungDiagram2, list[StandardTableau]]:
    """All two-row SYTs with N boxes, grouped by diagram.

    Generated as admissible angular-momentum paths: label k goes to row 1 on a
    +1/2 step and to row 2 on a -1/2 step; never letting j dip below zero is
    the column-strictness constraint.
    """
    out: dict = {}
    stack = [((1,), (1,))]  # (row1 labels, doubled-j path) after one box
    while stack:
        row1, path = stack.pop()
        if len(path) == N:
            tab = StandardTableau(N, row1, path)
            out.setdefault(tab.diagram, []).append(tab)
            continue
        k = len(path) + 1
        j2 = path[-1]
        stack.append((row1 + (k,), path + (j2 + 1,)))
        if j2 > 0:
            stack.append((row1, path + (j2 - 1,)))
    return out


# ---------------------------------------------------------------------------
# sequential Clebsch-Gordan (Schur) basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchurBlock:
    """One (path, j) block: vectors[m_idx] is |m_T> with m = j - m_idx (doubled js)."""

    j_path_doubled: tuple[int, ...]
    vectors: np.ndarray  # float64, shape (2j+1, 2^N), rows ordered m = +j .. -j

    @property
    def j_doubled(self) -> int:
        return self.j_path_doubled[-1]


@lru_cache(maxsize=8)
def schur_blocks(N: int) -> tuple[SchurBlock, ...]:
    """Sequentially coupled angular-momentum basis of N qubits.

    Built by one Clebsch-Gordan step per qubit; each block is labelled by its
    j-path (equivalently a two-row SYT) and spans the 2j+1 magnetic states.
    The coefficients are real, so the vectors are stored as float64.  A step
    appends qubit k + 1 as the low bit: viewed as a (2^k, 2) array, a new
    vector holds the coefficient times an old vector in column 0 (the new
    qubit up) and in column 1 (down).
    """
    if N > 10:
        raise ValueError("Schur basis construction capped at N = 10")
    # per path, the magnetic states as rows m = +j .. -j on k qubits
    blocks = [((1,), np.eye(2))]
    for k in range(1, N):
        new_blocks = []
        for path, vecs in blocks:
            j2 = path[-1]
            # couple with the next qubit: j' = j + 1/2 and (if j > 0) j' = j - 1/2
            for j2_new in (j2 + 1, j2 - 1):
                if j2_new < 0:
                    continue
                new_vecs = np.zeros((j2_new + 1, 2**k, 2))
                for row, m2 in enumerate(range(j2_new, -j2_new - 1, -2)):
                    # CG for (j) x (1/2) -> j'; m = m_old + (+-1/2)
                    for col, half in enumerate((1, -1)):
                        m2_old = m2 - half
                        if abs(m2_old) > j2:
                            continue
                        if j2_new == j2 + 1:
                            coeff = math.sqrt((j2 + half * m2 + 1) / (2.0 * (j2 + 1)))
                        else:
                            coeff = -half * math.sqrt((j2 - half * m2 + 1) / (2.0 * (j2 + 1)))
                        new_vecs[row, :, col] = coeff * vecs[(j2 - m2_old) // 2]
                new_blocks.append((path + (j2_new,), new_vecs.reshape(j2_new + 1, -1)))
        blocks = new_blocks
    return tuple(SchurBlock(path, vecs) for path, vecs in blocks)


@lru_cache(maxsize=8)
def _schur_coordinates(N: int) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """The stacked ``schur_blocks(N)`` basis, each block's first row, and the rows per spin.

    The basis is the (2^N, 2^N) matrix whose rows are the block vectors in
    block order.  ``spins`` maps each doubled spin j2 to the (paths, j2 + 1)
    array of its blocks' rows.
    """
    blocks = schur_blocks(N)
    basis = np.vstack([blk.vectors for blk in blocks])
    basis.flags.writeable = False
    starts = np.cumsum([0] + [blk.vectors.shape[0] for blk in blocks[:-1]])
    rows: dict[int, list] = {}
    for blk, start in zip(blocks, starts):
        rows.setdefault(blk.j_doubled, []).append(np.arange(start, start + blk.j_doubled + 1))
    return basis, starts, {j2: np.array(r) for j2, r in rows.items()}


def _schur_coeffs(basis: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<v|x> for every row v of the real ``basis`` and every 2^N vector x in ``vecs``.

    ``vecs`` holds the vectors along its last axis; the coefficients replace it.
    """
    flat = vecs.reshape(-1, basis.shape[1])
    out = flat.real @ basis.T + 1j * (flat.imag @ basis.T)
    return out.reshape(vecs.shape[:-1] + (basis.shape[0],))


def _path_twirl(ket: np.ndarray, bra: np.ndarray, spins: dict[int, np.ndarray]) -> dict:
    """Permutation twirl of y = sum_K |ket_K><bra_K|, block by block in Schur coordinates.

    ``ket`` (K, X, 2^N) and ``bra`` (K, Y, 2^N) hold Schur coefficients, so
    one y per pair (x, y) of their middle indices.  By Schur-Weyl duality
    the twirl keeps only the path-diagonal blocks and replaces each by their
    mean over the paths of the same spin; returned per doubled spin j2 is
    that mean, of shape (X, Y, j2 + 1, j2 + 1).  ``spins`` is the third
    value of ``_schur_coordinates``.
    """
    return {
        j2: np.einsum("kxpm,kypn->xymn", ket[..., rows], bra[..., rows].conj()) / len(rows)
        for j2, rows in spins.items()
    }


def sequential_j2_measure(
    state: DenseState, rng: np.random.Generator
) -> tuple[StandardTableau, DenseState]:
    """Measure J^2 on the nested prefixes [1], [2], ..., [N] sequentially.

    Implemented in the sequentially coupled basis, where all the prefix
    operators are simultaneously diagonal; the recorded j-path is the tableau.
    Verified against dense eigenprojectors of J^2_[k] in the test suite.
    """
    N = state.n_qubits
    blocks = schur_blocks(N)
    probs = []
    for blk in blocks:
        coeffs = blk.vectors.conj() @ state.vec
        probs.append(float(np.sum(np.abs(coeffs) ** 2)))
    probs = np.array(probs)
    idx = rng.choice(len(blocks), p=probs / probs.sum())
    blk = blocks[idx]
    coeffs = blk.vectors.conj() @ state.vec
    post = (coeffs @ blk.vectors) / math.sqrt(probs[idx])
    row1 = tuple(
        k + 1 for k in range(N) if blk.j_path_doubled[k] > (blk.j_path_doubled[k - 1] if k else 0)
    )
    tab = StandardTableau(N, row1, blk.j_path_doubled)
    return tab, DenseState(N, post)


# ---------------------------------------------------------------------------
# symmetrizing channel
# ---------------------------------------------------------------------------


def symmetrize_channel(rho: np.ndarray, N: int) -> np.ndarray:
    """Average over all qubit permutations: rho -> (1/N!) sum_sigma P rho P^dag.

    Evaluated by the coset recursion (average over S_k built from the S_{k-1}
    average and k transpositions), so the cost is O(N^2) conjugations instead
    of N! terms.  Conjugating by the transposition of qubits i and k swaps
    their row axes and their column axes of rho viewed as a (2,)*2N tensor.
    This dense form is the reference for the per-spin path average that
    ``general_qec_smallN`` applies in Schur coordinates.
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


# ---------------------------------------------------------------------------
# Knill-Laflamme checks
# ---------------------------------------------------------------------------


def kl_check(code_states: list[DenseState], t: int) -> dict:
    """Knill-Laflamme residuals for all Pauli errors of weight <= 2t.

    For codewords |i>, |j> the criterion demands <i|E|j> = c_E delta_ij.
    Returns the worst deviation and the offending Pauli label.  The label is
    None when the worst deviation is at most KL_LABEL_FLOOR: a code that
    satisfies the criterion leaves only rounding noise, and which Pauli
    carries the largest noise depends on summation order.
    """
    N = code_states[0].n_qubits
    vecs = np.array([cs.vec for cs in code_states])
    M = len(vecs)
    worst = 0.0
    worst_label = None
    for positions, kinds in enumerate_paulis(N, 2 * t):
        overlaps = vecs.conj() @ pauli_apply(N, positions, kinds, vecs).T  # <i|E|j>
        c = np.trace(overlaps) / M
        dev = float(np.max(np.abs(overlaps - c * np.eye(M))))
        if dev > worst:
            worst, worst_label = dev, (positions, kinds)
    if worst <= KL_LABEL_FLOOR:
        worst_label = None
    return {"max_violation": worst, "worst_pauli": worst_label}


# ---------------------------------------------------------------------------
# general QEC on tiny instances
# ---------------------------------------------------------------------------


def general_qec_smallN(
    code_states: list[DenseState],
    kraus_ops: list[np.ndarray],
    max_weight: int,
) -> dict:
    """Project-and-recover QEC in the sequentially coupled basis.

    The corrupted input is first symmetrized (permutation averaging keeps
    weight-limited errors correctible), then per angular-momentum block the
    correctible subspaces are spanned by Gram-Schmidt vectors built from
    Pauli errors of weight <= max_weight applied to the codewords; recovery
    maps each orthonormal error copy of the code back to it.

    Returns the entanglement fidelity of recover(symmetrize(channel(.)))
    on the maximally mixed code state, together with per-block subspace
    counts r_T and their (2 j_T + 1)/M ceilings, and ``output_trace``, the
    trace of the recovered maximally mixed code state.  The orthonormalization
    uses the first codeword's Gram matrix for all of them, so when the code
    fails Knill-Laflamme for the spanning set the recovery is not trace
    preserving and ``output_trace`` departs from 1: for GnuParams(2, 3) at
    max_weight=1 it is 1.259 under the channel of ``verify.check_general_qec``
    (identity, X_1 and Z_1 with amplitudes 1, 1/2, 1/2, normalized); the
    value depends on the channel.

    Everything after the input is computed in Schur coefficients.  The
    codewords, the error images E|j_L> and the channel images K|j_L> are
    expanded in the stacked ``schur_blocks`` basis once.  The symmetrized
    channel(|j_L><k_L|) is then, per spin j, one (2j+1) x (2j+1) block on
    every path of that spin (``_path_twirl``).  The recovery Kraus operators
    K_k = sum_j |j_L><b_kj| have each row b_kj inside one path block, so the
    remainder R = I - sum_kj |b_kj><b_kj| is block diagonal with blocks
    R_p = I - sum beta beta^dag.  The overlaps <j_L|recover(y)|k_L> and the
    trace of recover(y) are contractions of these small blocks; no 2^N x 2^N
    operator is formed besides the caller's Kraus operators and the basis.
    """
    N = code_states[0].n_qubits
    M = len(code_states)
    vecs = np.array([cs.vec for cs in code_states])  # (M, 2^N)
    blocks = schur_blocks(N)
    basis, starts, spins = _schur_coordinates(N)

    # the spanning error set is every Pauli of weight <= max_weight applied
    # to the codewords; coefficient axis last, block blk owns the
    # blk.vectors.shape[0] coefficients from its start
    code_c = _schur_coeffs(basis, vecs)
    err_c = _schur_coeffs(
        basis,
        np.array([pauli_apply(N, pos, kinds, vecs) for pos, kinds in enumerate_paulis(N, max_weight)]),
    )
    # channel(|x_L><y_L|) = sum_K (K|x_L>)(K|y_L>)^dag; twirl[j2][x, y] is its
    # symmetrized block on each path of spin j2 / 2
    kraus_c = _schur_coeffs(basis, np.array([(K @ vecs.T).T for K in kraus_ops]))
    twirl = _path_twirl(kraus_c, kraus_c, spins)

    # per spin, summed over its paths: cover[a, b, m, n] = sum_k conj(beta_ka[m])
    # beta_kb[n] over the recovery rows, leak the same for the remainder
    # images R_p|a_L>, and rem_sq = sum_p R_p^2
    cover = {j2: np.zeros((M, M, j2 + 1, j2 + 1), dtype=complex) for j2 in spins}
    leak = {j2: np.zeros((M, M, j2 + 1, j2 + 1), dtype=complex) for j2 in spins}
    rem_sq = {j2: np.zeros((j2 + 1, j2 + 1), dtype=complex) for j2 in spins}
    r_report = []
    for blk, start in zip(blocks, starts):
        j2 = blk.j_doubled
        dim_block = j2 + 1
        # coefficients of Pi^T E |j_L> in the block's magnetic basis
        coeffs = err_c[:, :, start : start + dim_block]
        # the first codeword's Gram matrix C C^dag is U sigma^2 U^dag by the thin
        # SVD of C; KL equality of Gram matrices across j is what makes one
        # coefficient matrix serve all codewords
        u_vecs, sigma, _ = np.linalg.svd(coeffs[:, 0], full_matrices=False)
        keep = sigma**2 > 1e-10
        r_t = int(np.sum(keep))
        rem = np.eye(dim_block, dtype=complex)
        if r_t:
            r_report.append({"j_path": blk.j_path_doubled, "r_T": r_t, "bound": dim_block / M})
            # orthonormalizing combinations: columns v with v^dag Gram v = delta;
            # beta[k, j] holds the block coefficients of the recovery row b_kj
            combo = u_vecs[:, keep] / sigma[keep]
            beta = np.einsum("ek,ejm->kjm", combo.conj(), coeffs)
            cover[j2] += np.einsum("kam,kbn->abmn", beta.conj(), beta)
            rem -= np.einsum("kjm,kjn->mn", beta, beta.conj())
        rem_code = code_c[:, start : start + dim_block] @ rem.T  # rows R_p|a_L>
        leak[j2] += np.einsum("am,bn->abmn", rem_code.conj(), rem_code)
        rem_sq[j2] += rem @ rem

    # for each input pair (x, y), with T the twirled channel(|x_L><y_L|):
    # inner[x, y, a, b] = sum_k <b_ka|T|b_kb>, rem_out[x, y, a, b] =
    # <a_L|R T R|b_L> and rem_trace[x, y] = tr(R^2 T)
    inner = sum(np.einsum("xymn,abmn->xyab", twirl[j2], cover[j2]) for j2 in spins)
    rem_out = sum(np.einsum("xymn,abmn->xyab", twirl[j2], leak[j2]) for j2 in spins)
    rem_trace = sum(np.einsum("xymn,nm->xy", twirl[j2], rem_sq[j2]) for j2 in spins)
    # <a_L|recover(T)|b_L> = (G inner G)_ab + rem_out_ab and
    # tr recover(T) = tr(inner G) + rem_trace, with G_ab = <a_L|b_L>
    code_gram = vecs.conj() @ vecs.T
    overlaps = np.einsum("aj,xyjl,lb->xyab", code_gram, inner, code_gram) + rem_out

    # entanglement fidelity F_e = (1/M^2) sum_{xy} <x|Phi(|x><y|)|y>; the trace
    # of Phi on the maximally mixed code state is the mean over the x == y terms
    fid = float(np.einsum("xyxy->", overlaps).real) / (M * M)
    trace_out = float((np.einsum("xxab,ba->", inner, code_gram) + np.trace(rem_trace)).real) / M
    return {"entanglement_fidelity": fid, "blocks": r_report, "output_trace": trace_out}
