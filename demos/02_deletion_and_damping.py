"""Deletion and amplitude-damping channels on a logical plus probe.

Both channels block-decompose a pure symmetric state into a mixture of fewer-
qubit pure states; this script inspects the branch structure and emits
`qfi_after_noise.csv`, the QFI decay data with and without deletion QEC
(the ordering QEC >= no-QEC >= N is the headline).
"""

import csv
from fractions import Fraction

import numpy as np

from symsense.codes import GnuParams, Label, make_logical
from symsense.metrology import qfi_pure
from symsense.noise import ad_qfi_bound, amplitude_damp, delete, deletion_qfi
from symsense.qec import deletion_qec

params = GnuParams(g=5, n=5, u=Fraction(6, 5), s=4)  # N = 34, corrects t <= 4 deletions
plus = make_logical(params, Label.PLUS)
N = params.n_qubits
print(f"probe: (g=5, n=5, u=6/5, s=4) on N = {N} qubits, QFI = {qfi_pure(plus):.1f}")

print("\none deletion -> two branches, orthogonal and residue-distinct:")
for br in delete(plus, 1):
    support = np.nonzero(np.abs(br.state.amps) > 1e-12)[0]
    print(f"  shift a={br.shift}: weight {br.weight:.4f}, weights mod g = "
          f"{sorted(set(support % params.g))}")

rows = []
for t in range(0, 5):
    no_qec = deletion_qfi(params, t)
    if t == 0:
        with_qec = no_qec
    else:
        with_qec = sum(
            br.weight * qfi_pure(deletion_qec(br.state, params, t)[0])
            for br in delete(plus, t)
        )
    rows.append((t, with_qec, no_qec))
    print(f"t={t}: QFI with QEC {with_qec:8.3f}   without {no_qec:8.3f}   classical N = {N}")

with open("qfi_after_noise.csv", "w", newline="") as fh:
    wr = csv.writer(fh)
    wr.writerow(["t_deletions", "qfi_with_qec", "qfi_without_qec", "classical_N"])
    for t, a, b in rows:
        wr.writerow([t, a, b, N])
print("wrote qfi_after_noise.csv")

print("\namplitude damping upper bound 4 sum_x n_x q_x:")
for gamma in (0.0, 0.02, 0.1, 0.3):
    branches = amplitude_damp(plus, gamma)
    print(f"  gamma={gamma:4.2f}: bound {ad_qfi_bound(params, gamma):8.3f} "
          f"({len(branches)} branches, pruned mass {branches.pruned_mass:.2e})")
