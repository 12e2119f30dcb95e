"""Walk through the probe-state layer: codewords, QFI, SLD, code-basis readout.

Produces `codeword_amplitudes.csv` (the amplitude comb of a wide logical plus
state) and `fi_vs_theta.csv` (code-basis Fisher information against the true
phase, the data behind the FI/QFI trade-off plot).
"""

import csv
import math
from fractions import Fraction

import numpy as np

from symsense.codes import GnuParams, Label, make_logical
from symsense.metrology import fi_code_basis, qfi_pure, sld

# A wide shifted code: gap 21, binomial width 43, centred near half filling.
params = GnuParams(g=21, n=43, u=Fraction(44, 43), s=21)
print(f"code (g={params.g}, n={params.n}, u={params.u}, s={params.s}) "
      f"on N = {params.n_qubits} qubits, distance {params.distance()}")

plus = make_logical(params, Label.PLUS)
print(f"QFI of the logical plus probe: {qfi_pure(plus):.6f} "
      f"(closed form g^2 n = {params.g ** 2 * params.n})")

with open("codeword_amplitudes.csv", "w", newline="") as fh:
    wr = csv.writer(fh)
    wr.writerow(["w", "amplitude", "codeword"])
    for k, w in enumerate(params.weight_lattice()):
        wr.writerow([int(w), plus.amps[w].real, "zero" if k % 2 == 0 else "one"])
print("wrote codeword_amplitudes.csv")

# The optimal observable: a rank-two SLD whose eigenvalues are +-2 sqrt(var).
dec = sld(plus)
print(f"SLD eigenvalues: {dec.eigval_plus:+.4f} / {dec.eigval_minus:+.4f} "
      f"(squared = QFI: {dec.eigval_plus ** 2:.1f})")

# Measuring in the logical plus/minus basis instead: FI depends on the true
# theta and is capped below the QFI; the n = 1 (GHZ-like) code saturates it.
ghz = GnuParams(g=1000, n=1, u=Fraction(1), s=0)
print(f"GHZ check: fi({ghz.g},{ghz.n}) = {fi_code_basis(ghz, 1e-4)[0]:.1f} "
      f"= QFI = {qfi_pure(make_logical(ghz, Label.PLUS)):.1f}")

scan = GnuParams(g=20, n=5, u=Fraction(10), s=0)
qfi = qfi_pure(make_logical(scan, Label.PLUS))
with open("fi_vs_theta.csv", "w", newline="") as fh:
    wr = csv.writer(fh)
    wr.writerow(["theta", "fi_two_outcome", "fi_three_outcome", "qfi"])
    best = (0.0, 0.0)
    for theta in np.linspace(1e-4, math.pi / scan.g, 300):
        f2, f3 = fi_code_basis(scan, float(theta))
        wr.writerow([float(theta), f2, f3, qfi])
        best = max(best, (f2 / qfi, float(theta)))
print(f"wrote fi_vs_theta.csv; peak FI/QFI = {best[0]:.3f} at theta = {best[1]:.4f}")
