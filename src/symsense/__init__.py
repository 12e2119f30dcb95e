"""Simulation and analysis toolkit for field sensing with permutation-invariant gnu codes.

The package is organised in layers:

* :mod:`symsense.symcore` -- Dicke-basis symmetric states and exact combinatorics.
* :mod:`symsense.codes` -- gnu / shifted-gnu codewords and code-level predicates.
* :mod:`symsense.noise` -- deletion and amplitude-damping channels in block form.
* :mod:`symsense.metrology` -- QFI, SLD decomposition, Fisher information of readouts.
* :mod:`symsense.qec` -- modulo measurement, deletion QEC, QEC-while-sensing, phase formulas.
* :mod:`symsense.protocols` -- Monte-Carlo simulation of the sensing protocols and baselines.
* :mod:`symsense.optimizer` -- the (alpha, gamma) protocol-parameter linear program.
* :mod:`symsense.fullspace` -- small-N full-Hilbert-space certification layer.
"""

from symsense.symcore import SymState, apply_signal, jz_moments
from symsense.codes import GnuParams, make_logical, code_projector_overlap
from symsense.noise import delete, amplitude_damp, deletion_qfi, ad_qfi_bound
from symsense.metrology import qfi_pure, sld, fi_code_basis, fi_phase_readout
from symsense.qec import (
    modulo_meas,
    modulo_branches,
    deletion_qec,
    qec_sense,
    phase_formulas,
    teleport_decode,
)
from symsense.optimizer import LPInstance, solve_lp, p2_exponent
from symsense.protocols import ProtocolConfig, run_protocol1, expected_fi_p1

__all__ = [
    "SymState",
    "apply_signal",
    "jz_moments",
    "GnuParams",
    "make_logical",
    "code_projector_overlap",
    "delete",
    "amplitude_damp",
    "deletion_qfi",
    "ad_qfi_bound",
    "qfi_pure",
    "sld",
    "fi_code_basis",
    "fi_phase_readout",
    "modulo_meas",
    "modulo_branches",
    "deletion_qec",
    "qec_sense",
    "phase_formulas",
    "teleport_decode",
    "LPInstance",
    "solve_lp",
    "p2_exponent",
    "ProtocolConfig",
    "run_protocol1",
    "expected_fi_p1",
]

__version__ = "0.1.0"
