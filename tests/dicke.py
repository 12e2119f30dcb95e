"""Test helper: the Dicke basis states the tests feed to the library."""

import numpy as np

from symsense.symcore import SymState


def dicke_state(n_qubits: int, w: int) -> SymState:
    """The Dicke basis state of weight ``w`` on ``n_qubits`` qubits."""
    amps = np.zeros(n_qubits + 1, dtype=complex)
    amps[w] = 1.0
    return SymState(n_qubits, amps)
