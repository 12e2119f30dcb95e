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

Importing the package loads none of them.  Each name of ``__all__`` is
imported from its layer on first use, and the commands of :mod:`symsense.cli`
import the Protocol-1 and LP layers only when they run them, so
``symsense verify`` never imports either.
"""

import importlib

# every re-exported name and the layer it comes from, in the order of __all__
_HOMES = {
    **dict.fromkeys(("SymState", "apply_signal", "jz_moments"), "symcore"),
    **dict.fromkeys(("GnuParams", "make_logical", "code_projector_overlap"), "codes"),
    **dict.fromkeys(("delete", "amplitude_damp", "deletion_qfi", "ad_qfi_bound"), "noise"),
    **dict.fromkeys(("qfi_pure", "sld", "fi_code_basis", "fi_phase_readout"), "metrology"),
    **dict.fromkeys(
        ("modulo_meas", "modulo_branches", "deletion_qec", "qec_sense", "phase_formulas",
         "teleport_decode"),
        "qec",
    ),
    **dict.fromkeys(("LPInstance", "solve_lp", "p2_exponent"), "optimizer"),
    **dict.fromkeys(("ProtocolConfig", "run_protocol1", "expected_fi_p1"), "protocols"),
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A name of ``__all__``, imported from its layer on first use (PEP 562)."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
