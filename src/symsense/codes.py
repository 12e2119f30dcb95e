"""gnu and shifted-gnu codewords and code-level predicates.

A (g, n, u, s) code lives on N = g*n*u + s qubits and supports its codewords
on the weight lattice {g*k + s : k = 0..n}; logical zero (one) carries the
even-k (odd-k) half of :func:`lattice_profile`.  The code distance is min(g, n).
A codeword is a plain :class:`~symsense.symcore.SymState`, built once per
(params, label) and shared read-only by every caller.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from symsense.symcore import SymState, as_fraction

# codewords (and the q-vectors of qec) kept per process, ~32 kB each on the
# N = 2000 code: 200 Protocol-1 reference trajectories there visit 9 codes
CODEWORD_CACHE = 64


class Label(Enum):
    ZERO = "zero"
    ONE = "one"
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class GnuParams:
    """Code parameters (g, n, u, s) with derived qubit count N = g n u + s.

    ``u`` is kept as an exact rational so integrality of N is checked in
    integer arithmetic; a non-integer N is rejected at construction.
    """

    g: int
    n: int
    u: Fraction = Fraction(1)
    s: int = 0

    def __post_init__(self):
        object.__setattr__(self, "u", as_fraction(self.u))
        if self.g < 1 or self.n < 1:
            raise ValueError("g and n must be positive integers")
        if self.u < 1:
            raise ValueError("u must be >= 1")
        if self.s < 0:
            raise ValueError("shift s must be non-negative")
        gnu = self.g * self.n * self.u
        if gnu.denominator != 1:
            raise ValueError(f"g*n*u = {gnu} is not an integer")

    @property
    def n_qubits(self) -> int:
        return int(self.g * self.n * self.u) + self.s

    def distance(self) -> int:
        return min(self.g, self.n)

    def weight_lattice(self) -> np.ndarray:
        """Weights g*k + s for k = 0..n."""
        return self.s + self.g * np.arange(self.n + 1)

    def with_shift(self, s: int, n_qubits: int) -> "GnuParams":
        """Same (g, n) code on a different qubit count / shift (e.g. after deletions)."""
        gnu = n_qubits - s
        if gnu <= 0:
            raise ValueError("shift too large for the requested qubit count")
        return GnuParams(self.g, self.n, Fraction(gnu, self.g * self.n), s)


def code_fits(params: GnuParams, n_qubits, s):
    """Whether the (g, n) code with shift s still exists on n_qubits: s >= 0 and u >= 1.

    ``n_qubits`` and ``s`` may be integer arrays; the test is elementwise.
    """
    return (s >= 0) & (n_qubits - s >= params.g * params.n)


@lru_cache(maxsize=None)
def _lattice_shares(n: int) -> np.ndarray:
    """C(n, k) / 2^(n-1) for k = 0..n, each one correctly rounded division of exact
    integers, so that no binomial past the float range is converted.  Shared, read-only."""
    den = 2 ** (n - 1)
    binoms = itertools.accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)
    shares = np.array([c / den for c in binoms])
    shares.flags.writeable = False
    return shares


@lru_cache(maxsize=None)
def lattice_profile(n: int) -> np.ndarray:
    """sqrt(C(n, k) / 2^(n-1)) for k = 0..n: |0_L>'s (even k) and |1_L>'s (odd k)
    amplitudes on the weight lattice of every code with this n.  Shared, read-only."""
    profile = np.sqrt(_lattice_shares(n))
    profile.flags.writeable = False
    return profile


@lru_cache(maxsize=None)
def plus_weights(n: int) -> np.ndarray:
    """2^-n C(n, k) for k = 0..n: |+_L>'s weights on the lattice of every code with this n,
    half the correctly rounded share (``lattice_profile(n)**2 / 2`` rounds twice).
    Shared, read-only."""
    weights = 0.5 * _lattice_shares(n)
    weights.flags.writeable = False
    return weights


def make_logical(params: GnuParams, label: Label | str) -> SymState:
    """Construct a logical codeword of the shifted gnu code.

    Zero/One carry the even-k/odd-k binomial amplitudes on weights g*k+s;
    Plus and Minus are their sum and difference over sqrt(2).  Minus is
    provided because the protocol readout measures in the plus-minus basis.

    Returns the shared ``SymState`` itself: codewords are built once per
    (params, label), the most recent CODEWORD_CACHE of them are kept, and
    their amplitudes are read-only.
    """
    if isinstance(label, str):
        label = Label(label.lower())
    return _make_logical(params, label)


@lru_cache(maxsize=CODEWORD_CACHE)
def _make_logical(params: GnuParams, label: Label) -> SymState:
    N = params.n_qubits
    profile = lattice_profile(params.n)
    amps = np.zeros(N + 1, dtype=complex)
    lattice = params.weight_lattice()
    if label in (Label.ZERO, Label.ONE):
        half = slice(int(label is Label.ONE), None, 2)  # even k: |0_L>, odd k: |1_L>
        amps[lattice[half]] = profile[half]
    else:
        signs = np.ones(params.n + 1)
        if label is Label.MINUS:
            signs[1::2] = -1.0
        amps[lattice] = profile * signs / math.sqrt(2.0)
    return SymState(N, amps)


def logical_pair(params: GnuParams) -> tuple[SymState, SymState]:
    """(|0_L>, |1_L>), the shared codewords of ``make_logical``."""
    return make_logical(params, Label.ZERO), make_logical(params, Label.ONE)


def code_projector_overlap(params: GnuParams, state: SymState) -> tuple[float, float, float]:
    """(p_plus, p_minus, p_other) for a normalized state against this code.

    p_other is the leakage out of the span of the logical plus/minus pair,
    taken as the squared norm of the residual ``psi - <+|psi>|+> - <-|psi>|->``
    rather than as ``1 - p_plus - p_minus``, which cancels: it is never
    negative and keeps its relative precision for tiny leakage.
    """
    plus = make_logical(params, Label.PLUS)
    minus = make_logical(params, Label.MINUS)
    c_plus, c_minus = plus.inner(state), minus.inner(state)
    residual = state.amps - c_plus * plus.amps - c_minus * minus.amps
    return abs(c_plus) ** 2, abs(c_minus) ** 2, float(np.vdot(residual, residual).real)

