"""Dicke-basis symmetric states and the exact combinatorics layer.

A pure symmetric state of N qubits is stored as a complex amplitude vector
``amps`` of length N+1 in the ordered weight convention: ``amps[w]`` is the
coefficient of the Dicke state with Hamming weight w, and the collective-spin
operator Jz acts diagonally with eigenvalue ``N/2 - w``.  We never store the
magnetic quantum number ``m = w - N/2`` directly, to keep signs in one place.

Combinatorics are exact (Python integers) up to the sizes the toolkit needs;
a binomial *ratio* is one correctly rounded division of exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymState:
    """Pure symmetric state: ``amps[w]`` multiplies the weight-w Dicke state.

    The state is treated as immutable; operations return new instances.
    A sub-normalized state is allowed (e.g. an unpruned channel branch) and
    carries its squared norm explicitly through :meth:`norm_sq`.
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be >= 0")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.n_qubits + 1,):
            raise ValueError(
                f"amps must have length N+1 = {self.n_qubits + 1}, got {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    # -- basic linear algebra ------------------------------------------------

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def normalized(self) -> "SymState":
        nrm = math.sqrt(self.norm_sq())
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SymState(self.n_qubits, self.amps / nrm)

    def inner(self, other: "SymState") -> complex:
        """<self|other> in the Dicke basis."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("states live on different qubit numbers")
        return complex(np.vdot(self.amps, other.amps))

    @property
    def weights(self) -> np.ndarray:
        return np.arange(self.n_qubits + 1)

    @staticmethod
    def random(n_qubits: int, rng: np.random.Generator) -> "SymState":
        """Haar-like random symmetric state (iid complex Gaussian, normalized)."""
        z = rng.standard_normal(n_qubits + 1) + 1j * rng.standard_normal(n_qubits + 1)
        return SymState(n_qubits, z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# exact combinatorics
# ---------------------------------------------------------------------------

# math.comb is exact for arbitrary n; the toolkit never asks beyond n ~ 4096,
# where exact integer arithmetic is still cheap.
binom = math.comb


def check_float_binomials(n: int) -> None:
    """Raise ValueError if some C(n, k) is past the float range, as it is from n = 1030 on
    (C(1029, 514) ~ 2^1023.7 is the last row that fits): a float sum over them would overflow."""
    if n > 1029:
        raise ValueError(f"n must be <= 1029, where every C(n, k) fits a float, got n = {n}")


def deletion_ratios(n_qubits: int, t: int, a: int, weights: np.ndarray) -> np.ndarray:
    """C(t,a) C(N-t, w-a) / C(N, w): the share of each of ``weights`` that t deletions move
    to w - a, as the equal C(w,a) C(N-w, t-a) / C(N, t), one true division of exact integers
    per weight: correctly rounded, never above 1, and (N-w)/N and w/N at t = 1."""
    den = binom(n_qubits, t)
    return np.array([binom(w, a) * binom(n_qubits - w, t - a) / den for w in weights.tolist()])


def falling_factorial(k: int, j: int) -> int:
    """k_(j) = k (k-1) ... (k-j+1), with k_(0) = 1."""
    out = 1
    for i in range(j):
        out *= k - i
    return out


@lru_cache(maxsize=None)
def stirling2(s: int, j: int) -> int:
    """Stirling number of the second kind S(s, j), exact."""
    if s == j:
        return 1
    if j == 0 or j > s:
        return 0
    return j * stirling2(s - 1, j) + stirling2(s - 1, j - 1)


def binom_parity_sum(n: int, s: int, parity: str) -> int:
    """Sum of C(n,k) k^s over k of the given parity ('even' or 'odd'), exact.

    For s < n the even and odd sums agree; for s >= n they differ by
    S(s,n) n!, the even sum being larger iff n is even.  (0^0 = 1.)
    """
    if n < 0 or s < 0:
        raise ValueError("n and s must be non-negative")
    rem = {"even": 0, "odd": 1}[parity]
    total = 0
    for k in range(rem, n + 1, 2):
        total += binom(n, k) * (k**s if k > 0 else (1 if s == 0 else 0))
    return total


def binom_exp_sum(n: int, s: int, y: float, parity: str) -> complex:
    """Closed form of 2^(1-n) * sum_{k parity} C(n,k) k^s e^{iky}.

    Stirling-expands k^s into falling factorials, each of which telescopes the
    binomial sum into powers of cos(y/2) and sin(y/2); when s >= n the k = n
    falling factorial survives only on the parity of n and contributes the
    extra S(s,n) n! e^{iny} term.
    """
    if n < 0 or s < 0:
        raise ValueError("n and s must be non-negative")
    sign = {"even": 1.0, "odd": -1.0}[parity]
    yh = 0.5 * y
    c, si = math.cos(yh), math.sin(yh)
    total = 0.0 + 0.0j
    for j in range(0, min(s, n - 1) + 1):
        coeff = stirling2(s, j) * falling_factorial(n, j)
        if coeff == 0:
            continue
        phase = np.exp(1j * (n + j) * yh)
        osc = c ** (n - j) + sign * ((-1) ** j) * ((-1j) ** (n - j)) * si ** (n - j)
        total += coeff * (2.0**-j) * phase * osc
    if s >= n and ((n % 2 == 0) == (parity == "even")):
        total += stirling2(s, n) * math.factorial(n) * np.exp(1j * n * y) * 2.0 ** (1 - n)
    return complex(total)


def as_fraction(x) -> Fraction:
    """Parse u-like inputs ('7/3', 2, 1.5, Fraction) into an exact Fraction.

    A zero denominator or a non-finite float raises ValueError, as any other
    malformed value does.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot interpret {x!r} as an exact rational")
        return Fraction(x).limit_denominator(10**9)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# operations on symmetric states
# ---------------------------------------------------------------------------


def apply_signal(state: SymState, delta: float) -> SymState:
    """Evolve under exp(-i delta Jz): amps[w] picks up exp(-i delta (N/2 - w)).

    Exactly unitary on the Dicke block; composing signals adds the angles.
    The phases are evaluated on the state's support (its non-zero weights)
    only, so a codeword on the N = 2000 code costs a handful of exponentials.
    """
    n = state.n_qubits
    support = np.flatnonzero(state.amps)
    amps = np.zeros(n + 1, dtype=complex)
    amps[support] = state.amps[support] * signal_phases(n, support, delta)
    return SymState(n, amps)


def signal_phases(n_qubits: int, weights: np.ndarray, delta: float) -> np.ndarray:
    """exp(-i delta (N/2 - w)) on integer ``weights``: the phases of :func:`apply_signal`."""
    return np.exp(-1j * delta * (0.5 * n_qubits - weights))


def jz_moments(state: SymState) -> tuple[float, float, float]:
    """First and second weight moments and the variance of a normalized state.

    Returns ``(m1, m2, variance)`` with ``m_j = sum_w |a_w|^2 w^j`` and the
    variance as the centred moment ``sum_w |a_w|^2 (w - m1)^2``, which
    m2 - m1^2 would lose to cancellation once N^2 dwarfs it.  Because the Jz
    eigenvalue is an affine function of w, this variance equals the variance
    of Jz itself.
    """
    p = np.abs(state.amps) ** 2
    w = state.weights.astype(float)
    m1 = float(p @ w)
    m2 = float(p @ w**2)
    return m1, m2, float(p @ (w - m1) ** 2)
