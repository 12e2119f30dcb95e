"""The two-variable protocol-parameter linear program and its closed-form optima.

Variables are the exponents alpha (code gap, g ~ N^alpha) and gamma (round
count, r ~ N^gamma).  All constraint coefficients are rational in the problem
data, so the polytope vertices are enumerated in exact Fraction arithmetic and
floats appear only at the reporting boundary.  The grid emitter
:func:`write_polytope_csv` tests the same rows scaled to integers over one
common denominator, so it forms no Fraction per grid point.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from symsense.symcore import as_fraction

FQEC_STEPS = 51  # values of c on [0, 1/2], per q, in write_fqec_vs_c_csv


@dataclass(frozen=True)
class LPInstance:
    """Problem data: prior-knowledge exponent c, timestep exponent q >= 1,
    deletion-rate exponent eta in [0,1], and the two error budgets e1, e2 >= 0."""

    c: Fraction
    q: Fraction
    eta: Fraction
    e1: Fraction
    e2: Fraction

    def __post_init__(self):
        for name in ("c", "q", "eta", "e1", "e2"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if not (0 <= self.eta <= 1):
            raise ValueError("eta must lie in [0, 1]")
        if self.e1 < 0 or self.e2 < 0:
            raise ValueError(f"error budgets must be >= 0, got e1 = {self.e1}, e2 = {self.e2}")

    # Constraints in the form a*alpha + b*gamma <= rhs -----------------------

    def constraints(self, ghz_proof_variant: bool = False):
        """(name, a, b, rhs) rows for a*alpha + b*gamma <= rhs, including alpha,gamma >= 0.

        ``ghz_proof_variant`` swaps the GHZ-comparison row for the rearrangement
        that appears in the optimality proof, which differs from the constraint
        of record; it is exposed for comparison only.
        """
        c, q, eta, e1, e2 = self.c, self.q, self.eta, self.e1, self.e2
        rows = [
            ("error1", Fraction(1), -(q - Fraction(1, 4)), c - e1 / 4),
            ("error2", Fraction(1), Fraction(1), 1 - e2),
            (
                "shotnoise",
                Fraction(-1),
                (q - Fraction(1, 3)),
                -(2 * c / 3 + Fraction(1, 2) - q / 3),
            ),
        ]
        if ghz_proof_variant:
            rows.append(
                ("ghz_proof", Fraction(-1), (q + 1) / 3, -(2 * c + 1 - eta) / 3)
            )
        else:
            rows.append(
                ("ghz", Fraction(-1), (q - Fraction(1, 3)), -(2 * c - eta) / 3)
            )
        rows.append(("alpha_nonneg", Fraction(-1), Fraction(0), Fraction(0)))
        rows.append(("gamma_nonneg", Fraction(0), Fraction(-1), Fraction(0)))
        return rows

    def objective(self, alpha: Fraction, gamma: Fraction) -> Fraction:
        """log_N of the expected protocol FI: 6 alpha - 4c + (2 - 6q) gamma."""
        return 6 * alpha - 4 * self.c + (2 - 6 * self.q) * gamma


def polytope_membership(
    inst: LPInstance, alpha, gamma, ghz_proof_variant: bool = False
) -> dict[str, Fraction]:
    """Slack of every constraint at (alpha, gamma); feasible iff all slacks >= 0."""
    alpha, gamma = as_fraction(alpha), as_fraction(gamma)
    return {
        name: rhs - (a * alpha + b * gamma)
        for name, a, b, rhs in inst.constraints(ghz_proof_variant)
    }


def is_feasible(inst: LPInstance, alpha, gamma) -> bool:
    return all(s >= 0 for s in polytope_membership(inst, alpha, gamma).values())


def feasible_vertices(inst: LPInstance) -> list[tuple[Fraction, Fraction]]:
    """All feasible pairwise constraint intersections (the polytope's vertices)."""
    rows = inst.constraints()
    vertices = []
    for (_, a1, b1, r1), (_, a2, b2, r2) in itertools.combinations(rows, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        alpha = (r1 * b2 - r2 * b1) / det
        gamma = (a1 * r2 - a2 * r1) / det
        if is_feasible(inst, alpha, gamma) and (alpha, gamma) not in vertices:
            vertices.append((alpha, gamma))
    return vertices


def solve_lp(inst: LPInstance):
    """Exact vertex-enumeration maximizer of the protocol FI exponent.

    With two variables every vertex is the intersection of two constraint
    lines; feasible intersections are ranked by the objective.  Returns
    (alpha*, gamma*, objective) as Fractions, or None if the polytope is empty.
    """
    best = None
    for alpha, gamma in feasible_vertices(inst):
        val = inst.objective(alpha, gamma)
        if best is None or val > best[2]:
            best = (alpha, gamma, val)
    return best


def closed_form_optimum(inst: LPInstance) -> tuple[Fraction, Fraction]:
    """The published closed forms, which saturate error1 and error2 with equality:

    gamma* = (-4c + e1 - 4 e2 + 4) / (4q + 3)
    alpha* = (4c + 4q - 1 - e1 - 4 e2 q + e2) / (4q + 3)
    """
    c, q, e1, e2 = inst.c, inst.q, inst.e1, inst.e2
    gamma = (-4 * c + e1 - 4 * e2 + 4) / (4 * q + 3)
    alpha = (4 * c + 4 * q - 1 - e1 - 4 * e2 * q + e2) / (4 * q + 3)
    return alpha, gamma


def p2_exponent(inst: LPInstance) -> Fraction:
    """log_N E[F] of the repeated protocol at the closed-form (alpha*, gamma*).

    Equals gamma*(q-1) plus the single-run exponent; algebraically
    (4c(q+2) - 5 e1 (q+1) - 2 (e2 - 1)(2q - 1)) / (4q + 3).
    """
    alpha, gamma = closed_form_optimum(inst)
    return gamma * (inst.q - 1) + inst.objective(alpha, gamma)


# ---------------------------------------------------------------------------
# data emitters (figure reproduction as CSV, not pixels)
# ---------------------------------------------------------------------------


def write_polytope_csv(inst: LPInstance, path, grid: int = 101, span: float = 1.5):
    """Feasibility + objective over an (alpha, gamma) grid; columns are floats.

    Grid point (i, j) is (alpha, gamma) = (i, j) * span / (grid - 1).  Every
    constraint row and the objective are scaled by one common denominator, so
    feasibility is the integer test A i + B j <= R and every float column is
    one int / int true division, correctly rounded like ``float(Fraction)``.
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    step = as_fraction(span) / (grid - 1)
    rows = [(a * step, b * step, rhs) for _, a, b, rhs in inst.constraints()]
    obj = (6 * step, -4 * inst.c, (2 - 6 * inst.q) * step)
    den = math.lcm(*(x.denominator for row in (*rows, obj) for x in row))
    rows = [tuple((x * den).numerator for x in row) for row in rows]
    o_a, o_0, o_g = ((x * den).numerator for x in obj)
    coords = [k * step.numerator / step.denominator for k in range(grid)]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["alpha", "gamma", "feasible", "objective"])
        for i in range(grid):
            wr.writerows(
                [
                    coords[i],
                    coords[j],
                    int(all(a * i + b * j <= r for a, b, r in rows)),
                    (o_a * i + o_0 + o_g * j) / den,
                ]
                for j in range(grid)
            )


def write_fqec_vs_c_csv(path, qs=(1, 1.25, 1.5), e1=0, e2=0):
    """Exponent-vs-prior-knowledge curves for a family of timestep exponents q, c in [0, 1/2]."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["q", "c", "p2_exponent"])
        for q in qs:
            for i in range(FQEC_STEPS):
                c = Fraction(i, 2 * (FQEC_STEPS - 1))
                inst = LPInstance(c, as_fraction(q), Fraction(1), as_fraction(e1), as_fraction(e2))
                wr.writerow([float(q), float(c), float(p2_exponent(inst))])
