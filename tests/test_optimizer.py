"""Exact-arithmetic linear program: vertices, closed forms, exponents, emitters."""

import csv
from fractions import Fraction

import numpy as np
import pytest

from symsense.optimizer import (
    LPInstance,
    closed_form_optimum,
    is_feasible,
    p2_exponent,
    polytope_membership,
    solve_lp,
    write_fqec_vs_c_csv,
    write_polytope_csv,
)
from symsense.symcore import as_fraction


def test_closed_form_reference_point():
    inst = LPInstance(Fraction(1, 2), Fraction(3, 2), Fraction(1), 0, 0)
    alpha, gamma = closed_form_optimum(inst)
    assert gamma == Fraction(2, 9)
    assert alpha == Fraction(7, 9)
    got = solve_lp(inst)
    assert got is not None and (got[0], got[1]) == (alpha, gamma)


def test_closed_form_saturates_error_constraints():
    rng = np.random.default_rng(6)
    for _ in range(25):
        inst = LPInstance(
            Fraction(int(rng.integers(0, 6)), 10),
            1 + Fraction(int(rng.integers(0, 11)), 10),
            Fraction(int(rng.integers(0, 11)), 10),
            Fraction(int(rng.integers(0, 3)), 10),
            Fraction(int(rng.integers(0, 3)), 10),
        )
        alpha, gamma = closed_form_optimum(inst)
        slacks = polytope_membership(inst, alpha, gamma)
        assert slacks["error1"] == 0
        assert slacks["error2"] == 0


def test_origin_infeasible_for_reference_instance():
    inst = LPInstance(Fraction(1, 2), Fraction(3, 2), Fraction(1), 0, 0)
    slacks = polytope_membership(inst, 0, 0)
    assert slacks["shotnoise"] < 0


def test_shotnoise_implies_ghz_when_q_small():
    # for q <= 3/2 + eta, satisfying the shot-noise row implies the GHZ row
    rng = np.random.default_rng(13)
    for _ in range(200):
        eta = Fraction(int(rng.integers(0, 11)), 10)
        q = 1 + Fraction(int(rng.integers(0, 1 + int(5 + 10 * eta))), 10)
        if q > Fraction(3, 2) + eta:
            continue
        inst = LPInstance(Fraction(int(rng.integers(0, 6)), 10), q, eta, 0, 0)
        alpha = Fraction(int(rng.integers(0, 20)), 10)
        gamma = Fraction(int(rng.integers(0, 20)), 10)
        slacks = polytope_membership(inst, alpha, gamma)
        if slacks["shotnoise"] > 0:
            assert slacks["ghz"] >= 0


def test_vertex_enumeration_dominates_grid():
    inst = LPInstance(Fraction(1, 5), Fraction(3, 2), Fraction(1), Fraction(1, 10), Fraction(1, 20))
    best = solve_lp(inst)
    assert best is not None
    _, _, opt = best
    for i in range(100):
        for j in range(100):
            alpha = Fraction(i, 66)
            gamma = Fraction(j, 66)
            if is_feasible(inst, alpha, gamma):
                assert inst.objective(alpha, gamma) <= opt


@pytest.mark.parametrize("e1, e2", [(-1, 0), (0, Fraction(-1, 10))])
def test_negative_error_budgets_are_rejected(e1, e2):
    with pytest.raises(ValueError, match="error budgets"):
        LPInstance(Fraction(1, 2), Fraction(3, 2), 1, e1, e2)
    # zero budgets stay valid: fqec-scan and protocol3 default to them
    assert solve_lp(LPInstance(Fraction(1, 2), Fraction(3, 2), 1, 0, 0)) is not None


def test_infeasible_instance_reported():
    inst = LPInstance(Fraction(0), Fraction(1), Fraction(0), Fraction(100), Fraction(1, 10))
    assert solve_lp(inst) is None


def test_p2_exponent_values():
    assert p2_exponent(LPInstance(Fraction(1, 2), Fraction(3, 2), 1, 0, 0)) == Fraction(11, 9)
    assert p2_exponent(LPInstance(0, Fraction(3, 2), 1, 0, 0)) == Fraction(4, 9)


def p2_exponent_display(inst):
    """Reference for p2_exponent: the exponent via the published display."""
    c, q, e1, e2 = inst.c, inst.q, inst.e1, inst.e2
    return (4 * c * (q + 2) - 5 * e1 * (q + 1) - 2 * (e2 - 1) * (2 * q - 1)) / (4 * q + 3)


def test_p2_exponent_display_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = LPInstance(
            Fraction(int(rng.integers(0, 11)), 20),
            Fraction(3, 2),
            1,
            Fraction(int(rng.integers(0, 4)), 10),
            Fraction(int(rng.integers(0, 4)), 10),
        )
        assert p2_exponent(inst) == p2_exponent_display(inst)
        # q = 3/2 specialization (4 + 14c - 25 e1/2 - 4 e2)/9
        want = (4 + 14 * inst.c - Fraction(25, 2) * inst.e1 - 4 * inst.e2) / 9
        assert p2_exponent(inst) == want


def test_figure_instances_nonempty():
    for c in (0, Fraction(1, 10), Fraction(1, 5)):
        inst = LPInstance(c, Fraction(3, 2), 1, Fraction(1, 10), Fraction(1, 10))
        assert solve_lp(inst) is not None


def test_ghz_proof_variant_flag():
    inst = LPInstance(Fraction(1, 5), Fraction(3, 2), Fraction(1, 2), Fraction(1, 10), Fraction(1, 10))
    record = polytope_membership(inst, Fraction(1, 2), Fraction(1, 10))
    variant = polytope_membership(inst, Fraction(1, 2), Fraction(1, 10), ghz_proof_variant=True)
    assert "ghz" in record and "ghz_proof" in variant
    assert record["ghz"] != variant["ghz_proof"]


def test_csv_emitters(tmp_path):
    # note the c = 0 region of the figure instance is a sliver of width
    # gamma/12 - 1/40 < 0.01; c = 0.2 with a 0.025 grid pitch is resolvable
    inst = LPInstance(Fraction(1, 5), Fraction(3, 2), 1, Fraction(1, 10), Fraction(1, 10))
    poly = tmp_path / "polytope.csv"
    write_polytope_csv(inst, poly, grid=61)
    rows = list(csv.DictReader(open(poly)))
    assert len(rows) == 3721
    assert any(r["feasible"] == "1" for r in rows)

    fq = tmp_path / "fqec_vs_c.csv"
    write_fqec_vs_c_csv(fq)
    rows = list(csv.DictReader(open(fq)))
    assert len(rows) == 153
    ref = [r for r in rows if r["q"] == "1.5" and abs(float(r["c"]) - 0.5) < 1e-12]
    assert abs(float(ref[0]["p2_exponent"]) - 11 / 9) < 1e-12


def test_closed_form_e2_shift_homogeneity():
    # shifting e2 by delta moves alpha* by (1 - 4q) delta / (4q + 3)
    base = LPInstance(Fraction(1, 4), Fraction(3, 2), 1, Fraction(1, 20), Fraction(1, 10))
    delta = Fraction(3, 100)
    shifted = LPInstance(base.c, base.q, base.eta, base.e1, base.e2 + delta)
    a0, _ = closed_form_optimum(base)
    a1, _ = closed_form_optimum(shifted)
    assert a1 - a0 == (1 - 4 * base.q) * delta / (4 * base.q + 3)


def test_feasible_vertices_contain_optimum_and_span_region():
    from symsense.optimizer import feasible_vertices

    inst = LPInstance(Fraction(1, 2), Fraction(3, 2), 1, 0, 0)
    verts = feasible_vertices(inst)
    assert (Fraction(7, 9), Fraction(2, 9)) in verts
    # every vertex is feasible and the optimum dominates
    _, _, opt = solve_lp(inst)
    for alpha, gamma in verts:
        assert is_feasible(inst, alpha, gamma)
        assert inst.objective(alpha, gamma) <= opt


def _polytope_csv_fraction_reference(inst, path, grid, span):
    """Reference grid: exact Fractions at every point, converted by float(Fraction)."""
    rows = inst.constraints()
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["alpha", "gamma", "feasible", "objective"])
        for i in range(grid):
            for j in range(grid):
                alpha = Fraction(i, grid - 1) * as_fraction(span)
                gamma = Fraction(j, grid - 1) * as_fraction(span)
                feas = all(rhs - (a * alpha + b * gamma) >= 0 for _, a, b, rhs in rows)
                wr.writerow(
                    [float(alpha), float(gamma), int(feas), float(inst.objective(alpha, gamma))]
                )


@pytest.mark.parametrize(
    "inst, grid, span",
    [
        # the `symsense polytope` defaults
        (LPInstance(0, Fraction(3, 2), 1, Fraction(1, 10), Fraction(1, 10)), 101, 1.5),
        (LPInstance(Fraction(1, 5), Fraction(3, 2), 1, Fraction(1, 10), Fraction(1, 10)), 61, 1.5),
        (LPInstance(Fraction(1, 5), Fraction(3, 2), 1, Fraction(1, 10), Fraction(1, 10)), 41, 1.3),
        # infeasible: no grid point passes
        (LPInstance(Fraction(0), Fraction(1), Fraction(0), Fraction(100), Fraction(1, 10)), 31, 1.5),
    ],
)
def test_polytope_csv_matches_fraction_grid_byte_for_byte(tmp_path, inst, grid, span):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _polytope_csv_fraction_reference(inst, want, grid, span)
    write_polytope_csv(inst, got, grid=grid, span=span)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_polytope_csv_rejects_grid_below_two(tmp_path, grid):
    inst = LPInstance(0, Fraction(3, 2), 1, Fraction(1, 10), Fraction(1, 10))
    with pytest.raises(ValueError, match="grid"):
        write_polytope_csv(inst, tmp_path / "p.csv", grid=grid)
