"""Sign-inversion identity: R_{-a}(-u, -u_t) = -R_a(u, u_t) everywhere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvwaves.equations import EquationId, EquationKind, Field, Grid, residual
from kdvwaves.inversion import (
    ALGEBRAIC_TOL,
    CONTROL_MIN,
    RandomField,
    algebraic_defect,
    default_matrix,
    negative_control,
    ramp_bottom,
    run_case,
)
from kdvwaves.waves import Frame, MediumParams
from reference_derivatives import mirrored_residual

GRID = Grid(-32.0, 64.0, 256)


def test_random_field_is_deterministic_and_normalised():
    u1, ut1 = RandomField(seed=3, amplitude=0.7).build(GRID)
    u2, _ = RandomField(seed=3, amplitude=0.7).build(GRID)
    assert np.all(u1.values == u2.values)
    assert abs(np.max(np.abs(u1.values)) - 0.7) < 1e-12
    assert abs(np.mean(u1.values)) < 1e-14
    assert abs(np.mean(ut1.values)) < 1e-14


def test_random_field_seeds_differ():
    u1, _ = RandomField(seed=0).build(GRID)
    u2, _ = RandomField(seed=1).build(GRID)
    assert np.max(np.abs(u1.values - u2.values)) > 1e-3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(list(EquationKind)),
       with_bottom=st.booleans())
def test_antisymmetry_is_exact_for_any_field(seed, kind, with_bottom):
    """Sign-symmetric term assembly makes the defect zero in exact
    floating point, not merely small."""
    u, ut = RandomField(seed, amplitude=0.4).build(GRID)
    params = MediumParams(alpha=0.1, beta=0.1, tau=0.2,
                          delta=0.05 if with_bottom else 0.0)
    bottom = ramp_bottom(GRID) if with_bottom else None
    eq = EquationId(kind, Frame.FIXED, bottom)
    defect = algebraic_defect(u, ut, eq, params)
    assert defect.relative == 0.0


def test_cancellation_requires_the_alpha_flip():
    # negating (u, u_t) under the SAME alpha leaves 2 * (3/2) a u u_x
    # uncancelled, so the combination is large; with the flip it is zero
    u, ut = RandomField(seed=11, amplitude=0.4).build(GRID)
    params = MediumParams(alpha=0.1, beta=0.1)
    eq = EquationId(EquationKind.KDV)
    rep_up, res_up = residual(u, ut, eq, params)
    _, res_same = residual(Field(GRID, -u.values), Field(GRID, -ut.values),
                           eq, params)
    uncancelled = np.max(np.abs(res_up.values + res_same.values)) / rep_up.scale
    assert uncancelled > 1e-3
    assert algebraic_defect(u, ut, eq, params).relative == 0.0


def test_default_matrix_composition():
    cases = default_matrix(seeds=range(2))
    labels = [c.label for c in cases]
    # 4 kinds x 2 bottoms x 2 seeds random + 8 closed-form solutions
    assert sum(1 for c in cases if not c.is_solution) == 16
    assert sum(1 for c in cases if c.is_solution) == 8
    assert "soliton/kdv" in labels and "three_soliton/kdv" in labels


def test_default_matrix_random_rows_are_fresh_random_fields():
    cases = [c for c in default_matrix(seeds=range(3, 5)) if not c.is_solution]
    assert len(cases) == 16
    for case in cases:
        seed = int(case.label.rsplit("seed", 1)[1])
        u, ut = RandomField(seed).build(case.u.grid)
        assert np.array_equal(case.u.values, u.values)
        assert np.array_equal(case.ut.values, ut.values)


def test_full_matrix_passes():
    rows = [run_case(c) for c in default_matrix(seeds=range(3))]
    assert all(r["pass"] for r in rows)
    worst = max(r["algebraic_defect_value"] for r in rows)
    assert worst <= ALGEBRAIC_TOL


def test_run_case_tolerance_zero_passes_exactly_zero_defects():
    # every defect of the matrix is exactly zero, so a zero tolerance holds
    for case in default_matrix(seeds=range(1)):
        row = run_case(case, tolerance=0.0)
        assert row["algebraic_defect_value"] == 0.0
        assert row["algebraic_tol"] == 0.0
        assert row["algebraic_pass"] and row["pass"]


def test_solution_rows_carry_all_checks():
    case = next(c for c in default_matrix(seeds=range(1)) if c.is_solution)
    row = run_case(case)
    for key in ("upright_residual", "mirrored_residual", "control_residual"):
        assert key in row
    assert row["mirrored_pass"]          # negated solution still solves
    assert row["control_residual"] >= CONTROL_MIN


def test_negative_control_is_well_separated():
    # the unflipped-alpha control must fail loudly for every solution
    sols = [c for c in default_matrix(seeds=range(1)) if c.is_solution]
    margins = [negative_control(c.u, c.ut, c.eq, c.params).relative for c in sols]
    assert min(margins) >= CONTROL_MIN


def test_mirrored_residual_equals_upright():
    # |R| of the negated solution under -alpha is the same number
    case = next(c for c in default_matrix(seeds=range(1)) if c.is_solution)
    up, _ = residual(case.u, case.ut, case.eq, case.params)
    down = mirrored_residual(case.u, case.ut, case.eq, case.params)
    assert up.norm_inf == down.norm_inf


def test_ramp_bottom_knots_avoid_grid_points():
    bottom = ramp_bottom(GRID)
    for kx, _ in bottom.knots:
        frac = (kx - GRID.x0) / GRID.dx
        assert abs(frac - round(frac)) > 0.4
