"""Time integration: order, conservation, symmetry, and failure modes."""

import importlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kdvwaves.equations import BottomProfile, EquationId, EquationKind, Field, Grid
from kdvwaves.evolve import (
    EvolveConfig,
    NumericalAbort,
    estimate_speed,
    evolve,
    monitors,
)
from kdvwaves.inversion import RandomField, ramp_bottom
from kdvwaves.waves import Frame, MediumParams, make_gardner_soliton, make_kdv_soliton

# the module itself: the package exports the function `evolve` under its name
evolve_module = importlib.import_module("kdvwaves.evolve")
P = MediumParams(alpha=0.1, beta=0.1)
GRID = Grid(-30.0, 60.0, 512)
KDV = EquationId(EquationKind.KDV)


def _soliton_error(dt: float, t_end: float = 10.0) -> float:
    w = make_kdv_soliton(P, 1.0)
    cfg = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=dt, t_end=t_end,
                       output_stride=0)
    traj = evolve(cfg, w.profile(GRID.x))
    # exact translate, wrapped into the periodic window
    xi = np.mod(GRID.x - w.v * t_end - GRID.x0, GRID.length) + GRID.x0
    return float(np.max(np.abs(traj.final.values - w.profile(xi))))


def test_soliton_translates_with_small_error():
    assert _soliton_error(0.05) < 1e-6


def test_fourth_order_in_dt():
    e1 = _soliton_error(0.05, t_end=5.0)
    e2 = _soliton_error(0.025, t_end=5.0)
    e3 = _soliton_error(0.0125, t_end=5.0)
    assert 12.0 < e1 / e2 < 20.0
    assert 12.0 < e2 / e3 < 20.0


def test_mass_and_momentum_conservation():
    w = make_kdv_soliton(P, 1.0)
    cfg = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.02, t_end=10.0,
                       output_stride=100)
    traj = evolve(cfg, w.profile(GRID.x))
    mon = monitors(traj)
    assert np.max(np.abs(mon["mass"] - mon["mass"][0])) < 1e-12
    assert np.max(np.abs(mon["momentum"] - mon["momentum"][0])) < 1e-8


def test_estimated_speed_matches_dispersion_relation():
    w = make_kdv_soliton(P, 1.0)
    cfg = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.02, t_end=10.0,
                       output_stride=0)
    traj = evolve(cfg, w.profile(GRID.x))
    v = estimate_speed(traj.snapshots[0], traj.final)
    assert abs(v - w.v) < 1e-4


def test_gardner_soliton_evolution():
    p = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    w = make_gardner_soliton(p, Delta=1.0)
    grid = Grid(-30.0, 60.0, 512)
    cfg = EvolveConfig(eq=EquationId(EquationKind.GARDNER), params=p,
                       grid=grid, dt=0.02, t_end=6.0, output_stride=0)
    traj = evolve(cfg, w.profile(grid.x))
    xi = np.mod(grid.x - w.v * 6.0 - grid.x0, grid.length) + grid.x0
    assert np.max(np.abs(traj.final.values - w.profile(xi))) < 1e-6


def test_moving_frame_keeps_soliton_still():
    w = make_kdv_soliton(P, 1.0)
    cfg = EvolveConfig(eq=EquationId(EquationKind.KDV, Frame.MOVING),
                       params=P, grid=GRID, dt=0.05, t_end=10.0,
                       output_stride=0)
    traj = evolve(cfg, w.profile(GRID.x))
    xi = np.mod(GRID.x - w.speed_in(Frame.MOVING) * 10.0 - GRID.x0,
                GRID.length) + GRID.x0
    assert np.max(np.abs(traj.final.values - w.profile(xi))) < 1e-6


def test_snapshot_stride_semantics():
    w = make_kdv_soliton(P, 1.0)
    u0 = w.profile(GRID.x)
    cfg = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.1, t_end=1.0,
                       output_stride=0)
    assert len(evolve(cfg, u0).snapshots) == 2          # first and last
    cfg = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.1, t_end=1.0,
                       output_stride=5)
    traj = evolve(cfg, u0)
    assert_allclose(traj.times, [0.0, 0.5, 1.0], atol=1e-12)


def test_dynamic_antisymmetry_is_bitwise():
    """-u0 under -alpha evolves to exactly the negated field, including
    over a varying bottom."""
    for kind in (EquationKind.KDV, EquationKind.KDV2):
        for use_bottom in (False, True):
            grid = Grid(0.0, 40.0, 256)
            u0 = RandomField(seed=5, amplitude=0.2).build(grid)[0].values
            p = MediumParams(alpha=0.1, beta=0.1,
                             delta=0.05 if use_bottom else 0.0)
            eq = EquationId(kind, Frame.FIXED,
                            ramp_bottom(grid) if use_bottom else None)
            up = evolve(EvolveConfig(eq=eq, params=p, grid=grid, dt=0.01,
                                     t_end=1.0, output_stride=25), u0)
            dn = evolve(EvolveConfig(eq=eq, params=p.flipped(), grid=grid,
                                     dt=0.01, t_end=1.0, output_stride=25), -u0)
            assert len(up.snapshots) == len(dn.snapshots)
            for a, b in zip(up.snapshots, dn.snapshots):
                assert np.max(np.abs(a.values + b.values)) == 0.0


def test_blowup_aborts_with_partial_trajectory():
    # a grossly unstable step size must abort, not return garbage
    w = make_kdv_soliton(P, 20.0)
    cfg = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=5.0, t_end=500.0,
                       output_stride=1)
    with pytest.raises(NumericalAbort) as err:
        evolve(cfg, 50.0 * np.sin(GRID.x) + w.profile(GRID.x))
    assert err.value.trajectory.times  # partial history preserved


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(eq=KDV, params=P, grid=GRID, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.3, t_end=1.0)  # not integer
    with pytest.raises(ValueError):
        EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.1, t_end=1.0,
                     output_stride=-1)


@pytest.mark.parametrize("name", ["dt", "t_end"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_dt_or_t_end_is_rejected_by_name(name, value):
    times = {"dt": 0.1, "t_end": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        EvolveConfig(eq=KDV, params=P, grid=GRID, **times)


def test_bottom_knot_on_grid_point_rejected():
    from kdvwaves.equations import BottomProfile
    grid = Grid(0.0, 40.0, 256)
    knot_x = grid.x0 + 32 * grid.dx
    bottom = BottomProfile(((knot_x, 0.0), (knot_x + 5.0 * grid.dx + 0.5 * grid.dx, 0.2)))
    with pytest.raises(ValueError, match="coincides with a grid point"):
        EvolveConfig(eq=EquationId(EquationKind.KDV, bottom=bottom),
                     params=P, grid=grid, dt=0.1, t_end=1.0)


def _dealiased(kind: EquationKind) -> bool:
    """The stepper's 2/3 rule: on wherever the kind has a cubic term."""
    from kdvwaves.equations import TERMS
    return any(len(orders) >= 3 for _, _, orders in TERMS[kind])


@pytest.mark.parametrize("use_bottom", [False, True])
@pytest.mark.parametrize("kind", EquationKind)
def test_the_two_thirds_mask_is_on_exactly_for_the_cubic_kinds(kind, use_bottom):
    from kdvwaves.evolve import ETDRK4

    grid = Grid(-32.0, 64.0, 256)
    # white noise: its products reach every mode past n // 3
    u = np.random.default_rng(3).standard_normal(grid.n)
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.2, delta=0.05 if use_bottom else 0.0)
    eq = EquationId(kind, bottom=ramp_bottom(grid) if use_bottom else None)
    nv = ETDRK4(EvolveConfig(eq=eq, params=p, grid=grid, dt=0.01, t_end=0.01)).nonlinear(
        np.fft.rfft(u))
    assert np.all(nv[grid.n // 3 + 1:] == 0.0) == _dealiased(kind)
    assert np.all(nv[1:grid.n // 3 + 1] != 0.0)


ALL_SETUPS = [(kind, frame, use_bottom) for kind in EquationKind for frame in Frame
              for use_bottom in (False, True)]


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_stepper_rhs_is_minus_the_residual(kind, frame, use_bottom):
    """The stepper's N(v) and minus the residual at u_t = 0, less L v and
    masked where the kind dealiases, read one term table, so they agree to
    roundoff."""
    from kdvwaves.equations import Field, residual
    from kdvwaves.evolve import ETDRK4, _linear_symbol

    grid = Grid(-32.0, 64.0, 256)
    u, _ = RandomField(seed=4, amplitude=0.4).build(grid)
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.2, delta=0.05 if use_bottom else 0.0)
    eq = EquationId(kind, frame, ramp_bottom(grid) if use_bottom else None)
    cfg = EvolveConfig(eq=eq, params=p, grid=grid, dt=0.01, t_end=0.01)
    v = np.fft.rfft(u.values)
    report, res = residual(u, Field(grid, np.zeros(grid.n)), eq, p)
    expected = -np.fft.rfft(res.values) - _linear_symbol(eq, p, grid) * v
    if _dealiased(kind):
        expected[grid.n // 3 + 1:] = 0.0
    error = np.fft.irfft(ETDRK4(cfg).nonlinear(v) - expected, grid.n)
    assert np.max(np.abs(error)) <= 1e-12 * report.scale


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_mirror_evolution_is_bitwise_for_every_setup(kind, frame, use_bottom):
    grid = Grid(0.0, 40.0, 128)
    u0 = RandomField(seed=6, amplitude=0.2).build(grid)[0].values
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.2, delta=0.05 if use_bottom else 0.0)
    eq = EquationId(kind, frame, ramp_bottom(grid) if use_bottom else None)
    up = evolve(EvolveConfig(eq=eq, params=p, grid=grid, dt=0.01, t_end=0.2,
                             output_stride=5), u0)
    dn = evolve(EvolveConfig(eq=eq, params=p.flipped(), grid=grid, dt=0.01,
                             t_end=0.2, output_stride=5), -u0)
    assert len(up.snapshots) == len(dn.snapshots) == 5
    for a, b in zip(up.snapshots, dn.snapshots):
        assert np.array_equal(a.values, -b.values)


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_step_makes_two_fft_calls_per_stage(kind, frame, use_bottom, monkeypatch):
    """Each of the four stages makes one stacked irfft and one rfft call."""
    from kdvwaves.evolve import ETDRK4

    grid = Grid(0.0, 40.0, 128)
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.2, delta=0.05 if use_bottom else 0.0)
    eq = EquationId(kind, frame, ramp_bottom(grid) if use_bottom else None)
    stepper = ETDRK4(EvolveConfig(eq=eq, params=p, grid=grid, dt=0.01, t_end=0.01))
    v = np.fft.rfft(RandomField(seed=2, amplitude=0.2).build(grid)[0].values)
    calls = []

    def counted(name):
        real = getattr(evolve_module, "_" + name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    # the stages call the gufunc handles that kdvwaves.evolve imports
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(evolve_module, "_" + name, counted(name))
    stepper.step(v)
    assert calls == ["irfft", "rfft"] * 4


@pytest.mark.parametrize("n", [16, 128, 256, 1024, 4096])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["row", "stack3"])
def test_stepper_gufuncs_are_numpy_fft_bit_for_bit(n, shape):
    """The stages' two gufunc calls, in the stepper's own positional form
    and normalisation, give np.fft.rfft's and np.fft.irfft's bits; a numpy
    that renames or changes those gufuncs fails here."""
    from kdvwaves.evolve import ETDRK4

    stepper = ETDRK4(EvolveConfig(eq=KDV, params=P, grid=Grid(0.0, 40.0, n),
                                  dt=0.01, t_end=0.01))
    rng = np.random.default_rng(n)
    x = rng.standard_normal(shape + (n,))
    spectrum = np.empty(shape + (n // 2 + 1,), dtype=complex)
    assert evolve_module._rfft(x, 1.0, spectrum) is spectrum
    assert spectrum.tobytes() == np.fft.rfft(x).tobytes()
    spectrum += 1j * rng.standard_normal(spectrum.shape)
    back = np.empty(shape + (n,))
    assert evolve_module._irfft(spectrum, stepper._inv_n, back) is back
    assert back.tobytes() == np.fft.irfft(spectrum, n).tobytes()


def _setup_stepper(kind, frame, use_bottom):
    from kdvwaves.evolve import ETDRK4

    grid = Grid(0.0, 40.0, 128)
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.2, delta=0.05 if use_bottom else 0.0)
    eq = EquationId(kind, frame, ramp_bottom(grid) if use_bottom else None)
    stepper = ETDRK4(EvolveConfig(eq=eq, params=p, grid=grid, dt=0.01, t_end=0.01))
    return stepper, np.fft.rfft(RandomField(seed=3, amplitude=0.3).build(grid)[0].values)


def _reference_step(s, v):
    """One ETDRK4 step from fresh arrays, in the operand order of `step`."""
    Nv = s.nonlinear(v)
    E2v = s.E2 * v
    a = s.Q * Nv + E2v
    Na = s.nonlinear(a)
    Nb = s.nonlinear(s.Q * Na + E2v)
    Nc = s.nonlinear((Nb * 2.0 - Nv) * s.Q + a * s.E2)
    return s.E * v + Nv * s.f1 + (Na + Nb) * s._f2x2 + Nc * s.f3


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_workspace_step_is_bitwise_the_fresh_array_step(kind, frame, use_bottom):
    stepper, v = _setup_stepper(kind, frame, use_bottom)
    w = v
    for _ in range(20):
        v, w = stepper.step(v), _reference_step(stepper, w)
        assert v.tobytes() == w.tobytes()


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_nonlinear_writes_into_out(kind, frame, use_bottom):
    stepper, v = _setup_stepper(kind, frame, use_bottom)
    buf = np.full_like(v, np.nan)
    assert stepper.nonlinear(v, out=buf) is buf
    assert buf.tobytes() == stepper.nonlinear(v).tobytes()
    assert stepper.nonlinear(v) is not stepper.nonlinear(v)


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_returned_state_survives_the_next_step(kind, frame, use_bottom):
    stepper, v = _setup_stepper(kind, frame, use_bottom)
    first = stepper.step(v)
    kept = first.copy()
    stepper.step(first)
    assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_stepper_holds_the_grids_own_derivative_rows(kind, frame, use_bottom):
    stepper, _ = _setup_stepper(kind, frame, use_bottom)
    grid = stepper.config.grid
    own = {id(grid.derivative_multiplier(o)) for o in range(1, 6)}
    # only u is sampled on a flat bottom, except by kdv2's u_x^2 and u u_xx
    assert bool(stepper._ik) == (use_bottom or kind is EquationKind.KDV2)
    assert all(id(row) in own for row in stepper._ik)
    assert not hasattr(stepper, "_multipliers")


@pytest.mark.parametrize("kind", list(EquationKind))
def test_flat_bottom_nonlinearity_conserves_mass_exactly(kind):
    """In flux form the nonlinear part is ik times a transform, so its mean is 0."""
    from kdvwaves.evolve import ETDRK4

    grid = Grid(0.0, 40.0, 128)
    cfg = EvolveConfig(eq=EquationId(kind), params=MediumParams(alpha=0.1, beta=0.1),
                       grid=grid, dt=0.01, t_end=0.01)
    v = np.fft.rfft(RandomField(seed=8, amplitude=0.5).build(grid)[0].values + 0.3)
    assert ETDRK4(cfg).nonlinear(v)[0] == 0.0


# Q/dt, f1/dt, f2/dt and f3/dt of ETDRK4 at z = iy, from their closed forms
# in mpmath at 40 digits (the limits 1/2 and 1/6 at y = 0), rounded to 20
PHI_REFERENCE = {
        0: (5.0e-1+0.0j,
              1.6666666666666666667e-1+0.0j,
              1.6666666666666666667e-1+0.0j,
              1.6666666666666666667e-1+0.0j),
        1e-8: (4.9999999999999999792e-1+1.2499999999999999974e-9j,
              1.6666666666666665917e-1+1.6666666666666666444e-9j,
              1.6666666666666666417e-1+8.3333333333333332778e-10j,
              1.666666666666666675e-1+2.7777777777777777679e-27j),
        0.25: (4.9869893354091075983e-1+3.1209331082683787404e-2j,
              1.6199850997117138053e-1+4.1320315299586225087e-2j,
              1.6510803720861844208e-1+2.0746672965100755942e-2j,
              1.6718517821244656952e-1+4.3305997431614566014e-5j),
        0.5: (4.9480791850904585919e-1+6.2175156578710431711e-2j,
              1.482245845583825852e-1+8.0583319961617486768e-2j,
              1.6047837010575713991e-1+4.0976855337224541046e-2j,
              1.6871301222699485572e-1+3.4413490873891681416e-4j),
        1: (4.7942553860420300027e-1+1.2241743810962728388e-1j,
              9.6493963180729632245e-2+1.4531987202810867216e-1j,
              1.426396637476532959e-1+7.7924403455824058546e-2j,
              1.7441836663655369079e-1+2.6802082804553762562e-3j),
        3: (3.3249832886801814365e-1+3.0975426611076569664e-1j,
              -1.9275305292980270389e-1+8.2223798353371566121e-2j,
              9.3413891081878080006e-3+1.3172685070449219438e-1j,
              2.0242749918367387925e-1+5.4199631028808142119e-2j),
        100: (-2.6237485370392878591e-3+3.5033971507886725931e-4j,
              -4.7029352868468437212e-3-8.7756491397206162434e-3j,
              -1.87244618510987911e-4+5.0911926366400511497e-5j,
              3.8825734979320742858e-4+9.9488127113781748564e-3j),
        2.8e5: (-3.3371518616256749339e-6+4.8436390466505838452e-6j,
              2.3774975520209973179e-6+2.665083128239531502e-6j,
              -3.2369783356784406693e-12-8.4909600174972530628e-12j,
              2.8747121766460297062e-11+3.5714370622294948894e-6j),
}


def test_etdrk4_coefficients_match_the_mpmath_values():
    from kdvwaves.evolve import _etdrk4_coefficients

    ys = np.array(sorted({s * y for y in PHI_REFERENCE for s in (1.0, -1.0)}))
    E, E2, *phis = _etdrk4_coefficients(1j * ys, 1.0)
    assert_allclose(E, np.exp(1j * ys), rtol=1e-15)
    assert_allclose(E2, np.exp(0.5j * ys), rtol=1e-15)
    for i, y in enumerate(ys):
        # the coefficients are real on the real axis: their value at -iy is the conjugate
        want = np.array(PHI_REFERENCE[abs(y)])
        want = want.conj() if y < 0.0 else want
        got = np.array([phi[i] for phi in phis])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (y, got - want)


def test_estimated_speed_of_a_leftward_shift_wraps_to_a_negative_speed():
    # the correlation peak lies past half the period, so the shift wraps
    w = make_kdv_soliton(P, 1.0)
    first = Field(GRID, w.profile(GRID.x), 0.0)
    last = Field(GRID, w.profile(GRID.x + 5.0), 2.0)
    assert_allclose(estimate_speed(first, last), -2.5, rtol=1e-3)


@pytest.mark.parametrize("seed", range(5))
def test_estimated_speed_is_the_same_at_every_power_of_two_scale_and_sign(seed):
    # the snapshots are correlated at max |u| in [1/2, 1): scaling both by 2^k,
    # or negating both, changes no bit, and 2^512 ~ 1.3e154 no longer overflows
    u, _ = RandomField(seed, amplitude=0.7).build(GRID)
    shifted = np.roll(u.values, 17 + seed)
    want = estimate_speed(Field(GRID, u.values, 0.0), Field(GRID, shifted, 1.5))
    assert np.isfinite(want)
    for k in (-600, -40, 0, 40, 512, 1000):
        for sign in (1.0, -1.0):
            first = Field(GRID, sign * np.ldexp(u.values, k), 0.0)
            last = Field(GRID, sign * np.ldexp(shifted, k), 1.5)
            assert estimate_speed(first, last) == want, (k, sign)


def test_estimated_speed_refuses_other_grids_and_equal_times():
    values = make_kdv_soliton(P, 1.0).profile(GRID.x)
    other = Grid(-30.0, 60.0, 256)
    with pytest.raises(ValueError, match="^snapshots live on different grids$"):
        estimate_speed(Field(GRID, values, 0.0), Field(other, values[::2], 1.0))
    with pytest.raises(ValueError, match="^snapshots at equal times$"):
        estimate_speed(Field(GRID, values, 1.0), Field(GRID, values, 1.0))


def test_config_refuses_t_end_below_dt():
    with pytest.raises(ValueError, match=r"^t_end \(= 0.05\) must be >= dt$"):
        EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.1, t_end=0.05)


def test_config_refuses_knots_spanning_a_period():
    # refused as the run is configured, before the stepper samples the bottom
    bottom = BottomProfile(((10.1, 0.0), (150.1, 0.25)))
    with pytest.raises(ValueError, match="^BottomProfile knots must span less than one period$"):
        EvolveConfig(eq=EquationId(EquationKind.KDV, bottom=bottom), params=P,
                     grid=Grid(-50.0, 100.0, 256), dt=0.01, t_end=0.02)
