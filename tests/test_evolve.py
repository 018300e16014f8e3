"""Time integration: order, conservation, symmetry, and failure modes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kdvwaves.equations import EquationId, EquationKind, Grid
from kdvwaves.evolve import (
    EvolveConfig,
    NumericalAbort,
    estimate_speed,
    evolve,
    monitors,
)
from kdvwaves.inversion import RandomField, ramp_bottom
from kdvwaves.waves import Frame, MediumParams, make_gardner_soliton, make_kdv_soliton

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


def test_bottom_knot_on_grid_point_rejected():
    from kdvwaves.equations import BottomProfile
    grid = Grid(0.0, 40.0, 256)
    knot_x = grid.x0 + 32 * grid.dx
    bottom = BottomProfile(((knot_x, 0.0), (knot_x + 5.0 * grid.dx + 0.5 * grid.dx, 0.2)))
    with pytest.raises(ValueError, match="coincides with a grid point"):
        EvolveConfig(eq=EquationId(EquationKind.KDV, bottom=bottom),
                     params=P, grid=grid, dt=0.1, t_end=1.0)


def test_dealias_default_tracks_cubic_terms():
    cfg = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.1, t_end=1.0)
    assert not cfg.dealias_active()
    cfg2 = EvolveConfig(eq=EquationId(EquationKind.GARDNER), params=P,
                        grid=GRID, dt=0.1, t_end=1.0)
    assert cfg2.dealias_active()
    cfg3 = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.1, t_end=1.0,
                        dealias=True)
    assert cfg3.dealias_active()


ALL_SETUPS = [(kind, frame, use_bottom) for kind in EquationKind for frame in Frame
              for use_bottom in (False, True)]


@pytest.mark.parametrize("kind, frame, use_bottom", ALL_SETUPS)
def test_stepper_rhs_is_minus_the_residual(kind, frame, use_bottom):
    """The stepper's du/dt, irfft(L v + N(v)), and the residual at u_t = 0
    read one term table, so they agree to roundoff."""
    from kdvwaves.equations import Field, residual
    from kdvwaves.evolve import ETDRK4, _linear_symbol

    grid = Grid(-32.0, 64.0, 256)
    u, _ = RandomField(seed=4, amplitude=0.4).build(grid)
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.2, delta=0.05 if use_bottom else 0.0)
    eq = EquationId(kind, frame, ramp_bottom(grid) if use_bottom else None)
    cfg = EvolveConfig(eq=eq, params=p, grid=grid, dt=0.01, t_end=0.01, dealias=False)
    v = np.fft.rfft(u.values)
    rhs = np.fft.irfft(_linear_symbol(eq, p, grid) * v + ETDRK4(cfg).nonlinear(v), grid.n)
    report, res = residual(u, Field(grid, np.zeros(grid.n)), eq, p)
    assert np.max(np.abs(rhs + res.values)) <= 1e-12 * report.scale


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
        real = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    stepper.step(v)
    assert calls == ["irfft", "rfft"] * 4


@pytest.mark.parametrize("kind", list(EquationKind))
def test_flat_bottom_nonlinearity_conserves_mass_exactly(kind):
    """In flux form the nonlinear part is ik times a transform, so its mean is 0."""
    from kdvwaves.evolve import ETDRK4

    grid = Grid(0.0, 40.0, 128)
    cfg = EvolveConfig(eq=EquationId(kind), params=MediumParams(alpha=0.1, beta=0.1),
                       grid=grid, dt=0.01, t_end=0.01)
    v = np.fft.rfft(RandomField(seed=8, amplitude=0.5).build(grid)[0].values + 0.3)
    assert ETDRK4(cfg).nonlinear(v)[0] == 0.0
