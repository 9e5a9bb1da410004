"""Wall profiles, automatic truncation length, and the body-fitted grid."""

import numpy as np
import pytest

from axinozzle import MappedGrid, build_grid, make_profile, pick_domain_length


def test_cylinder_profile():
    prof = make_profile("cylinder", a=0.8)
    x = np.linspace(-5.0, 5.0, 11)
    assert np.all(prof.wall(x) == 0.8)
    assert np.all(prof.wall_slope(x) == 0.0)
    assert prof.b == 0.8
    assert prof.r_minus == 0.8
    assert prof.r_plus == 0.8
    assert prof.slope_bounds == (0.0, 0.0)


def test_tanh_step_profile():
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    assert prof.wall(0.0) == pytest.approx(0.9)     # midway between 1 and a
    assert prof.wall(-40.0) == pytest.approx(1.0, abs=1e-15)
    assert prof.wall(40.0) == pytest.approx(0.8, abs=1e-15)
    assert prof.b == pytest.approx(0.8)
    assert prof.r_minus == 1.0
    assert prof.r_plus == 0.8
    # steepest at the neck: f'(0) = (a - 1) / (2 ell)
    assert prof.wall_slope(0.0) == pytest.approx(-0.05)
    lo, hi = prof.slope_bounds
    assert lo == pytest.approx(-0.05)
    assert hi == 0.0
    # finite difference agreement for the slope
    x = np.linspace(-6.0, 6.0, 41)
    eps = 1e-6
    fd = (prof.wall(x + eps) - prof.wall(x - eps)) / (2.0 * eps)
    assert np.abs(fd - prof.wall_slope(x)).max() < 1e-9


def test_bump_profile():
    prof = make_profile("bump", a0=1.0, h=-0.2, w=1.0)
    assert prof.wall(0.0) == pytest.approx(0.8)
    assert prof.wall(30.0) == pytest.approx(1.0)
    assert prof.b == pytest.approx(0.8)
    assert prof.r_minus == 1.0
    assert prof.r_plus == 1.0
    x = np.linspace(-4.0, 4.0, 81)
    eps = 1e-6
    fd = (prof.wall(x + eps) - prof.wall(x - eps)) / (2.0 * eps)
    assert np.abs(fd - prof.wall_slope(x)).max() < 1e-9
    lo, hi = prof.slope_bounds
    # extrema of a gaussian bump slope: |h| sqrt(2/e) / w at x = -+ w/sqrt(2)
    peak = 0.2 * np.sqrt(2.0) * np.exp(-0.5)
    assert lo == pytest.approx(-peak, rel=1e-12)
    assert hi == pytest.approx(peak, rel=1e-12)


def test_make_profile_validation():
    with pytest.raises(ValueError):
        make_profile("cone", a=1.0)
    with pytest.raises(ValueError):
        make_profile("cylinder", a=-1.0)
    with pytest.raises(ValueError):
        make_profile("tanh_step", a=0.8)          # ell missing
    with pytest.raises(ValueError):
        make_profile("bump", a0=0.5, h=-0.6, w=1.0)  # throat closes
    with pytest.raises(ValueError):
        make_profile("cylinder", a=1.0, ell=2.0)  # stray parameter


def test_pick_domain_length():
    # tanh with ell = 2 is flat to 1e-6 only past |x| ~ 14, so doubling
    # from 4 lands on 16; the quickly decaying bump is flat at x = +-4 but
    # still 3.7e-3 off flat at the far-field stations x = +-2, so it gets 8
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    assert pick_domain_length(prof) == 16.0
    prof2 = make_profile("bump", a0=1.0, h=-0.2, w=1.0)
    assert pick_domain_length(prof2) == 8.0
    prof3 = make_profile("cylinder", a=1.0)
    assert pick_domain_length(prof3) == 4.0


def test_grid_nodes():
    prof = make_profile("cylinder", a=0.5)
    grid = build_grid(prof, length=2.0, nx=8, nr=4, delta=0.01)
    assert grid.shape == (9, 5)
    assert grid.xi[0] == -2.0 and grid.xi[-1] == 2.0
    assert grid.sigma[0] == 0.0 and grid.sigma[-1] == 1.0
    assert grid.dxi == pytest.approx(0.5)
    assert grid.dsigma == pytest.approx(0.25)
    # nodes: r = sigma * f(x)
    assert grid.r_nodes[0, -1] == pytest.approx(0.5)
    assert grid.r_nodes[3, 2] == pytest.approx(0.25)
    assert np.all(grid.x_nodes[:, 0] == grid.xi)
    assert grid.delta == 0.01


def test_grid_cell_geometry():
    prof = make_profile("tanh_step", a=0.8, ell=1.0)
    grid = build_grid(prof, length=4.0, nx=16, nr=8)
    # cell centers sit midway in (xi, sigma)
    assert grid.xc[0] == pytest.approx(-4.0 + grid.dxi / 2.0)
    assert grid.sc[0] == pytest.approx(grid.dsigma / 2.0)
    # measure = dxi * dsigma * f at the cell center
    f_mid = prof.wall(grid.xc)
    assert np.allclose(grid.measure, grid.dxi * grid.dsigma * f_mid[:, None])
    assert np.all(grid.measure > 0.0)
    assert grid.r_shield.min() >= 0.0


@pytest.mark.parametrize("kind, params", [
    ("cylinder", {"a": 1e300}), ("cylinder", {"a": 1e-300}), ("cylinder", {"a": float("nan")}),
    ("tanh_step", {"a": 1e-25, "ell": 1.0}), ("tanh_step", {"a": 0.8, "ell": 1e13}),
    ("bump", {"a0": 1.0, "h": 1e13, "w": 1.0}), ("bump", {"a0": 1.0, "h": -0.2, "w": 1e-13}),
])
def test_make_profile_rejects_lengths_out_of_scale(kind, params):
    with pytest.raises(ValueError, match=r"must lie in \[1e-12, 1e\+12\]"):
        make_profile(kind, **params)


def test_lengths_at_the_scale_limits_are_accepted():
    for a in (1e-12, 1e12):
        prof = make_profile("tanh_step", a=a, ell=a)
        for length in (1e-12, 1e12):
            assert build_grid(prof, length=length, nx=4, nr=4).length == length


def test_grid_validation():
    prof = make_profile("cylinder", a=1.0)
    with pytest.raises(ValueError):
        build_grid(prof, length=2.0, nx=1, nr=4)
    with pytest.raises(ValueError):
        build_grid(prof, length=2.0, nx=4, nr=4, delta=-0.1)
    with pytest.raises(ValueError):
        build_grid(prof, length=2.0, nx=4, nr=4, delta=2.0)  # above min radius
    with pytest.raises(ValueError):
        build_grid(prof, length=0.0, nx=4, nr=4)
    with pytest.raises(ValueError):
        build_grid(prof, length=1.1e12, nx=4, nr=4)  # above nozzle.SCALE_LIMIT


def test_refinement_nests_nodes():
    # a grid with both cell counts doubled holds every coarse node exactly
    prof = make_profile("bump", a0=1.0, h=0.15, w=1.5)
    grid = build_grid(prof, length=3.0, nx=12, nr=6, delta=0.05)
    fine = build_grid(prof, length=3.0, nx=24, nr=12, delta=0.05)
    assert fine.shape == (25, 13)
    # coarse nodes appear exactly among the fine nodes
    assert np.abs(fine.xi[::2] - grid.xi).max() == 0.0
    assert np.abs(fine.sigma[::2] - grid.sigma).max() == 0.0
    assert np.abs(fine.r_nodes[::2, ::2] - grid.r_nodes).max() == 0.0


def test_with_delta_moves_only_the_shield():
    prof = make_profile("cylinder", a=1.0)
    grid = build_grid(prof, length=2.0, nx=4, nr=4, delta=0.1)
    moved = grid.with_delta(0.05)
    assert moved.delta == 0.05
    assert np.abs(moved.r_nodes - grid.r_nodes).max() == 0.0
    assert np.abs(moved.r_shield - (grid.r_shield - 0.05)).max() < 1e-15


def test_wall_slope_recorded_on_grid():
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    grid = build_grid(prof, length=4.0, nx=8, nr=4)
    assert np.abs(grid.fp_nodes - prof.wall_slope(grid.xi)).max() == 0.0
    assert np.abs(grid.f_nodes - prof.wall(grid.xi)).max() == 0.0
