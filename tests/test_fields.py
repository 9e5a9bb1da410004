"""Velocity reconstruction and the physical diagnostics suite."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axinozzle import (
    GasModel,
    build_grid,
    diagnostics_report,
    entropy_pair_residual,
    far_field_error,
    find_critical_flux,
    flow_angle,
    flux_drift,
    irrotationality_residual,
    make_profile,
    newton_solve,
    positivity_check,
    station_fluxes,
    velocity_from_stream,
)
from axinozzle.fields import (_PLACEMENTS, DEFAULT_THRESHOLDS, _bump, _bump_prime,
                              default_compact, nodal_gradients)

GAS = GasModel()


@pytest.fixture(scope="module")
def cylinder_flow():
    grid = build_grid(make_profile("cylinder", a=1.0), length=6.0,
                      nx=96, nr=24, delta=1e-6)
    sol = newton_solve(grid, GAS, 0.3)
    assert sol.converged
    return velocity_from_stream(sol, GAS), sol


@pytest.fixture(scope="module")
def tanh_flow():
    grid = build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=12.0,
                      nx=144, nr=32, delta=1e-6)
    sol = newton_solve(grid, GAS, 0.25)
    assert sol.converged
    return velocity_from_stream(sol, GAS), sol


def test_uniform_momentum_on_cylinder(cylinder_flow):
    flow, _ = cylinder_flow
    # rho U = 2 m / a^2 for the straight pipe, V vanishes
    assert np.abs(flow.rho * flow.U - 0.6).max() < 5e-5
    assert np.abs(flow.V).max() < 5e-5
    # axial speed against the inverted momentum relation
    u_exact = np.sqrt(GAS.speed_from_momentum(0.36))
    assert np.abs(flow.U - u_exact).max() < 5e-5
    assert np.abs(flow.omega).max() < 2e-4
    assert np.all(flow.mach < 1.0)


def test_momentum_identity_off_axis(tanh_flow):
    flow, sol = tanh_flow
    psi_x, psi_r = nodal_gradients(sol.psi, sol.grid)
    s = np.hypot(psi_x, psi_r)[:, 1:] / (sol.grid.r_nodes + sol.grid.delta)[:, 1:]
    assert np.abs(flow.rho[:, 1:] * flow.q[:, 1:] - s).max() < 1e-10


def test_velocity_evaluates_the_gas_off_the_axis_only(monkeypatch):
    # at delta = 0 the axis row would divide by zero; it is extrapolated
    # from the rows above, so the gas sees only the (nx + 1) nr other nodes
    grid = build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=8.0, nx=32, nr=8)
    sol = newton_solve(grid, GAS, 0.2)
    sizes = []
    evaluate = GasModel._evaluate

    def counting(self, s, name, **kwargs):
        sizes.append(np.size(s))
        return evaluate(self, s, name, **kwargs)

    monkeypatch.setattr(GasModel, "_evaluate", counting)
    flow = velocity_from_stream(sol, GAS)
    assert sizes == [(grid.nx + 1) * grid.nr]
    assert all(np.isfinite(a).all() for a in (flow.U, flow.V, flow.rho, flow.mach))


def test_zero_flux_conventions():
    grid = build_grid(make_profile("cylinder", a=1.0), length=4.0,
                      nx=48, nr=12, delta=1e-6)
    sol = newton_solve(grid, GAS, 0.0)
    flow = velocity_from_stream(sol, GAS)
    assert np.abs(flow.U).max() == 0.0
    assert np.abs(flow.V).max() == 0.0
    assert np.abs(flow.omega).max() == 0.0  # atan2(0, 0) convention
    assert np.abs(flow.rho - GAS.rho_stag).max() < 1e-12
    assert flux_drift(flow) == 0.0
    report = diagnostics_report(sol, GAS)
    assert report.passed


def test_radial_velocity_sign_follows_wall(tanh_flow):
    flow, _ = tanh_flow
    # contracting wall pushes the flow toward the axis
    grid = flow.grid
    neck = np.abs(grid.xi) < 4.0
    assert flow.V[neck, 1:].max() < 1e-4
    assert flow.V[neck, 1:].min() < -1e-3


def test_flow_angle_bounds(tanh_flow):
    flow, _ = tanh_flow
    check = flow_angle(flow)
    lo, hi = check.bounds
    assert lo == pytest.approx(np.arctan(-0.05), rel=1e-12)
    assert hi == 0.0
    assert check.measured[0] >= lo - 1e-3
    assert check.measured[1] <= hi + 1e-3


def test_station_fluxes_conserved(tanh_flow):
    flow, _ = tanh_flow
    fluxes = station_fluxes(flow)
    assert fluxes.shape == (flow.grid.nx + 1,)
    assert np.abs(fluxes - flow.m0).max() < 1e-4 * flow.m0
    assert flux_drift(flow) < 1e-4


def test_far_field_uniform(cylinder_flow, tanh_flow):
    for flow, _ in (cylinder_flow, tanh_flow):
        left, right = far_field_error(flow, GAS)
        assert left < 1e-4
        assert right < 1e-4


def test_positivity(tanh_flow):
    flow, _ = tanh_flow
    check = positivity_check(flow)
    assert check.min_u > 0.0
    x, r = check.location
    assert -flow.grid.length <= x <= flow.grid.length
    assert 0.0 <= r <= 1.0


def test_entropy_residual_uniform_flow(cylinder_flow):
    flow, _ = cylinder_flow
    res = entropy_pair_residual(flow, GAS)
    # the axial-momentum pair is exact for uniform flow; the radial pair
    # carries only trapezoid error from the bump derivative
    assert res.plus < 1e-12
    assert res.minus < 2e-2


def test_entropy_residual_decays_under_refinement():
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    values = []
    for nx, nr in ((96, 24), (192, 48)):
        grid = build_grid(prof, length=12.0, nx=nx, nr=nr, delta=1e-6)
        sol = newton_solve(grid, GAS, 0.25)
        flow = velocity_from_stream(sol, GAS)
        res = entropy_pair_residual(flow, GAS)
        values.append(max(res.plus, res.minus))
    assert values[1] < 0.4 * values[0]


def test_entropy_residual_rejects_bad_window(cylinder_flow):
    flow, _ = cylinder_flow
    with pytest.raises(ValueError):
        entropy_pair_residual(flow, GAS, rect=(-2.0, 2.0, 0.5, 0.2))
    with pytest.raises(ValueError):
        entropy_pair_residual(flow, GAS, rect=(-2.0, 2.0, 0.2, 5.0))


def closed_form_bump(t):
    """(1 - t^2)^4 on |t| < 1 and +0.0 elsewhere, the power taken at every value."""
    return np.where(np.abs(t) < 1.0, (1.0 - t**2) ** 4, 0.0)


def closed_form_bump_prime(t):
    return np.where(np.abs(t) < 1.0, -8.0 * t * (1.0 - t**2) ** 3, 0.0)


def test_bump_kernels_equal_their_closed_forms_bit_for_bit():
    # compared as bytes, so a -0.0 in place of +0.0 off the support fails
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    edges = np.array([0.0, -0.0, 1.0, -1.0, below, -below, above, -above,
                      0.5, -0.5, 1e-300, 5e-324, 1e3, -1e3])
    rng = np.random.default_rng(29)
    t = np.concatenate([edges, rng.uniform(-1.5, 1.5, 4000), rng.uniform(-1e3, 1e3, 4000)])
    rng.shuffle(t)
    for values in (t, t.reshape(2, -1).T, t[::3], edges):
        assert _bump(values).tobytes() == closed_form_bump(values).tobytes()
        assert _bump_prime(values).tobytes() == closed_form_bump_prime(values).tobytes()
    off = np.abs(t) >= 1.0
    for kernel in (_bump, _bump_prime):
        values = kernel(t)[off]
        assert not values.any() and not np.signbit(values).any()


def full_grid_entropy_residual(flow, gas, rect=None):
    """Reference: every bump placement evaluated on every node of the grid.

    The bumps are the closed forms above, not the kernels under test.
    """
    grid = flow.grid
    x_lo, x_hi, r_lo, r_hi = default_compact(grid) if rect is None else rect
    x = grid.x_nodes
    r = grid.r_nodes
    r_safe = np.where(r > 1e-12, r, 1.0)
    p = gas.pressure(flow.rho.ravel()).reshape(flow.rho.shape)
    eta_plus = flow.rho * flow.U**2 + p
    lam_plus = flow.rho * flow.U * flow.V
    eta_minus = lam_plus
    lam_minus = flow.rho * flow.V**2 + p
    source_plus = -flow.rho * flow.U * flow.V / r_safe
    source_minus = -flow.rho * flow.V**2 / r_safe

    def integral(integrand):
        per_station = np.trapezoid(integrand, x=r, axis=1)
        return abs(float(np.trapezoid(per_station, x=grid.xi)))

    cx0, cr0 = 0.5 * (x_lo + x_hi), 0.5 * (r_lo + r_hi)
    wx0, wr0 = 0.5 * (x_hi - x_lo), 0.5 * (r_hi - r_lo)
    worst_plus = worst_minus = 0.0
    for ox, orr, scale in _PLACEMENTS:
        cx, cr = cx0 + ox * 2.0 * wx0, cr0 + orr * 2.0 * wr0
        wx, wr = scale * wx0, scale * wr0
        tx, tr = (x - cx) / wx, (r - cr) / wr
        chi = closed_form_bump(tx) * closed_form_bump(tr)
        chi_x = closed_form_bump_prime(tx) * closed_form_bump(tr) / wx
        chi_r = closed_form_bump(tx) * closed_form_bump_prime(tr) / wr
        plus = eta_plus * chi_x + lam_plus * chi_r + source_plus * chi
        minus = eta_minus * chi_x + lam_minus * chi_r + source_minus * chi
        worst_plus = max(worst_plus, integral(plus))
        worst_minus = max(worst_minus, integral(minus))
    return worst_plus, worst_minus


ORACLE_LENGTH, ORACLE_NX = 6.0, 40


@functools.cache
def oracle_flows():
    """Small solved tanh, bump and cylinder flows on one set of stations."""
    walls = (make_profile("tanh_step", a=0.8, ell=2.0),
             make_profile("bump", a0=1.0, h=-0.2, w=1.5),
             make_profile("cylinder", a=1.0))
    flows = []
    for profile in walls:
        grid = build_grid(profile, length=ORACLE_LENGTH, nx=ORACLE_NX, nr=10, delta=1e-6)
        sol = newton_solve(grid, GAS, 0.2 * grid.f_nodes.min() ** 2)
        assert sol.converged
        flows.append(velocity_from_stream(sol, GAS))
    return tuple(flows)


STATION = st.integers(0, ORACLE_NX).map(  # the grid's own station values
    lambda k: -ORACLE_LENGTH + k * (2.0 * ORACLE_LENGTH / ORACLE_NX))
X_EDGES = st.tuples(*[st.one_of(STATION, st.floats(-ORACLE_LENGTH, ORACLE_LENGTH))] * 2)
R_EDGES = st.tuples(*[st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))] * 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(which=st.integers(0, 2),
       x_edges=X_EDGES.filter(lambda pair: abs(pair[0] - pair[1]) > 1e-9),
       r_fractions=R_EDGES.filter(lambda pair: abs(pair[0] - pair[1]) > 1e-9))
def test_entropy_residual_equals_full_grid_quadrature(which, x_edges, r_fractions):
    # the quadrature over each bump's station support is the full-grid sum bit for bit
    flow = oracle_flows()[which]
    assert np.array_equal(flow.grid.xi[[0, -1]], [-ORACLE_LENGTH, ORACLE_LENGTH])
    b = flow.grid.profile.b
    rect = (*sorted(x_edges), *(b * f for f in sorted(r_fractions)))
    assert tuple(entropy_pair_residual(flow, GAS, rect=rect)) == \
        full_grid_entropy_residual(flow, GAS, rect)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["tanh", "bump", "cylinder"])
def test_entropy_residual_equals_full_grid_on_edge_rectangles(which):
    flow = oracle_flows()[which]
    grid = flow.grid
    b = grid.profile.b
    inside_one_cell = (grid.xi[7] + 0.2 * grid.dxi, grid.xi[7] + 0.6 * grid.dxi, 0.1 * b, 0.9 * b)
    for rect in (None,                                             # the default compact
                 (-grid.length, grid.length, 0.3 * b, 0.7 * b),     # touching +-L
                 (-1.0, 2.5, 0.0, 0.6 * b),                         # r_lo on the axis
                 (-grid.length, grid.length, 0.0, b),              # the whole nozzle
                 inside_one_cell):                                  # misses every station
        expected = full_grid_entropy_residual(flow, GAS, rect)
        assert tuple(entropy_pair_residual(flow, GAS, rect=rect)) == expected
    assert expected == (0.0, 0.0)


def test_irrotationality(cylinder_flow, tanh_flow):
    flow, _ = cylinder_flow
    assert irrotationality_residual(flow).max < 1e-3
    flow2, _ = tanh_flow
    assert irrotationality_residual(flow2).l2 < 1e-3


@pytest.mark.parametrize("delta", [0.0, 1e-6])
def test_irrotationality_decays_under_refinement(delta):
    # at delta = 0 the axis row is 0/0; the residual core never reads it
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    norms = []
    for nx, nr in ((96, 24), (192, 48)):
        grid = build_grid(prof, length=12.0, nx=nx, nr=nr, delta=delta)
        sol = newton_solve(grid, GAS, 0.25)
        assert sol.converged
        norms.append(irrotationality_residual(velocity_from_stream(sol, GAS)).l2)
    assert norms[1] < 0.35 * norms[0]


def test_diagnostics_report_passes_and_serializes(tanh_flow):
    flow, sol = tanh_flow
    report = diagnostics_report(sol, GAS, flow=flow)
    assert report.passed
    assert report.values["m0"] == pytest.approx(2.0 * np.pi * 0.25)
    pairs = report.items()
    keys = [k for k, _ in pairs]
    assert keys[0] == "m0"
    assert keys[-1] == "passed"
    assert len(keys) == len(set(keys))
    for _, value in pairs:
        assert isinstance(value, (bool, int, float, np.bool_, np.floating))


def test_diagnostics_threshold_validation(tanh_flow):
    _, sol = tanh_flow
    with pytest.raises(ValueError):
        diagnostics_report(sol, GAS, thresholds={"bogus": 1.0})
    tight = diagnostics_report(sol, GAS, thresholds={"flux_drift": 1e-12})
    assert not tight.checks["flux_drift"]
    assert not tight.passed


@pytest.mark.parametrize("key", sorted(DEFAULT_THRESHOLDS))
@pytest.mark.parametrize("value", [-1.0, -1e-300, np.nan])
def test_diagnostics_report_refuses_negative_or_nan_thresholds(tanh_flow, key, value):
    # every measured quantity is >= 0, so no flow could meet such a bound;
    # the report used to fail the check instead of raising.  0 stays allowed
    flow, sol = tanh_flow
    with pytest.raises(ValueError, match=f"thresholds \\['{key}'\\] must be >= 0"):
        diagnostics_report(sol, GAS, flow=flow, thresholds={key: value})
    assert diagnostics_report(sol, GAS, flow=flow, thresholds={key: 0.0}).thresholds[key] == 0.0


def failed_checks(report):
    return sorted(name for name, ok in report.checks.items() if not ok)


def broken_input(gate, sol, flow):
    """The cylinder solve and its flow, edited so that exactly gate fails."""
    mid = flow.grid.nx // 2
    if gate == "converged":
        return dataclasses.replace(sol, converged=False), flow
    if gate == "max_principle":  # psi below 0, which stays under the barrier
        psi = sol.psi.copy()
        psi[mid, 12] = -1e-6
        return dataclasses.replace(sol, psi=psi), flow
    if gate == "barrier":  # psi within [0, m] but far above m (r + delta)^2 / b^2
        psi = sol.psi.copy()
        psi[mid, 1] = 0.95 * sol.m
        return dataclasses.replace(sol, psi=psi), flow
    if gate == "positivity":  # reversed on the axis, where it carries no flux
        U = flow.U.copy()
        U[mid, 0] = -1e-3
        return sol, dataclasses.replace(flow, U=U)
    if gate == "angle":  # the straight pipe's bounds are (0, 0)
        omega = flow.omega.copy()
        omega[mid, 12] = 2e-3
        return sol, dataclasses.replace(flow, omega=omega)
    return sol, flow


@pytest.mark.parametrize("gate", [None, "converged", "max_principle", "barrier",
                                  "positivity", "angle"])
def test_each_diagnostics_gate_fails_alone(cylinder_flow, gate):
    # the barrier slack 10 h_max^2 is 0.16 on this grid, below m = 0.3
    flow, sol = cylinder_flow
    broken_sol, broken_flow = broken_input(gate, sol, flow)
    report = diagnostics_report(broken_sol, GAS, flow=broken_flow)
    assert failed_checks(report) == ([gate] if gate else [])
    assert report.passed == (gate is None)


def test_far_field_gate_fails_on_a_short_nozzle():
    # at L = 4 the w = 1 bump is still 4.6e-3 off flat at the far-field
    # stations x = +-2; pick_domain_length gives it L = 8
    profile = make_profile("bump", a0=1.0, h=-0.25, w=1.0)
    grid = build_grid(profile, length=4.0, nx=128, nr=32, delta=1e-6)
    sol = newton_solve(grid, GAS, 0.9 / (2.0 * np.pi))
    report = diagnostics_report(sol, GAS)
    assert failed_checks(report) == ["far_field"]
    assert min(far_field_error(velocity_from_stream(sol, GAS), GAS)) > 1e-3
