"""Energy assembly, Newton solves, and discrete structure of the scheme.

The cylinder is the workhorse: the datum is the shielded uniform flow, a
quadratic in r + delta that solves the discrete problem exactly, which
pins the assembly and the start of the nonlinear loop at machine
precision.  The curved-wall cases are checked through structure
(symmetry, convexity, minimality, maximum principle); the decay of the
strong-form residual under refinement is checked with the flow
diagnostics.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from axinozzle import (
    GasModel,
    LinearSolveError,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
    build_grid,
    cell_state,
    flux_drift,
    irrotationality_residual,
    make_profile,
    newton_solve,
    velocity_from_stream,
)
from axinozzle import solver
from axinozzle.solver import _back_solve, _cholesky, _datum

GAS = GasModel()


def cylinder_grid(nx=48, nr=12, a=1.0, delta=0.05, length=4.0):
    return build_grid(make_profile("cylinder", a=a), length=length,
                      nx=nx, nr=nr, delta=delta)


def shielded_quadratic(grid, m):
    """Closed-form stream function of uniform flow with the axis shield."""
    a = grid.profile.b
    d = grid.delta
    r = grid.r_nodes
    return m * ((r + d) ** 2 - d**2) / ((a + d) ** 2 - d**2)


def tanh_grid(nx, nr):
    return build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=8.0,
                      nx=nx, nr=nr, delta=1e-6)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_newton_solve_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tol must be > 0"):
        newton_solve(cylinder_grid(), GAS, 0.5, tol=tol)


@pytest.mark.parametrize("m", [float("nan"), float("inf"), -1.0])
def test_newton_solve_rejects_negative_or_non_finite_m(m):
    with pytest.raises(ValueError, match="m must be finite and >= 0"):
        newton_solve(cylinder_grid(), GAS, m)


def test_zero_flux_solution_is_zero():
    grid = cylinder_grid()
    sol = newton_solve(grid, GAS, 0.0)
    assert sol.converged
    assert np.abs(sol.psi).max() == 0.0
    assert sol.energy == 0.0


def test_energy_positive_and_scaled():
    grid = cylinder_grid(delta=0.0)
    psi = shielded_quadratic(grid, 0.4)
    value = assemble_energy(cell_state(psi, grid, GAS), grid)
    assert value > 0.0
    # doubling the state increases the convex energy more than linearly
    assert assemble_energy(cell_state(2.0 * psi, grid, GAS), grid) > 2.0 * value


def test_gradient_matches_finite_differences():
    grid = cylinder_grid(nx=10, nr=6, delta=0.1, length=1.0)
    rng = np.random.default_rng(7)
    psi = shielded_quadratic(grid, 0.5)
    psi[1:-1, 1:-1] += 0.02 * rng.standard_normal((grid.nx - 1, grid.nr - 1))
    grad = assemble_gradient(cell_state(psi, grid, GAS), grid)
    # boundary entries are projected out
    assert np.abs(grad[0, :]).max() == 0.0
    assert np.abs(grad[:, -1]).max() == 0.0
    eps = 1e-7
    for _ in range(12):
        v = np.zeros(grid.shape)
        v[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.nr - 1))
        fd = (assemble_energy(cell_state(psi + eps * v, grid, GAS), grid)
              - assemble_energy(cell_state(psi - eps * v, grid, GAS), grid)) / (2.0 * eps)
        exact = float((grad * v).sum())
        assert fd == pytest.approx(exact, rel=2e-6, abs=1e-10)


def band_to_sparse(band):
    """Symmetric matrix of a LAPACK upper band, entry (p, q) at band[w + p - q, q]."""
    width, n = band.shape[0] - 1, band.shape[1]
    offsets = [k for k in range(width + 1) if k < n]
    upper = sp.diags([band[width - k, k:] for k in offsets], offsets, shape=(n, n))
    return (upper + sp.triu(upper, 1).T).tocsc()


def band_to_dense(band):
    return band_to_sparse(band).toarray()


def reference_hessian(psi, grid):
    """Dense Hessian summed cell by cell from full 4x4 corner blocks."""
    state = cell_state(psi, grid, GAS)
    prime = state.coenergy.prime.reshape(state.s.shape)
    second = state.coenergy.second.reshape(state.s.shape)
    coef_x, coef_r = grid.corner_coefficients

    def unknown(i, j):
        if 0 < i < grid.nx and 0 < j < grid.nr:
            return (i - 1) * (grid.nr - 1) + (j - 1)
        return None

    ndof = (grid.nx - 1) * (grid.nr - 1)
    dense = np.zeros((ndof, ndof))
    for i in range(grid.nx):
        for j in range(grid.nr):
            a, b = coef_x[:, i, j], coef_r[:, i, j]
            proj = state.psi_x[i, j] * a + state.psi_r[i, j] * b
            w1 = 2.0 * grid.measure[i, j] * prime[i, j] / grid.r_shield[i, j]
            w2 = 4.0 * grid.measure[i, j] * second[i, j] / grid.r_shield[i, j] ** 3
            block = w1 * (np.outer(a, a) + np.outer(b, b)) + w2 * np.outer(proj, proj)
            corners = [unknown(i, j), unknown(i + 1, j), unknown(i, j + 1), unknown(i + 1, j + 1)]
            for k, p in enumerate(corners):
                for l, q in enumerate(corners):
                    if p is not None and q is not None:
                        dense[p, q] += block[k, l]
    return dense


def energy_second_difference(psi, v, grid, eps):
    def energy(phi):
        return assemble_energy(cell_state(phi, grid, GAS), grid)

    return (energy(psi + eps * v) - 2.0 * energy(psi) + energy(psi - eps * v)) / eps**2


def energy_second_derivative(psi, v, grid):
    """Richardson extrapolation of the second difference along v.

    The step gives eps * v a momentum of at most 1e-2, also next to the axis
    of a coarse grid, so the O(eps^4) error stays far below the tolerance.
    """
    eps = 1e-2 / np.sqrt(cell_state(v, grid, GAS).s.max())
    coarse = energy_second_difference(psi, v, grid, eps)
    fine = energy_second_difference(psi, v, grid, 0.5 * eps)
    return (4.0 * fine - coarse) / 3.0


def test_hessian_symmetric_and_positive_definite():
    # only the upper band is stored, so symmetry holds by construction; the
    # stored entries must match the full cell blocks
    grid = cylinder_grid(nx=12, nr=8, delta=0.08, length=1.5)
    rng = np.random.default_rng(11)
    psi = shielded_quadratic(grid, 0.6)
    psi[1:-1, 1:-1] += 0.01 * rng.standard_normal((grid.nx - 1, grid.nr - 1))
    band = assemble_hessian(cell_state(psi, grid, GAS), grid)
    assert band.shape == (grid.nr + 1, (grid.nx - 1) * (grid.nr - 1))
    dense = band_to_dense(band)
    reference = reference_hessian(psi, grid)
    assert np.abs(dense - reference).max() <= 1e-13 * np.abs(reference).max()
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.min() > 0.0


def test_hessian_into_a_used_buffer_equals_a_fresh_band():
    # a reused factor holds stale values; assembly must overwrite every entry
    grid = tanh_grid(12, 6)
    rng = np.random.default_rng(29)
    psi = shielded_quadratic(grid, 0.2)
    psi[1:-1, 1:-1] *= 1.0 + 0.05 * rng.standard_normal((grid.nx - 1, grid.nr - 1))
    state = cell_state(psi, grid, GAS)
    fresh = assemble_hessian(state, grid)
    stale = np.full_like(fresh, np.nan, order="F")
    band = assemble_hessian(state, grid, out=stale)
    assert band is stale
    assert band.tobytes() == fresh.tobytes()


def test_hessian_is_second_derivative_of_energy():
    grid = cylinder_grid(nx=8, nr=6, delta=0.1, length=1.0)
    rng = np.random.default_rng(3)
    psi = shielded_quadratic(grid, 0.5)
    matrix = band_to_sparse(assemble_hessian(cell_state(psi, grid, GAS), grid))
    for _ in range(8):
        v = np.zeros(grid.shape)
        v[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.nr - 1))
        v_int = v[1:-1, 1:-1].ravel()
        fd = energy_second_difference(psi, v, grid, 1e-5)
        quad = float(v_int @ (matrix @ v_int))
        assert fd == pytest.approx(quad, rel=5e-5, abs=1e-9)


WALLS = st.one_of(
    st.builds(lambda a, ell: make_profile("tanh_step", a=a, ell=ell),
              st.floats(0.5, 1.0), st.floats(0.5, 3.0)),
    st.builds(lambda h, w: make_profile("bump", a0=1.0, h=h, w=w),
              st.floats(-0.3, 0.3), st.floats(1.0, 2.0)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(profile=WALLS, nx=st.integers(2, 10), nr=st.integers(2, 10),
       delta=st.floats(0.0, 0.1), flux=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_band_hessian_matches_cell_blocks(profile, nx, nr, delta, flux, seed):
    # every coupling of the band (the (i+1, j-1) one included) sits where the
    # cell blocks put it, and none of a boundary node wraps into another station
    grid = build_grid(profile, length=3.0, nx=nx, nr=nr, delta=delta)
    m = 0.25 * flux * grid.f_nodes.min() ** 2  # about half the critical flux at most
    rng = np.random.default_rng(seed)
    psi = m * grid.sigma[None, :] ** 2 * np.ones((nx + 1, 1))
    psi[1:-1, 1:-1] *= 1.0 + 0.05 * rng.standard_normal((nx - 1, nr - 1))
    band = assemble_hessian(cell_state(psi, grid, GAS), grid)
    reference = reference_hessian(psi, grid)
    assert np.abs(band_to_dense(band) - reference).max() <= 1e-13 * np.abs(reference).max()

    v = np.zeros(grid.shape)
    v[1:-1, 1:-1] = rng.standard_normal((nx - 1, nr - 1))
    v_int = v[1:-1, 1:-1].ravel()
    quad = float(v_int @ (band_to_sparse(band) @ v_int))
    fd = energy_second_derivative(psi, v, grid)
    assert fd == pytest.approx(quad, rel=1e-6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(profile=WALLS, gamma=st.floats(1.0, 3.0, exclude_min=True),
       m_tilde=st.floats(0.9, 0.99), f=st.floats(0.05, 0.3))
def test_max_mach_nondecreasing_in_flux(profile, gamma, m_tilde, f):
    # three subcritical fluxes m0 = f pi b^2, 1.5 f pi b^2 and 2 f pi b^2;
    # psi keeps within its boundary values to the tolerance of criterion 03
    assume(gamma - 1.0 >= np.sqrt(np.finfo(float).eps))  # GasModel refuses the rest
    gas = GasModel(gamma=gamma, m_tilde=m_tilde)
    grid = build_grid(profile, length=8.0, nx=24, nr=6)
    machs = []
    for scale in (1.0, 1.5, 2.0):
        m = 0.5 * scale * f * profile.b**2
        sol = newton_solve(grid, gas, m)
        assert sol.converged and not sol.cutoff_active
        slack = 1e-10 * max(1.0, m)
        assert sol.psi.min() >= -slack and sol.psi.max() <= m + slack
        machs.append(float(velocity_from_stream(sol, gas).mach.max()))
    assert machs[0] <= machs[1] <= machs[2], machs


@settings(max_examples=120, deadline=None, derandomize=True)
@given(profile=WALLS, gamma=st.floats(1.0, 3.0, exclude_min=True),
       m_tilde=st.floats(0.9, 0.99), nx=st.sampled_from([16, 24, 32]),
       delta=st.sampled_from([0.0, 1e-6, 1e-2]), f=st.floats(0.0, 0.7))
def test_maximum_principle_barrier_and_station_flux(profile, gamma, m_tilde, nx, delta, f):
    # a flux below the discrete throat bound gives a certified flow with
    # 0 <= psi <= m, under criterion 03's quadratic barrier, whose station
    # fluxes keep m0 to second order in the mesh (the default flux_drift
    # gate of 1e-3 needs finer grids than these)
    assume(gamma - 1.0 >= np.sqrt(np.finfo(float).eps))  # GasModel refuses the rest
    gas = GasModel(gamma=gamma, m_tilde=m_tilde)
    grid = build_grid(profile, length=8.0, nx=nx, nr=nx // 4, delta=delta)
    bound = np.pi * m_tilde * float((grid.fc * (grid.fc + 2.0 * grid.delta)).min())
    m = f * bound / (2.0 * np.pi)
    sol = newton_solve(grid, gas, m)
    assert sol.converged and not sol.cutoff_active
    assert sol.psi.min() >= -1e-10 * max(1.0, m) and sol.psi.max() <= m + 1e-10 * max(1.0, m)
    barrier = m * (grid.r_nodes + grid.delta) ** 2 / profile.b**2
    assert (sol.psi - barrier).max() <= 10.0 * grid.h_max**2
    assert flux_drift(velocity_from_stream(sol, gas)) <= 0.05 * grid.h_max**2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(profile=WALLS, gamma=st.floats(1.0, 3.0, exclude_min=True),
       m_tilde=st.floats(0.9, 0.99), nx=st.sampled_from([16, 24, 32]),
       delta=st.sampled_from([0.0, 1e-2]), f=st.floats(0.0, 0.7),
       source=st.sampled_from(["flux", "delta", "gas"]), other=st.floats(0.0, 1.0))
def test_solve_from_a_foreign_factor_matches_cold_solve(profile, gamma, m_tilde, nx, delta,
                                                         f, source, other):
    # a donor solve at another flux, shield or gas hands its psi (rescaled to
    # the flux) and its Cholesky factor to the solve, as the continuation
    # routines do.  Any SPD factor gives descent directions, so the solve is
    # certified like the cold one; two points whose gradients are within tol
    # of zero lie within 2 tol / lambda_min of each other in the 2-norm, with
    # lambda_min the least Hessian eigenvalue, and twice that allows for the
    # Hessian varying between them.  From another shield the full chord step
    # often fails the Armijo test, so this also covers factoring again.
    assume(gamma - 1.0 >= np.sqrt(np.finfo(float).eps))  # GasModel refuses the rest
    gas = GasModel(gamma=gamma, m_tilde=m_tilde)
    grid = build_grid(profile, length=8.0, nx=nx, nr=nx // 4, delta=delta)
    bound = np.pi * m_tilde * float((grid.fc * (grid.fc + 2.0 * grid.delta)).min())
    m = f * bound / (2.0 * np.pi)
    if source == "flux":
        donor = newton_solve(grid, gas, 0.7 * other * bound / (2.0 * np.pi))
    elif source == "delta":
        donor = newton_solve(grid.with_delta(0.5 * other * profile.b), gas, m)
    else:
        donor = newton_solve(grid, GasModel(gamma=1.05 + other, m_tilde=0.9 + 0.09 * other), m)
    init = donor.psi * (m / donor.m) if donor.m > 0.0 else None
    warm = newton_solve(grid, gas, m, init=init, factor=donor.factor)
    cold = newton_solve(grid, gas, m)
    assert warm.converged and cold.converged and not warm.cutoff_active
    assert warm.factorizations <= warm.iterations
    tol = 1e-10 * max(1.0, m)
    hessian = assemble_hessian(cell_state(cold.psi, grid, gas), grid)
    lambda_min = np.linalg.eigvalsh(band_to_dense(hessian)).min()
    assert np.linalg.norm(warm.psi - cold.psi) <= 4.0 * tol / lambda_min


def test_newton_solve_rejects_factor_of_another_shape():
    grid = tanh_grid(8, 4)
    for nx, nr in ((8, 5), (9, 4)):  # another band width, another number of unknowns
        factor = newton_solve(tanh_grid(nx, nr), GAS, 0.1).factor
        assert factor is not None
        with pytest.raises(ValueError, match="factor shape"):
            newton_solve(grid, GAS, 0.1, factor=factor)


def cold_tanh_system(nx, nr, m=0.25):
    """Hessian band and Newton right-hand side at the default start, the datum."""
    grid = tanh_grid(nx, nr)
    psi = _datum(grid, m)
    rhs = -assemble_gradient(cell_state(psi, grid, GAS), grid)[1:-1, 1:-1].ravel()
    return assemble_hessian(cell_state(psi, grid, GAS), grid), rhs


@pytest.mark.parametrize("nx, nr", [(128, 32), (2, 2), (2, 9), (9, 2)])
def test_banded_cholesky_matches_sparse_direct_solve(nx, nr):
    # nr = 2 leaves one unknown per station (a diagonal band), nx = 2 one station
    band, rhs = cold_tanh_system(nx, nr)
    expected = spla.spsolve(band_to_sparse(band), rhs)
    step = _back_solve(_cholesky(band), rhs)
    assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)


def test_linear_solve_rejects_indefinite_matrix():
    band, rhs = cold_tanh_system(8, 6)
    band[-1] -= band[-1].mean()  # shift the diagonal
    eigvals = np.linalg.eigvalsh(band_to_dense(band))
    assert eigvals.min() < 0.0 < eigvals.max()
    with pytest.raises(LinearSolveError):
        _back_solve(_cholesky(band), rhs)


def test_linear_solve_rejects_non_finite_matrix():
    band, rhs = cold_tanh_system(8, 6)
    band[-1, 3] = np.nan
    with pytest.raises(LinearSolveError):
        _back_solve(_cholesky(band), rhs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_linear_solve_rejects_non_finite_band_entries(value):
    # _cholesky scans only the factor's diagonal: a bad entry in any band row
    # assemble_hessian writes (offsets nr, nr-1, nr-2, 1, 0) must still reach it
    band, _ = cold_tanh_system(8, 6)
    nr = band.shape[0] - 1
    for row in (0, 1, 2, nr - 1, nr):
        for column in (nr, 13, 20, band.shape[1] - 1):
            bad = band.copy(order="F")
            bad[row, column] = value
            with pytest.raises(LinearSolveError):
                _cholesky(bad)


def test_linear_solve_rejects_non_finite_rhs():
    band, rhs = cold_tanh_system(8, 6)
    rhs[5] = np.inf
    with pytest.raises(LinearSolveError):
        _back_solve(_cholesky(band), rhs)


def test_band_is_factored_in_place():
    # a Fortran-ordered band is what LAPACK reads, so no copy is made per Newton step
    band, rhs = cold_tanh_system(16, 6)
    assert band.flags.f_contiguous
    diagonal = band[-1].copy()
    _back_solve(_cholesky(band), rhs)
    # the factor overwrote the band: its first pivot is the square root of a_00
    assert band[-1, 0] == np.sqrt(diagonal[0])
    assert not np.array_equal(band[-1], diagonal)


def test_cylinder_solved_exactly_with_matching_datum():
    # the shielded quadratic is a discrete critical point and the default
    # datum, so a default solve starts on it and takes no step at any shield
    for nx, nr, a, delta in ((48, 16, 1.0, 0.0), (48, 16, 1.0, 1e-6),
                             (48, 12, 0.8, 0.0125), (24, 8, 1.0, 0.05)):
        grid = cylinder_grid(nx=nx, nr=nr, a=a, delta=delta)
        m = 0.4 * a**2
        sol = newton_solve(grid, GAS, m)
        assert sol.converged and sol.iterations == 0
        assert np.abs(sol.psi - shielded_quadratic(grid, m)).max() < 1e-12 * max(1.0, m)


def test_cylinder_default_datum_small_shield():
    # with delta tiny the default datum and the shielded quadratic differ
    # by O(delta), so the solve stays that close to m sigma^2
    grid = cylinder_grid(nx=48, nr=16, delta=1e-6)
    m = 0.3
    sol = newton_solve(grid, GAS, m)
    flat = m * grid.sigma[None, :] ** 2 * np.ones((grid.nx + 1, 1))
    assert sol.converged
    assert np.abs(sol.psi - flat).max() < 50.0 * grid.delta


def test_solution_is_energy_minimizer():
    grid = cylinder_grid(nx=20, nr=10, delta=0.05, length=2.0)
    sol = newton_solve(grid, GAS, 0.45)
    base = assemble_energy(cell_state(sol.psi, grid, GAS), grid)
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = np.zeros(grid.shape)
        v[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.nr - 1))
        v *= 1e-3 / np.abs(v).max()
        assert assemble_energy(cell_state(sol.psi + v, grid, GAS), grid) > base


def test_energy_history_decreases():
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    grid = build_grid(prof, length=8.0, nx=64, nr=16, delta=1e-4)
    sol = newton_solve(grid, GAS, 0.28)
    assert sol.converged
    hist = np.array(sol.energy_history)
    assert len(hist) >= 2
    # decrease is monotone up to rounding; the final steps sit at the
    # floating point floor of the energy
    assert np.all(np.diff(hist) <= 4.0 * np.finfo(float).eps * abs(hist[0]))
    assert sol.iterations <= 12


def test_newton_takes_full_step_below_energy_rounding():
    # after one step the predicted decrease sits below the energy's
    # rounding; energy backtracking alone then accepts roundoff-size steps
    # for all 50 iterations, stalling at gradient 5.1e-9, and the
    # derivative form of Armijo accepts the full step instead
    grid = tanh_grid(16, 4)
    sol = newton_solve(grid, GAS, 0.0475 * grid.profile.b**2)
    assert sol.converged and sol.iterations <= 3


def test_no_two_consecutive_gradients_share_a_cell_state(monkeypatch):
    # the derivative form of Armijo assembles the gradient at the point it
    # accepts, and newton_solve steps on from that gradient instead of
    # assembling it again; the solve of the test above accepts such a step
    states, accepted = [], []
    armijo = solver._armijo_by_derivative

    def recording(state, grid):
        states.append(state)
        return assemble_gradient(state, grid)

    def recording_armijo(*args):
        grad = armijo(*args)
        accepted.append(grad is not None)
        return grad

    monkeypatch.setattr(solver, "assemble_gradient", recording)
    monkeypatch.setattr(solver, "_armijo_by_derivative", recording_armijo)
    grid = tanh_grid(16, 4)
    sol = newton_solve(grid, GAS, 0.0475 * grid.profile.b**2)
    assert sol.converged and any(accepted)
    assert all(a is not b for a, b in zip(states, states[1:]))


def test_independent_starts_agree():
    grid = cylinder_grid(nx=32, nr=12, delta=0.02)
    m = 0.5
    a = newton_solve(grid, GAS, m)
    rng = np.random.default_rng(5)
    init = m * grid.sigma[None, :] ** 2 * np.ones((grid.nx + 1, 1))
    init[1:-1, 1:-1] += 0.05 * rng.standard_normal((grid.nx - 1, grid.nr - 1))
    b = newton_solve(grid, GAS, m, init=init)
    assert a.converged and b.converged
    assert np.abs(a.psi - b.psi).max() < 1e-8


def test_maximum_principle_and_barrier():
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    grid = build_grid(prof, length=12.0, nx=96, nr=24, delta=1e-6)
    m = 0.25
    sol = newton_solve(grid, GAS, m)
    assert sol.converged
    assert sol.psi.min() >= -1e-12
    assert sol.psi.max() <= m + 1e-12
    barrier = m * (grid.r_nodes + grid.delta) ** 2 / prof.b**2
    assert float((sol.psi - barrier).max()) <= 10.0 * grid.h_max**2


def test_gradient_vanishes_at_solution():
    grid = cylinder_grid(nx=32, nr=12, delta=0.02)
    sol = newton_solve(grid, GAS, 0.5)
    grad = assemble_gradient(cell_state(sol.psi, grid, GAS), grid)
    assert np.sqrt((grad**2).sum()) <= 1e-10 * max(1.0, 0.5) * 1.001


def test_cutoff_flag_set_past_onset():
    grid = cylinder_grid(nx=32, nr=12, a=1.0, delta=1e-6)
    # momentum cutoff engages once rho U crosses m_tilde: m = m_tilde / 2
    sub = newton_solve(grid, GAS, 0.4)
    assert not sub.cutoff_active
    hot = newton_solve(grid, GAS, 0.5 * 1.02)
    assert hot.cutoff_active


def test_cutoff_flag_covers_the_off_axis_nodes():
    # above this coarse bump's critical flux every cell stays below s_lo,
    # but wall nodes, whose gradient is one-sided, pass it; the peak is
    # the squared momentum (rho q)^2 of the off-axis nodes of the field
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.2, w=1.0), length=8.0, nx=24, nr=6)
    sol = newton_solve(grid, GAS, 1.85 / (2.0 * np.pi))
    assert sol.converged and sol.cutoff_active
    assert cell_state(sol.psi, grid, GAS).s.max() <= GAS.s_lo < sol.max_momentum_sq
    flow = velocity_from_stream(sol, GAS)
    nodal = ((flow.rho * flow.q)[:, 1:] ** 2).max()
    assert nodal == pytest.approx(sol.max_momentum_sq, rel=1e-12)


@pytest.mark.parametrize("m", [np.float64(0.4), np.float64(1.5)])
def test_solution_flags_are_bool(m):
    # mass_flux_sweep passes numpy fluxes; above m = 1 the default tol
    # 1e-10 max(1, m) is then a numpy scalar too
    sol = newton_solve(cylinder_grid(nx=16, nr=6, delta=1e-6), GAS, m)
    assert sol.cutoff_active == (m > 0.5)
    assert type(sol.converged) is bool and type(sol.cutoff_active) is bool


def test_one_gas_evaluation_per_energy_evaluation(monkeypatch):
    # the cells of the accepted line-search trial also feed the next gradient
    # and Hessian, so with full Newton steps every evaluation is an energy
    # one, made by the public assemble_energy
    calls, energies = [], []
    evaluate = GasModel._evaluate

    def counting(self, s, name):
        calls.append(name)
        return evaluate(self, s, name)

    def counting_energy(state, grid):
        energies.append(state)
        return assemble_energy(state, grid)

    monkeypatch.setattr(GasModel, "_evaluate", counting)
    monkeypatch.setattr(solver, "assemble_energy", counting_energy)
    sol = newton_solve(tanh_grid(48, 12), GAS, 0.1)
    assert sol.converged and sol.iterations >= 2
    assert len(calls) == len(sol.energy_history) == 1 + sol.iterations
    assert len(energies) == len(calls)


def test_pde_residual_machine_small_on_cylinder():
    # the strong residual of the stream-function equation is the
    # irrotationality residual; the datum solves the discrete pipe problem
    # exactly, so it is rounding
    grid = cylinder_grid(nx=48, nr=16, delta=0.05)
    sol = newton_solve(grid, GAS, 0.4)
    assert irrotationality_residual(velocity_from_stream(sol, GAS)).max < 1e-10


def run_fresh(code):
    """Standard output of code run by a new interpreter that imports from src."""
    path = os.pathsep.join(filter(None, (str(Path(__file__).parents[1] / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout


def test_lapack_routines_are_scipy_linalg_lapack_routines():
    # the solver loads _flapack from its file first; scipy.linalg, imported
    # afterwards, must hand out the very same routines
    out = run_fresh("from axinozzle.solver import lapack\n"
                    "from scipy.linalg import lapack as scipy_lapack\n"
                    "print(lapack.dpbtrf is scipy_lapack.dpbtrf, lapack.dpbtrs is scipy_lapack.dpbtrs)")
    assert out.split() == ["True", "True"]


def test_cli_solve_leaves_scipy_linalg_unimported(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[nozzle]\nkind = cylinder\na = 1.0\nlength = 4\n"
                      "[grid]\nnx = 24\nnr = 8\n[flux]\nm0 = 1.0\n")
    out = run_fresh("import sys, axinozzle.cli\n"
                    f"code = axinozzle.cli.main(['solve', '--config', {str(config)!r}, "
                    f"'--out', {str(tmp_path / 'out')!r}])\n"
                    "print(code, 'scipy.linalg' in sys.modules)")
    assert out.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "field.csv").exists()
