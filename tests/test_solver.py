"""Energy assembly, Newton solves, and discrete structure of the scheme.

The cylinder is the workhorse: with the shield included in the datum the
discrete problem is solved exactly by a quadratic in r + delta, which
pins the assembly, the linear algebra, and the nonlinear loop all at
machine precision.  The curved-wall cases are checked through structure
(symmetry, convexity, minimality, maximum principle) and through the
decay of the strong-form residual under refinement.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from axinozzle import (
    GasModel,
    LinearSolveError,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
    build_grid,
    dirichlet_data,
    make_profile,
    newton_solve,
    pde_residual,
)
from axinozzle.solver import _dof_map, _solve_spd, apply_boundary

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


def quadratic_bc(m, a, d):
    def bc(x, r):
        return m * ((r + d) ** 2 - d**2) / ((a + d) ** 2 - d**2)
    return bc


def test_dirichlet_data():
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    x = np.linspace(-4.0, 4.0, 9)
    wall = prof.wall(x)
    assert np.abs(dirichlet_data(x, wall, 0.7, prof) - 0.7).max() < 1e-14
    assert np.abs(dirichlet_data(x, 0.0 * x, 0.7, prof)).max() == 0.0
    mid = dirichlet_data(0.0, prof.wall(0.0) / 2.0, 0.7, prof)
    assert mid == pytest.approx(0.7 / 4.0)
    with pytest.raises(ValueError):
        dirichlet_data(0.0, prof.wall(0.0) * 1.5, 0.7, prof)


def test_zero_flux_solution_is_zero():
    grid = cylinder_grid()
    sol = newton_solve(grid, GAS, 0.0)
    assert sol.converged
    assert np.abs(sol.psi).max() == 0.0
    assert sol.energy == 0.0


def test_energy_positive_and_scaled():
    grid = cylinder_grid(delta=0.0)
    psi = apply_boundary(np.zeros(grid.shape), grid, 0.4)
    psi[1:-1, 1:-1] = shielded_quadratic(grid, 0.4)[1:-1, 1:-1]
    value = assemble_energy(psi, grid, GAS)
    assert value > 0.0
    # doubling the state increases the convex energy more than linearly
    assert assemble_energy(2.0 * psi, grid, GAS) > 2.0 * value


def test_gradient_matches_finite_differences():
    grid = cylinder_grid(nx=10, nr=6, delta=0.1, length=1.0)
    rng = np.random.default_rng(7)
    psi = apply_boundary(np.zeros(grid.shape), grid, 0.5)
    psi[1:-1, 1:-1] = shielded_quadratic(grid, 0.5)[1:-1, 1:-1]
    psi[1:-1, 1:-1] += 0.02 * rng.standard_normal((grid.nx - 1, grid.nr - 1))
    grad = assemble_gradient(psi, grid, GAS)
    # boundary entries are projected out
    assert np.abs(grad[0, :]).max() == 0.0
    assert np.abs(grad[:, -1]).max() == 0.0
    eps = 1e-7
    for _ in range(12):
        v = np.zeros(grid.shape)
        v[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.nr - 1))
        fd = (assemble_energy(psi + eps * v, grid, GAS)
              - assemble_energy(psi - eps * v, grid, GAS)) / (2.0 * eps)
        exact = float((grad * v).sum())
        assert fd == pytest.approx(exact, rel=2e-6, abs=1e-10)


def test_hessian_symmetric_and_positive_definite():
    grid = cylinder_grid(nx=12, nr=8, delta=0.08, length=1.5)
    rng = np.random.default_rng(11)
    psi = apply_boundary(np.zeros(grid.shape), grid, 0.6)
    psi[1:-1, 1:-1] = shielded_quadratic(grid, 0.6)[1:-1, 1:-1]
    psi[1:-1, 1:-1] += 0.01 * rng.standard_normal((grid.nx - 1, grid.nr - 1))
    matrix = assemble_hessian(psi, grid, GAS)
    dense = matrix.toarray()
    assert np.abs(dense - dense.T).max() == 0.0
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.min() > 0.0


def test_hessian_is_second_derivative_of_energy():
    grid = cylinder_grid(nx=8, nr=6, delta=0.1, length=1.0)
    rng = np.random.default_rng(3)
    psi = apply_boundary(np.zeros(grid.shape), grid, 0.5)
    psi[1:-1, 1:-1] = shielded_quadratic(grid, 0.5)[1:-1, 1:-1]
    matrix = assemble_hessian(psi, grid, GAS)
    dof, _, ndof = _dof_map(grid)
    for _ in range(8):
        v = np.zeros(grid.shape)
        v[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.nr - 1))
        v_dof = np.zeros(ndof)
        v_dof[dof[dof >= 0]] = v[dof >= 0]
        eps = 1e-5
        j0 = assemble_energy(psi, grid, GAS)
        jp = assemble_energy(psi + eps * v, grid, GAS)
        jm = assemble_energy(psi - eps * v, grid, GAS)
        fd = (jp - 2.0 * j0 + jm) / eps**2
        quad = float(v_dof @ (matrix @ v_dof))
        assert fd == pytest.approx(quad, rel=5e-5, abs=1e-9)


def cold_tanh_system(nx, nr, m=0.25):
    """Hessian and Newton right-hand side at the default start m sigma^2."""
    grid = build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=8.0,
                      nx=nx, nr=nr, delta=1e-6)
    psi = apply_boundary(m * np.broadcast_to(grid.sigma[None, :] ** 2, grid.shape), grid, m)
    rhs = -assemble_gradient(psi, grid, GAS)[1:-1, 1:-1].ravel()
    return assemble_hessian(psi, grid, GAS), rhs


@pytest.mark.parametrize("nx, nr", [(128, 32), (2, 2), (2, 9), (9, 2)])
def test_banded_cholesky_matches_sparse_direct_solve(nx, nr):
    # nr = 2 leaves one unknown per station (a diagonal band), nx = 2 one station
    matrix, rhs = cold_tanh_system(nx, nr)
    expected = spla.spsolve(matrix.tocsc(), rhs)
    step = _solve_spd(matrix, rhs)
    assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)


def test_linear_solve_rejects_indefinite_matrix():
    matrix, rhs = cold_tanh_system(8, 6)
    shifted = matrix - matrix.diagonal().mean() * sp.identity(matrix.shape[0], format="csr")
    eigvals = np.linalg.eigvalsh(shifted.toarray())
    assert eigvals.min() < 0.0 < eigvals.max()
    with pytest.raises(LinearSolveError):
        _solve_spd(shifted.tocsr(), rhs)


def test_linear_solve_rejects_non_finite_matrix():
    matrix, rhs = cold_tanh_system(8, 6)
    poison = np.zeros(matrix.shape[0])
    poison[3] = np.nan
    with pytest.raises(LinearSolveError):
        _solve_spd((matrix + sp.diags(poison)).tocsr(), rhs)


def test_cylinder_solved_exactly_with_matching_datum():
    # the shielded quadratic is a discrete critical point, so Newton must
    # reproduce it to rounding at any resolution
    for nx, nr, a, delta in ((24, 8, 1.0, 0.05), (48, 12, 0.8, 0.0125)):
        grid = cylinder_grid(nx=nx, nr=nr, a=a, delta=delta)
        m = 0.4 * a**2
        sol = newton_solve(grid, GAS, m, bc=quadratic_bc(m, a, delta))
        exact = shielded_quadratic(grid, m)
        assert sol.converged
        assert np.abs(sol.psi - exact).max() < 1e-12 * max(1.0, m)


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
    base = assemble_energy(sol.psi, grid, GAS)
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = np.zeros(grid.shape)
        v[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.nr - 1))
        v *= 1e-3 / np.abs(v).max()
        assert assemble_energy(sol.psi + v, grid, GAS) > base


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
    grad = assemble_gradient(sol.psi, grid, GAS)
    assert np.sqrt((grad**2).sum()) <= 1e-10 * max(1.0, 0.5) * 1.001


def test_cutoff_flag_set_past_onset():
    grid = cylinder_grid(nx=32, nr=12, a=1.0, delta=1e-6)
    # momentum cutoff engages once rho U crosses m_tilde: m = m_tilde / 2
    sub = newton_solve(grid, GAS, 0.4)
    assert not sub.cutoff_active
    hot = newton_solve(grid, GAS, 0.5 * 1.02)
    assert hot.cutoff_active


def test_pde_residual_machine_small_on_cylinder():
    grid = cylinder_grid(nx=48, nr=16, delta=0.05)
    m = 0.4
    sol = newton_solve(grid, GAS, m, bc=quadratic_bc(m, 1.0, 0.05))
    res = pde_residual(sol, GAS)
    assert res.max < 1e-10


def test_pde_residual_decays_under_refinement():
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    norms = []
    for nx, nr in ((96, 24), (192, 48)):
        grid = build_grid(prof, length=12.0, nx=nx, nr=nr, delta=1e-6)
        sol = newton_solve(grid, GAS, 0.25)
        assert sol.converged
        norms.append(pde_residual(sol, GAS).l2)
    assert norms[1] < 0.35 * norms[0]


def test_apply_boundary_custom_callable():
    grid = cylinder_grid(nx=8, nr=4, delta=0.1, length=1.0)
    marker = apply_boundary(np.full(grid.shape, -1.0), grid, 0.3,
                            bc=lambda x, r: x + 10.0 * r)
    assert marker[0, 2] == pytest.approx(-1.0 + 10.0 * grid.r_nodes[0, 2] + 0.0)
    # interior untouched
    assert np.all(marker[1:-1, 1:-1] == -1.0)
