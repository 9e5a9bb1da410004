"""Variational solver for the shielded stream-function problem.

The stream function psi of a steady axially symmetric flow satisfies

    div( Htilde(|grad psi / (r + delta)|^2)^(-1) grad psi / (r + delta) ) = 0

with psi = 0 on the axis, psi = m on the wall, and the datum
psi = m r^2 / f(x)^2 on the truncated ends x = +-L.  Solutions are the
minimizers of the strictly convex energy

    J(phi) = integral F(|grad phi / (r + delta)|^2) (r + delta) dx dr

where F is the gas model's coenergy.  delta > 0 shields the axis
singularity of 1/r; delta = 0 is reached by continuation, not directly.

Discretization: bilinear elements on the mapped tensor grid with one
midpoint quadrature point per cell.  Energy, gradient, and Hessian are
exact derivatives of the same discrete functional, so the Hessian is
symmetric positive definite and damped Newton iterations converge
globally.  The unknown numbering i*(nr-1)+j makes the Hessian banded with
half-width nr, so each Newton system is solved exactly by one banded
Cholesky factorization (LAPACK pbtrf); a failed factorization means the
Hessian is not SPD and raises LinearSolveError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from .gas import GasModel
from .nozzle import MappedGrid, NozzleProfile

_ARMIJO_SLOPE = 1e-4

# corner order per cell: SW, SE, NW, NE
_CXI = np.array([-1.0, 1.0, -1.0, 1.0])
_CSG = np.array([-1.0, -1.0, 1.0, 1.0])


class ResidualNorms(NamedTuple):
    max: float
    l2: float  # root mean square over the evaluated interior nodes


@dataclass
class StreamSolution:
    """Converged (or flagged) discrete minimizer with solver metadata."""

    grid: MappedGrid
    psi: np.ndarray
    m: float
    energy: float
    grad_norm: float
    iterations: int
    cutoff_active: bool
    converged: bool
    max_momentum_sq: float
    energy_history: list = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.grid.delta


def dirichlet_data(x, r, m, profile: NozzleProfile):
    """Boundary datum m r^2 / f(x)^2 (0 on the axis, m on the wall)."""
    if m < 0.0:
        raise ValueError("dirichlet_data: m must be >= 0")
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    f = np.asarray(profile.wall(x))
    if np.any(r < 0.0) or np.any(r > f * (1.0 + 1e-12) + 1e-15):
        raise ValueError("dirichlet_data: point outside the nozzle")
    out = m * np.asarray(r, dtype=float) ** 2 / f**2
    return float(out) if out.ndim == 0 else out


def _geometry(grid: MappedGrid):
    """Per-cell derivative coefficients for the four corner values (cached)."""
    cache = getattr(grid, "_assembly_cache", None)
    if cache is not None:
        return cache
    beta = (grid.fpc / grid.fc)[:, None] * grid.sc[None, :]  # sigma f'/f at centers
    cxi = _CXI / (2.0 * grid.dxi)
    csg = _CSG / (2.0 * grid.dsigma)
    # coef_x[k] = d psi_x / d psi_corner_k, coef_r[k] likewise, shape (4, nx, nr)
    coef_x = cxi[:, None, None] - beta[None, :, :] * csg[:, None, None]
    coef_r = np.broadcast_to(
        csg[:, None, None] / grid.fc[None, :, None], (4, grid.nx, grid.nr)
    ).copy()
    cache = (coef_x, coef_r)
    grid._assembly_cache = cache
    return cache


def _corner_views(psi):
    return psi[:-1, :-1], psi[1:, :-1], psi[:-1, 1:], psi[1:, 1:]


def _cell_gradients(psi, grid: MappedGrid):
    """Physical gradient components of the bilinear field at cell centers."""
    sw, se, nw, ne = _corner_views(psi)
    psi_xi = (se + ne - sw - nw) / (2.0 * grid.dxi)
    psi_sg = (nw + ne - sw - se) / (2.0 * grid.dsigma)
    beta = (grid.fpc / grid.fc)[:, None] * grid.sc[None, :]
    psi_x = psi_xi - beta * psi_sg
    psi_r = psi_sg / grid.fc[:, None]
    return psi_x, psi_r


def _momentum_sq(psi, grid: MappedGrid):
    psi_x, psi_r = _cell_gradients(psi, grid)
    return (psi_x**2 + psi_r**2) / grid.r_shield**2, psi_x, psi_r


def assemble_energy(psi, grid: MappedGrid, gas: GasModel) -> float:
    """Discrete energy: midpoint quadrature of F(|grad psi/(r+delta)|^2)(r+delta)."""
    s, _, _ = _momentum_sq(psi, grid)
    value = gas.coenergy(s.ravel()).reshape(s.shape)
    return float((grid.measure * value * grid.r_shield).sum())


def assemble_gradient(psi, grid: MappedGrid, gas: GasModel) -> np.ndarray:
    """Exact energy derivative w.r.t. interior nodal values (zero on boundary)."""
    s, psi_x, psi_r = _momentum_sq(psi, grid)
    prime = gas.coenergy_prime(s.ravel()).reshape(s.shape)
    w1 = 2.0 * grid.measure * prime / grid.r_shield
    gx = w1 * psi_x
    gr = w1 * psi_r
    coef_x, coef_r = _geometry(grid)
    grad = np.zeros_like(psi)
    grad[:-1, :-1] += gx * coef_x[0] + gr * coef_r[0]
    grad[1:, :-1] += gx * coef_x[1] + gr * coef_r[1]
    grad[:-1, 1:] += gx * coef_x[2] + gr * coef_r[2]
    grad[1:, 1:] += gx * coef_x[3] + gr * coef_r[3]
    grad[0, :] = grad[-1, :] = 0.0
    grad[:, 0] = grad[:, -1] = 0.0
    return grad


def _dof_map(grid: MappedGrid):
    cache = getattr(grid, "_dof_cache", None)
    if cache is not None:
        return cache
    nxn, nrn = grid.nx + 1, grid.nr + 1
    dof = -np.ones((nxn, nrn), dtype=np.int64)
    count = (grid.nx - 1) * (grid.nr - 1)
    dof[1:-1, 1:-1] = np.arange(count).reshape(grid.nx - 1, grid.nr - 1)
    ii, jj = np.meshgrid(np.arange(grid.nx), np.arange(grid.nr), indexing="ij")
    corners = np.stack(
        [
            dof[ii, jj].ravel(),
            dof[ii + 1, jj].ravel(),
            dof[ii, jj + 1].ravel(),
            dof[ii + 1, jj + 1].ravel(),
        ]
    )
    cache = (dof, corners, count)
    grid._dof_cache = cache
    return cache


def assemble_hessian(psi, grid: MappedGrid, gas: GasModel) -> sp.csr_matrix:
    """Exact second derivative on interior unknowns (symmetric positive definite)."""
    s, psi_x, psi_r = _momentum_sq(psi, grid)
    bundle = gas.coenergy_bundle(s.ravel())
    prime = bundle.prime.reshape(s.shape)
    second = bundle.second.reshape(s.shape)
    w1 = (2.0 * grid.measure * prime / grid.r_shield).ravel()
    w2 = (4.0 * grid.measure * second / grid.r_shield**3).ravel()
    coef_x, coef_r = _geometry(grid)
    ax = coef_x.reshape(4, -1)
    ar = coef_r.reshape(4, -1)
    proj = psi_x.ravel()[None, :] * ax + psi_r.ravel()[None, :] * ar  # (4, ncells)
    vals = (
        w1[None, None, :] * (ax[:, None, :] * ax[None, :, :] + ar[:, None, :] * ar[None, :, :])
        + w2[None, None, :] * proj[:, None, :] * proj[None, :, :]
    )
    _, corners, ndof = _dof_map(grid)
    rows = np.broadcast_to(corners[:, None, :], vals.shape)
    cols = np.broadcast_to(corners[None, :, :], vals.shape)
    keep = (rows >= 0) & (cols >= 0)
    matrix = sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(ndof, ndof)
    ).tocsr()
    # summation order across cells can differ between (i, j) and (j, i);
    # symmetrize exactly: the banded solve reads only the upper triangle
    return (matrix + matrix.T) * 0.5


class LinearSolveError(RuntimeError):
    pass


def _solve_spd(matrix: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Exact solve by banded Cholesky; raises LinearSolveError unless SPD."""
    upper = sp.triu(matrix, format="coo")
    width = int((upper.col - upper.row).max(initial=0))
    band = np.zeros((width + 1, matrix.shape[0]))  # LAPACK upper band storage
    band[width + upper.row - upper.col, upper.col] = upper.data
    try:
        factor = cholesky_banded(band, overwrite_ab=True)
        return cho_solve_banded((factor, False), rhs)
    except (LinAlgError, ValueError) as err:
        raise LinearSolveError(f"banded Cholesky of the Hessian failed: {err}") from err


def apply_boundary(psi: np.ndarray, grid: MappedGrid, m: float,
                   bc: Callable | None = None) -> np.ndarray:
    """Impose the Dirichlet values on all four edges of the node array."""
    psi = np.array(psi, dtype=float)
    if bc is None:
        edge = m * grid.sigma**2  # datum m r^2/f^2 in mapped coordinates
        psi[0, :] = edge
        psi[-1, :] = edge
        psi[:, 0] = 0.0
        psi[:, -1] = m
    else:
        psi[0, :] = bc(grid.x_nodes[0, :], grid.r_nodes[0, :])
        psi[-1, :] = bc(grid.x_nodes[-1, :], grid.r_nodes[-1, :])
        psi[:, 0] = bc(grid.x_nodes[:, 0], grid.r_nodes[:, 0])
        psi[:, -1] = bc(grid.x_nodes[:, -1], grid.r_nodes[:, -1])
    return psi


def newton_solve(grid: MappedGrid, gas: GasModel, m: float,
                 init: np.ndarray | None = None, tol: float | None = None,
                 max_iter: int = 50, bc: Callable | None = None) -> StreamSolution:
    """Minimize the discrete energy by damped Newton iteration.

    Parameters
    ----------
    grid : body-fitted grid (carries the profile and the axis shield).
    gas : gas model supplying the coenergy.
    m : stream-function wall value, m = m0 / (2 pi) for mass flux m0.
    init : optional starting field (boundary rows are overwritten with the
        Dirichlet values); default is the datum extension m * sigma^2.
    tol : gradient 2-norm target, default 1e-10 * max(1, m).
    bc : optional boundary datum callable (x, r) -> psi, replacing the
        default m r^2/f(x)^2 (used for manufactured-solution studies).

    Backtracking line search enforces energy decrease, so the energy
    history is nonincreasing.  A solution flagged cutoff_active touched
    momenta above the truncation threshold and is not a certified
    subsonic flow.
    """
    if m < 0.0:
        raise ValueError("newton_solve: m must be >= 0")
    if tol is None:
        tol = 1e-10 * max(1.0, m)
    if init is None:
        init = m * np.broadcast_to(grid.sigma[None, :] ** 2, grid.shape)
    elif init.shape != grid.shape:
        raise ValueError(f"newton_solve: init shape {init.shape} != grid {grid.shape}")
    psi = apply_boundary(init, grid, m, bc)

    energy = assemble_energy(psi, grid, gas)
    history = [energy]
    grad_norm = np.inf
    converged = False
    iterations = 0

    for _ in range(max_iter):
        grad = assemble_gradient(psi, grid, gas)
        grad_int = grad[1:-1, 1:-1].ravel()
        grad_norm = float(np.linalg.norm(grad_int))
        if grad_norm <= tol:
            converged = True
            break
        hess = assemble_hessian(psi, grid, gas)
        step_int = _solve_spd(hess, -grad_int)
        step = np.zeros_like(psi)
        step[1:-1, 1:-1] = step_int.reshape(grid.nx - 1, grid.nr - 1)
        slope = float(grad_int @ step_int)
        if slope >= 0.0:  # not a descent direction: fall back to steepest descent
            step[1:-1, 1:-1] = -grad_int.reshape(grid.nx - 1, grid.nr - 1)
            slope = -grad_norm**2

        if abs(slope) <= 10.0 * np.finfo(float).eps * max(abs(energy), 1.0):
            # predicted decrease is below energy resolution; take the full step
            psi = psi + step
            energy = assemble_energy(psi, grid, gas)
            history.append(energy)
            iterations += 1
            continue

        t = 1.0
        accepted = False
        for _ in range(45):
            trial = psi + t * step
            trial_energy = assemble_energy(trial, grid, gas)
            if trial_energy <= energy + _ARMIJO_SLOPE * t * slope:
                psi, energy = trial, trial_energy
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break  # energy floor reached; leave flagged by the gradient check
        history.append(energy)
        iterations += 1

    if not converged:  # re-measure after line-search exit or iteration cap
        grad = assemble_gradient(psi, grid, gas)
        grad_norm = float(np.linalg.norm(grad[1:-1, 1:-1]))
        converged = grad_norm <= tol

    s, _, _ = _momentum_sq(psi, grid)
    max_s = float(s.max())
    return StreamSolution(
        grid=grid,
        psi=psi,
        m=float(m),
        energy=energy,
        grad_norm=grad_norm,
        iterations=iterations,
        cutoff_active=max_s > gas.s_lo,
        converged=converged,
        max_momentum_sq=max_s,
        energy_history=history,
    )


def nodal_gradients(psi: np.ndarray, grid: MappedGrid):
    """Physical gradient at the nodes by second-order finite differences."""
    dpsi_dxi, dpsi_dsg = np.gradient(psi, grid.xi, grid.sigma, edge_order=2)
    f = grid.f_nodes[:, None]
    fp = grid.fp_nodes[:, None]
    sg = grid.sigma[None, :]
    psi_x = dpsi_dxi - sg * fp / f * dpsi_dsg
    psi_r = dpsi_dsg / f
    return psi_x, psi_r


def pde_residual(solution: StreamSolution, gas: GasModel) -> ResidualNorms:
    """Interior finite-difference residual of the shielded equation.

    Evaluates div(Htilde^-1 grad psi/(r+delta)) on nodes at least two
    layers away from the boundary and returns its max and RMS norms.
    """
    grid = solution.grid
    if grid.nx < 5 or grid.nr < 5:
        raise ValueError("pde_residual: grid too coarse for interior differences")
    psi_x, psi_r = nodal_gradients(solution.psi, grid)
    r_shield = grid.r_nodes + grid.delta
    s = (psi_x**2 + psi_r**2) / r_shield**2
    rho = gas.truncated_density_from_momentum(s.ravel()).reshape(s.shape)
    w_x = psi_x / (r_shield * rho)
    w_r = psi_r / (r_shield * rho)
    dwx_dxi, dwx_dsg = np.gradient(w_x, grid.xi, grid.sigma, edge_order=2)
    _, dwr_dsg = np.gradient(w_r, grid.xi, grid.sigma, edge_order=2)
    f = grid.f_nodes[:, None]
    fp = grid.fp_nodes[:, None]
    sg = grid.sigma[None, :]
    div = (dwx_dxi - sg * fp / f * dwx_dsg) + dwr_dsg / f
    core = div[2:-2, 2:-2]
    return ResidualNorms(float(np.abs(core).max()), float(np.sqrt(np.mean(core**2))))
