"""Variational solver for the shielded stream-function problem.

The stream function psi of a steady axially symmetric flow satisfies

    div( Htilde(|grad psi / (r + delta)|^2)^(-1) grad psi / (r + delta) ) = 0

with psi = 0 on the axis, psi = m on the wall, and on the truncated ends
x = +-L the uniform flow of the shielded problem,

    psi = m ((r + delta)^2 - delta^2) / ((f + delta)^2 - delta^2),

m r^2 / f^2 at delta = 0, and the exact discrete solution in a pipe.
Solutions are the minimizers of the strictly convex energy

    J(phi) = integral F(|grad phi / (r + delta)|^2) (r + delta) dx dr

where F is the gas model's coenergy.  delta > 0 shields the axis
singularity of 1/r; the midpoint quadrature never evaluates 1/r on the
axis, so the discrete problem is also solved directly at delta = 0.

Discretization: bilinear elements on the mapped tensor grid with one
midpoint quadrature point per cell.  Energy, gradient and Hessian are
exact derivatives of the same discrete functional, so the Hessian is
symmetric positive definite, banded with half-width nr in the layout
assemble_hessian(cell_state(psi, grid, gas), grid) states, and factored by
LAPACK's banded Cholesky; a factorization that fails raises
LinearSolveError.  newton_solve minimizes the energy with these same
functions.  The strong residual of the equation above is the
irrotationality residual of axinozzle.fields.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .gas import CoenergyBundle, GasModel
from .nozzle import MappedGrid

_ARMIJO_SLOPE = 1e-4
_ENERGY_NOISE = 1e-6  # relative energy rise the derivative form of Armijo tolerates
_MAX_ITER = 50  # cap on the accepted steps of one solve
_CHORD_CONTRACTION = 0.1  # a step must shrink the gradient norm this much to reuse its factor


def _load_flapack():
    """scipy.linalg._flapack, executed from its file without scipy.linalg's init.

    pbtrf and pbtrs are the only LAPACK routines the solver calls.
    Importing them through scipy.linalg would run that package's init,
    whose array-API imports take longer than a whole small solve; the
    routines are the objects scipy.linalg.lapack exports.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("axinozzle.solver needs scipy for LAPACK's banded Cholesky")
    directory = Path(spec.submodule_search_locations[0]) / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            module_spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(module_spec)
            module_spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled LAPACK module _flapack not found in {directory}")


lapack = _load_flapack()

# corner order per cell: SW, SE, NW, NE, as in MappedGrid.corner_coefficients
_CORNER_NODE = ((0, 0), (1, 0), (0, 1), (1, 1))  # (station, radius) shift from the cell
# corner pairs (k, l) whose unknown index of l minus that of k is 0, 1,
# nr-2 (NW-SE), nr-1 or nr: the upper triangle of each cell block
_UPPER_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 3), (2, 1), (0, 1), (2, 3), (0, 3))


@dataclass
class StreamSolution:
    """Converged (or flagged) discrete minimizer with solver metadata."""

    grid: MappedGrid
    psi: np.ndarray
    m: float
    energy: float
    grad_norm: float
    iterations: int  # accepted steps, chord steps included
    factorizations: int
    cutoff_active: bool
    converged: bool
    max_momentum_sq: float  # peak over the cells and the off-axis nodes
    energy_history: list = field(default_factory=list)
    # banded Cholesky factor the last step solved with; a solve passed it
    # as factor= refactors into this buffer, so it may change afterwards
    factor: np.ndarray | None = field(default=None, repr=False, compare=False)


def _datum(grid: MappedGrid, m: float) -> np.ndarray:
    """The shielded uniform flow at every node, in mapped coordinates; 0 on
    the axis, m on the wall, and m sigma^2 bit for bit at delta = 0."""
    sigma = grid.sigma[None, :]
    return m * sigma**2 + (2.0 * m * grid.delta * sigma * (1.0 - sigma)
                           / (grid.f_nodes[:, None] + 2.0 * grid.delta))


class CellState(NamedTuple):
    """Cell data of one psi, shared by its energy, gradient and Hessian."""

    s: np.ndarray          # squared momentum per cell
    psi_x: np.ndarray      # physical gradient of the bilinear field at cell centers
    psi_r: np.ndarray
    coenergy: CoenergyBundle  # over s.ravel()


def cell_state(psi, grid: MappedGrid, gas: GasModel) -> CellState:
    """The one gas evaluation of psi, from which every assembly reads."""
    sw, se, nw, ne = psi[:-1, :-1], psi[1:, :-1], psi[:-1, 1:], psi[1:, 1:]
    psi_xi = (se + ne - sw - nw) / (2.0 * grid.dxi)
    psi_sg = (nw + ne - sw - se) / (2.0 * grid.dsigma)
    beta = (grid.fpc / grid.fc)[:, None] * grid.sc[None, :]
    psi_x = psi_xi - beta * psi_sg
    psi_r = psi_sg / grid.fc[:, None]
    del psi_xi, psi_sg, beta  # freed before the gas evaluation, which sets peak memory
    s = (psi_x**2 + psi_r**2) / grid.r_shield**2
    return CellState(s, psi_x, psi_r, gas.coenergy_bundle(s.ravel()))


def nodal_gradients(psi: np.ndarray, grid: MappedGrid):
    """Physical gradient at the nodes by second-order finite differences."""
    dpsi_dxi, dpsi_dsg = np.gradient(psi, grid.xi, grid.sigma, edge_order=2)
    f = grid.f_nodes[:, None]
    fp = grid.fp_nodes[:, None]
    sg = grid.sigma[None, :]
    psi_x = dpsi_dxi - sg * fp / f * dpsi_dsg
    psi_r = dpsi_dsg / f
    return psi_x, psi_r


def assemble_energy(state: CellState, grid: MappedGrid) -> float:
    """Discrete energy: midpoint quadrature of F(|grad psi/(r+delta)|^2)(r+delta)."""
    value = state.coenergy.value.reshape(state.s.shape)
    return float((grid.measure * value * grid.r_shield).sum())


def assemble_gradient(state: CellState, grid: MappedGrid) -> np.ndarray:
    """Exact energy derivative w.r.t. interior nodal values (zero on boundary)."""
    prime = state.coenergy.prime.reshape(state.s.shape)
    w1 = 2.0 * grid.measure * prime / grid.r_shield
    gx = w1 * state.psi_x
    gr = w1 * state.psi_r
    coef_x, coef_r = grid.corner_coefficients
    grad = np.zeros(grid.shape)
    grad[:-1, :-1] += gx * coef_x[0] + gr * coef_r[0]
    grad[1:, :-1] += gx * coef_x[1] + gr * coef_r[1]
    grad[:-1, 1:] += gx * coef_x[2] + gr * coef_r[2]
    grad[1:, 1:] += gx * coef_x[3] + gr * coef_r[3]
    grad[0, :] = grad[-1, :] = 0.0
    grad[:, 0] = grad[:, -1] = 0.0
    return grad


def assemble_hessian(state: CellState, grid: MappedGrid,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Exact second derivative on interior unknowns, upper band in LAPACK storage.

    Unknown (i, j), 1 <= i < nx, 1 <= j < nr, has index
    q = (i-1)(nr-1) + (j-1).  The matrix is symmetric positive definite with
    half-width nr; entry (p, q), p <= q, is at band[nr + p - q, q] of the
    returned Fortran-ordered (nr + 1, (nx-1)(nr-1)) array, the layout LAPACK
    pbtrf reads, so the factorization works in place.  The band is written
    into out (such as a factor to overwrite) when one is given.
    """
    prime = state.coenergy.prime.reshape(state.s.shape)
    second = state.coenergy.second.reshape(state.s.shape)
    w1 = 2.0 * grid.measure * prime / grid.r_shield
    w2 = 4.0 * grid.measure * second / grid.r_shield**3
    ax, ar = grid.corner_coefficients
    proj = state.psi_x * ax + state.psi_r * ar  # (4, nx, nr)
    nx, nr = grid.nx, grid.nr
    band = np.empty((nr + 1, (nx - 1) * (nr - 1)), order="F") if out is None else out
    band.fill(0.0)
    for k, l in _UPPER_PAIRS:
        (ik, jk), (il, jl) = _CORNER_NODE[k], _CORNER_NODE[l]
        offset = (il - ik) * (nr - 1) + jl - jk
        # cells whose corners k and l are both unknowns
        ci = slice(1 - min(ik, il), nx - max(ik, il))
        cj = slice(1 - min(jk, jl), nr - max(jk, jl))
        block = (w1[ci, cj] * (ax[k, ci, cj] * ax[l, ci, cj] + ar[k, ci, cj] * ar[l, ci, cj])
                 + w2[ci, cj] * proj[k, ci, cj] * proj[l, ci, cj])
        # band row nr - offset, a strided view, by target (station, radius)
        row = band[nr - offset].reshape(nx - 1, nr - 1)
        row[ci.start + il - 1:ci.stop + il - 1, cj.start + jl - 1:cj.stop + jl - 1] += block
    return band


class LinearSolveError(RuntimeError):
    pass


def _cholesky(band: np.ndarray) -> np.ndarray:
    """Banded Cholesky factor; raises LinearSolveError unless SPD.

    The band is overwritten by its factor; a Fortran-ordered band (as
    assemble_hessian returns it) is factored in place, any other is copied first.
    A non-finite entry in column j reaches pivot j, where pbtrf either
    stops (info j) or leaves a NaN or an infinity on the factor's diagonal
    (pbtrf need not test for NaN), so that row is checked instead of the
    whole band.
    """
    factor, info = lapack.dpbtrf(band, overwrite_ab=1)
    _check_info(info)
    if not np.isfinite(factor[-1]).all():
        raise LinearSolveError("banded Cholesky of the Hessian failed: non-finite entries")
    return factor


def _back_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a banded Cholesky factor; raises LinearSolveError on bad input."""
    if not np.isfinite(rhs).all():
        raise LinearSolveError("banded Cholesky of the Hessian failed: non-finite entries")
    step, info = lapack.dpbtrs(factor, rhs)
    _check_info(info)
    return step


def _check_info(info: int) -> None:
    if info != 0:
        raise LinearSolveError(
            f"banded Cholesky of the Hessian failed: LAPACK info {info} (a positive "
            "value is the order of a leading minor that is not positive definite)")


def _armijo_by_derivative(trial_state: CellState, grid: MappedGrid,
                          step: np.ndarray, slope: float) -> np.ndarray | None:
    """Armijo's test in derivative form, for a full step the energy cannot resolve.

    Near the minimizer the predicted decrease can sit below the rounding of
    the energy sum, whose cells each cancel O(1) terms; backtracking then
    accepts a step of roundoff size and the iteration stalls.  The gradient
    keeps its precision there, so a full step whose energy rose by no more
    than _ENERGY_NOISE (relative) is accepted when the directional
    derivative at it meets the quadratic-model form of the Armijo condition,
    phi'(1) <= (2 c - 1) phi'(0) (Hager and Zhang 2005).  Returns the
    gradient at the trial point if the test passes, else None.
    """
    grad = assemble_gradient(trial_state, grid)
    return grad if float((grad * step).sum()) <= (2.0 * _ARMIJO_SLOPE - 1.0) * slope else None


def _line_search(psi, state: CellState, energy: float, grad_int: np.ndarray,
                 factor: np.ndarray, grid: MappedGrid, gas: GasModel, trials: int):
    """Solve for a step with factor and backtrack along it; None if no trial passes.

    The step is -grad back-solved with the factor.  Any SPD factor F gives
    it the slope -g^T F^-1 g < 0, so a slope >= 0 comes from rounding alone
    and fails like a rejected trial.  Up to trials step lengths 1, 1/2, ...
    are tried against the Armijo test (or, at full length, its derivative
    form).  Returns the accepted point as (psi, cell state, energy,
    gradient); its cell state, the one gas evaluation of the trial, also
    gives the next gradient and Hessian.  The gradient is the one the
    derivative form assembled at the accepted point, or None if it did not run.
    """
    step_int = _back_solve(factor, -grad_int)
    slope = float(grad_int @ step_int)
    if slope >= 0.0:
        return None
    step = np.zeros_like(psi)
    step[1:-1, 1:-1] = step_int.reshape(grid.nx - 1, grid.nr - 1)
    t = 1.0
    for _ in range(trials):
        trial = psi + t * step
        trial_state = cell_state(trial, grid, gas)
        trial_energy = assemble_energy(trial_state, grid)
        if trial_energy <= energy + _ARMIJO_SLOPE * t * slope:
            return trial, trial_state, trial_energy, None
        if t == 1.0 and trial_energy - energy <= _ENERGY_NOISE * max(abs(energy), 1.0):
            grad = _armijo_by_derivative(trial_state, grid, step, slope)
            if grad is not None:
                return trial, trial_state, trial_energy, grad
        t *= 0.5
    return None


def newton_solve(grid: MappedGrid, gas: GasModel, m: float,
                 init: np.ndarray | None = None, tol: float | None = None,
                 factor: np.ndarray | None = None, *,
                 _nodal_peak: bool = True) -> StreamSolution:
    """Minimize the discrete energy by damped Newton and chord iteration.

    Parameters
    ----------
    grid : body-fitted grid (carries the profile and the axis shield).
    gas : gas model supplying the coenergy.
    m : stream-function wall value, m = m0 / (2 pi) for mass flux m0.
    init : optional starting field, of which only the interior is used;
        default is the datum extension, the datum at every station.
    tol : gradient 2-norm target, default 1e-10 * max(1, m).
    factor : optional banded Cholesky factor of a Hessian on a grid of
        this shape, such as the factor of a previous solution; the first
        step solves with it, and a refactorization overwrites it.

    The factor is kept and reused.  While the last step shrank the
    gradient norm by _CHORD_CONTRACTION or more, a step is one back-solve
    with the factor in hand, a chord step, tried at full length only.  The
    Hessian at the current iterate is factored again, into the same
    buffer, when there is no factor, when the last step contracted less,
    or when the chord step fails _line_search; that step backtracks, and
    only its failure stops the solve short of tol, flagged by the gradient
    check.  Any SPD factor gives a descent direction, so the line search
    and the gradient tolerance certify a solve whichever factor its steps
    used, and the energy history is nonincreasing up to rounding.
    max_momentum_sq is the peak squared momentum over the cells the solve
    minimized and the off-axis nodes the velocity field is evaluated at.  A
    solution flagged cutoff_active has that peak above the truncation
    onset s_lo and is not a certified subsonic flow.  The private
    _nodal_peak=False, which shrink_delta passes for its steps, leaves the
    peak over the cells alone, for _with_nodal_peak to complete.
    """
    if not 0.0 <= m < np.inf:  # NaN fails too
        raise ValueError("newton_solve: m must be finite and >= 0")
    if tol is None:
        tol = 1e-10 * max(1.0, m)
    if not tol > 0.0:  # NaN fails too
        raise ValueError("newton_solve: tol must be > 0")
    if init is not None and init.shape != grid.shape:
        raise ValueError(f"newton_solve: init shape {init.shape} != grid {grid.shape}")
    band_shape = (grid.nr + 1, (grid.nx - 1) * (grid.nr - 1))
    if factor is not None and factor.shape != band_shape:
        raise ValueError(f"newton_solve: factor shape {factor.shape} != band {band_shape}")
    psi = _datum(grid, m)
    if init is not None:
        psi[1:-1, 1:-1] = init[1:-1, 1:-1]

    state = cell_state(psi, grid, gas)  # of the accepted point; feeds gradient and Hessian
    energy = assemble_energy(state, grid)
    history = [energy]
    last_norm = np.inf
    factorizations = 0
    grad = None  # of the accepted point, when the line search assembled it
    while True:
        if grad is None:
            grad = assemble_gradient(state, grid)
        grad_int = grad[1:-1, 1:-1].ravel()
        grad_norm = float(np.linalg.norm(grad_int))
        if grad_norm <= tol or len(history) > _MAX_ITER:
            break
        accepted = None
        if factor is not None and grad_norm <= _CHORD_CONTRACTION * last_norm:
            accepted = _line_search(psi, state, energy, grad_int, factor, grid, gas,
                                    trials=1)
        if accepted is None:
            factor = _cholesky(assemble_hessian(state, grid, out=factor))
            factorizations += 1
            accepted = _line_search(psi, state, energy, grad_int, factor, grid, gas,
                                    trials=45)
        if accepted is None:
            break  # energy floor reached; left flagged by the gradient check
        psi, state, energy, grad = accepted
        history.append(energy)
        last_norm = grad_norm

    cell_peak = float(state.s.max())
    solution = StreamSolution(
        grid=grid,
        psi=psi,
        m=float(m),
        energy=energy,
        grad_norm=grad_norm,
        iterations=len(history) - 1,
        factorizations=factorizations,
        cutoff_active=bool(cell_peak > gas.s_lo),  # numpy scalars in m, tol or the gas
        converged=bool(grad_norm <= tol),          # would make these numpy bools
        max_momentum_sq=cell_peak,
        energy_history=history,
        factor=factor,
    )
    return _with_nodal_peak(solution, gas) if _nodal_peak else solution


def _with_nodal_peak(solution: StreamSolution, gas: GasModel) -> StreamSolution:
    """solution, its max_momentum_sq and cutoff_active raised to cover the off-axis nodes.

    velocity_from_stream rebuilds the axis row by extrapolation (NaN here at delta = 0).
    """
    grid = solution.grid
    psi_x, psi_r = nodal_gradients(solution.psi, grid)
    nodal = (psi_x[:, 1:]**2 + psi_r[:, 1:]**2) / (grid.r_nodes[:, 1:] + grid.delta)**2
    peak = float(np.maximum(solution.max_momentum_sq, nodal.max()))  # NaN stays NaN
    solution.max_momentum_sq, solution.cutoff_active = peak, bool(peak > gas.s_lo)
    return solution
