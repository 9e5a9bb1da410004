"""Velocity fields and physical diagnostics of a stream-function solution.

The stream function determines the meridian velocity through

    rho U = psi_r / (r + delta),      rho V = -psi_x / (r + delta)

with the density recovered from the subsonic density-momentum relation at
squared momentum |grad psi / (r + delta)|^2.  On the axis the direct
formulas degenerate as delta shrinks, so axial values are filled by even
quadratic extrapolation in r and the radial velocity vanishes there.

The diagnostics mirror the qualitative theory for these flows: the
momentum cutoff left disengaged (else the flow solves only the truncated
problem), maximum principle and barrier bounds for psi, positive axial
velocity, flow angle pinched by the wall slope range, station-wise mass
flux conservation, uniform far fields on both flat ends, approximate
irrotationality, and compactly supported weak residuals of the two
momentum entropy pairs.  psi conserves mass by construction, so the
irrotationality residual U_r - V_x is the strong residual of the one
equation left, the stream-function equation the solver minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gas import GasModel
from .nozzle import FAR_FIELD_OFFSET, MappedGrid
from .solver import StreamSolution, nodal_gradients, off_axis_momentum_sq

TWO_PI = 2.0 * np.pi
# the irrotationality residual differences two node layers in from each edge
MIN_DIAGNOSTIC_CELLS = 5


class AngleCheck(NamedTuple):
    measured: tuple[float, float]  # (min, max) over the nodes
    bounds: tuple[float, float]    # exact wall-slope angle bounds


class PositivityCheck(NamedTuple):
    min_u: float
    location: tuple[float, float]


class EntropyResiduals(NamedTuple):
    plus: float
    minus: float


class ResidualNorms(NamedTuple):
    max: float
    l2: float  # root mean square over the evaluated interior nodes


@dataclass
class FlowField:
    """Nodal velocity, density, and derived quantities on the mapped grid."""

    grid: MappedGrid
    m: float
    U: np.ndarray
    V: np.ndarray
    rho: np.ndarray
    q: np.ndarray
    mach: np.ndarray
    omega: np.ndarray
    psi: np.ndarray

    @property
    def m0(self) -> float:
        """Three-dimensional mass flux carried by the stream value m."""
        return TWO_PI * self.m


def velocity_from_stream(solution: StreamSolution, gas: GasModel) -> FlowField:
    """Reconstruct the meridian velocity field from a stream solution.

    The density comes from the truncated density-momentum relation the
    solve minimized; no momentum is clamped.  It is evaluated at the
    off-axis nodes of solver.off_axis_momentum_sq, whose peak is the
    solution's max_momentum_sq, so a solution not flagged cutoff_active
    has every such node on the subsonic branch, and a flagged one yields a
    field of the truncated problem, not a subsonic flow (diagnostic only).
    """
    grid = solution.grid
    psi_x, psi_r = nodal_gradients(solution.psi, grid)
    s = off_axis_momentum_sq(psi_x, psi_r, grid)
    rho = np.empty_like(psi_x)
    rho[:, 1:] = gas.truncated_density_from_momentum(s)
    rho_shield = (grid.r_nodes[:, 1:] + grid.delta) * rho[:, 1:]
    U, V = np.empty_like(psi_x), np.empty_like(psi_x)
    U[:, 1:] = psi_r[:, 1:] / rho_shield
    V[:, 1:] = -psi_x[:, 1:] / rho_shield

    # axis values by even quadratic extrapolation from the first two rows
    U[:, 0] = (4.0 * U[:, 1] - U[:, 2]) / 3.0
    V[:, 0] = 0.0
    rho[:, 0] = np.clip((4.0 * rho[:, 1] - rho[:, 2]) / 3.0, 1.0, gas.rho_stag)

    q = np.hypot(U, V)
    mach = q / np.sqrt(gas.sound_speed_sq(rho))
    omega = np.arctan2(V, U)  # 0 where the field vanishes identically
    return FlowField(grid=grid, m=solution.m, U=U, V=V, rho=rho, q=q,
                     mach=mach, omega=omega, psi=solution.psi)


def flow_angle(flow: FlowField) -> AngleCheck:
    """Measured flow angle range with its exact wall-slope bounds.

    The angle of a flow with positive axial velocity stays between
    min(inf arctan f', 0) and max(sup arctan f', 0).  Where U < 0 the
    angle leaves that range, and positivity_check reports the node.
    """
    lo, hi = flow.grid.profile.slope_bounds
    bounds = (min(np.arctan(lo), 0.0), max(np.arctan(hi), 0.0))
    return AngleCheck((float(flow.omega.min()), float(flow.omega.max())), bounds)


def station_fluxes(flow: FlowField) -> np.ndarray:
    """Mass flux 2 pi * integral rho U (r + delta) dr at every grid station.

    The shielded problem has rho U (r + delta) = psi_r, so its conserved
    flux carries the weight r + delta; at delta = 0 this is rho U r.
    """
    grid = flow.grid
    integrand = flow.rho * flow.U * (grid.r_nodes + grid.delta)
    return TWO_PI * np.trapezoid(integrand, x=grid.r_nodes, axis=1)


def flux_drift(flow: FlowField) -> float:
    """Largest relative deviation of the station fluxes from m0."""
    fluxes = station_fluxes(flow)
    scale = flow.m0 if flow.m0 > 0.0 else 1.0
    return float(np.abs(fluxes - flow.m0).max() / scale)


def far_field_reference(gas: GasModel, m0: float, radius: float, delta: float) -> float:
    """Axial speed of the uniform shielded flow, rho U = m0 / (pi f (f + 2 delta))."""
    momentum_sq = (m0 / (np.pi * (radius**2 + 2.0 * delta * radius))) ** 2
    return float(np.sqrt(gas.speed_from_momentum(min(momentum_sq, 1.0))))


def far_field_error(flow: FlowField, gas: GasModel):
    """Max deviation from the uniform asymptotic states near the two ends.

    Compares (U, V) with the shielded datum's (sqrt(Ginv((rho U)^2)), 0) at
    the stations nearest x = -(L - 2) and x = +(L - 2) (FAR_FIELD_OFFSET
    = 2), where rho U = m0 / (pi r_mp (r_mp + 2 delta)) for the wall
    radius r_mp there.  It needs grid.length >= FAR_FIELD_OFFSET: on a
    shorter grid each station lies in the other half of the nozzle.
    """
    grid = flow.grid
    prof = grid.profile
    out = []
    for sign, radius in ((-1.0, prof.r_minus), (1.0, prof.r_plus)):
        x = sign * (grid.length - FAR_FIELD_OFFSET)
        i = int(np.argmin(np.abs(grid.xi - x)))
        u_ref = far_field_reference(gas, flow.m0, radius, grid.delta)
        dev = np.hypot(flow.U[i] - u_ref, flow.V[i])
        out.append(float(dev.max()))
    return out[0], out[1]


def positivity_check(flow: FlowField) -> PositivityCheck:
    """Minimum axial velocity and where it occurs."""
    i, j = np.unravel_index(int(np.argmin(flow.U)), flow.U.shape)
    return PositivityCheck(float(flow.U[i, j]),
                           (float(flow.grid.x_nodes[i, j]), float(flow.grid.r_nodes[i, j])))


def _on_support(t: np.ndarray, kernel) -> np.ndarray:
    """kernel(t) where |t| < 1 and +0.0 elsewhere, kernel run on the support only."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = kernel(t[inside])
    return out


def _bump(t: np.ndarray) -> np.ndarray:
    """C^3 compactly supported polynomial bump (1 - t^2)^4 on |t| < 1, +0.0 elsewhere.

    The power is taken on the support only, where 1 - t^2 > 0: off it the
    base is negative, and numpy's power leaves its vectorized loop for
    negative bases (about 40 times slower per value).  Each value equals
    np.where(|t| < 1, (1 - t^2)^4, 0.0) bit for bit.
    """
    return _on_support(t, lambda s: (1.0 - s**2) ** 4)


def _bump_prime(t: np.ndarray) -> np.ndarray:
    """Derivative -8 t (1 - t^2)^3 of _bump on |t| < 1, +0.0 elsewhere."""
    return _on_support(t, lambda s: -8.0 * s * (1.0 - s**2) ** 3)


_PLACEMENTS = (  # (center offset x, center offset r, half-width factor)
    (0.0, 0.0, 1.0),
    (-0.25, -0.25, 0.5),
    (0.25, -0.25, 0.5),
    (-0.25, 0.25, 0.5),
    (0.25, 0.25, 0.5),
)


def default_compact(grid: MappedGrid) -> tuple[float, float, float, float]:
    """Central compact rectangle [-L/2, L/2] x [0.2 b, 0.8 b]."""
    b = grid.profile.b
    return (-grid.length / 2.0, grid.length / 2.0, 0.2 * b, 0.8 * b)


def entropy_pair_residual(flow: FlowField, gas: GasModel,
                          rect: tuple[float, float, float, float] | None = None
                          ) -> EntropyResiduals:
    """Weak residuals of the two momentum entropy pairs on a compact rectangle.

    The pairs are (rho U^2 + p, rho U V) and (rho U V, rho V^2 + p); their
    divergence balances the geometric sources -rho U V / r and
    -rho V^2 / r.  The residual tested against a compactly supported bump
    chi is |integral eta chi_x + lam chi_r + source chi| after integrating
    the divergence by parts.  Returns the worst value over five bump
    placements for each pair.

    Each bump vanishes exactly off its own station range, so the
    quadrature runs only over the full radial rows of the stations where
    the bump is nonzero; the per-station integrals are scattered into a
    zero array of all nx + 1 stations and integrated over x as before.
    On a finite field this equals the full-grid sum bit for bit: off the
    support every integrand is an exact +-0, every summed array keeps its
    length, and a bump that misses every station contributes 0.  The
    bump kernels take their powers on the support only, since off it
    1 - t^2 is negative and numpy's power is far slower on negative bases.
    """
    grid = flow.grid
    if rect is None:
        rect = default_compact(grid)
    x_lo, x_hi, r_lo, r_hi = rect
    if not (x_lo < x_hi and 0.0 <= r_lo < r_hi):
        raise ValueError("entropy_pair_residual: empty rectangle")
    if x_lo < -grid.length or x_hi > grid.length or r_hi > grid.profile.b:
        raise ValueError("entropy_pair_residual: rectangle not inside the nozzle")

    xi = grid.xi
    r = grid.r_nodes
    r_safe = np.where(r > 1e-12, r, 1.0)
    p = gas.pressure(flow.rho)
    eta_plus = flow.rho * flow.U**2 + p
    lam_plus = flow.rho * flow.U * flow.V
    eta_minus = lam_plus
    lam_minus = flow.rho * flow.V**2 + p
    source_plus = -flow.rho * flow.U * flow.V / r_safe
    source_minus = -flow.rho * flow.V**2 / r_safe

    def integral(integrand, rows):
        per_station = np.zeros(grid.nx + 1)
        per_station[rows] = np.trapezoid(integrand, x=r[rows], axis=1)
        return abs(float(np.trapezoid(per_station, x=xi)))

    cx0 = 0.5 * (x_lo + x_hi)
    cr0 = 0.5 * (r_lo + r_hi)
    wx0 = 0.5 * (x_hi - x_lo)
    wr0 = 0.5 * (r_hi - r_lo)
    worst_plus = 0.0
    worst_minus = 0.0
    for ox, orr, scale in _PLACEMENTS:
        cx = cx0 + ox * 2.0 * wx0
        cr = cr0 + orr * 2.0 * wr0
        wx = scale * wx0
        wr = scale * wr0
        tx = (xi - cx) / wx  # x_nodes is xi broadcast over the radii
        inside = np.flatnonzero(np.abs(tx) < 1.0)
        if inside.size == 0:
            continue  # the bump misses every station
        rows = slice(inside[0], inside[-1] + 1)
        bump_x = _bump(tx)[rows, None]
        bump_x_prime = _bump_prime(tx)[rows, None]
        tr = (r[rows] - cr) / wr
        bump_r = _bump(tr)
        chi = bump_x * bump_r
        chi_x = bump_x_prime * bump_r / wx
        chi_r = bump_x * _bump_prime(tr) / wr
        plus = eta_plus[rows] * chi_x + lam_plus[rows] * chi_r + source_plus[rows] * chi
        minus = eta_minus[rows] * chi_x + lam_minus[rows] * chi_r + source_minus[rows] * chi
        worst_plus = max(worst_plus, integral(plus, rows))
        worst_minus = max(worst_minus, integral(minus, rows))
    return EntropyResiduals(worst_plus, worst_minus)


def irrotationality_residual(flow: FlowField) -> ResidualNorms:
    """Norms of U_r - V_x over nodes two layers in from the boundary.

    With rho U = psi_r / (r + delta) and rho V = -psi_x / (r + delta),
    U_r - V_x is div(rho^-1 grad psi / (r + delta)), the strong residual of
    the stream-function equation; it vanishes for these flows up to the
    discretization error.
    """
    grid = flow.grid
    if min(grid.nx, grid.nr) < MIN_DIAGNOSTIC_CELLS:
        raise ValueError("irrotationality_residual: grid too coarse")
    u_r = np.gradient(flow.U, grid.sigma, axis=1, edge_order=2) / grid.f_nodes[:, None]
    v_x, _ = nodal_gradients(flow.V, grid)
    curl = (u_r - v_x)[2:-2, 2:-2]
    return ResidualNorms(float(np.abs(curl).max()), float(np.sqrt(np.mean(curl**2))))


DEFAULT_THRESHOLDS = {
    "max_principle": 1e-10,
    "barrier_slack": 10.0,   # multiplies h_max**2
    "angle": 1e-3,
    "flux_drift": 1e-3,
    "far_field": 1e-3,
}


@dataclass
class DiagnosticsReport:
    """Physical diagnostics of one solve with pass/fail per threshold.

    values maps each reported quantity to its value, in the order
    diagnostics.txt lists them.
    """

    values: dict
    thresholds: dict
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def items(self):
        """Flat (key, value) pairs in a fixed order for serialization."""
        pairs = list(self.values.items())
        for name, value in sorted(self.thresholds.items()):
            pairs.append((f"threshold_{name}", value))
        for name, ok in sorted(self.checks.items()):
            pairs.append((f"check_{name}", ok))
        pairs.append(("passed", self.passed))
        return pairs


def diagnostics_report(solution: StreamSolution, gas: GasModel,
                       flow: FlowField | None = None,
                       thresholds: dict | None = None) -> DiagnosticsReport:
    """Run the full diagnostic suite on a converged solve."""
    grid = solution.grid
    cfg = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        unknown = thresholds.keys() - cfg.keys()
        if unknown:
            raise ValueError(f"diagnostics_report: unknown thresholds {sorted(unknown)}")
        negative = sorted(key for key, value in thresholds.items() if not value >= 0.0)  # NaN too
        if negative:  # every measured quantity is >= 0, so no flow could meet one
            raise ValueError(f"diagnostics_report: thresholds {negative} must be >= 0")
        cfg.update(thresholds)
    if flow is None:
        flow = velocity_from_stream(solution, gas)

    psi = solution.psi
    barrier = solution.m * (grid.r_nodes + grid.delta) ** 2 / grid.profile.b**2
    pos = positivity_check(flow)
    angle = flow_angle(flow)
    far = far_field_error(flow, gas)
    entropy = entropy_pair_residual(flow, gas)
    values = {
        "m0": flow.m0,
        "delta": grid.delta,
        "converged": solution.converged,
        "cutoff_active": solution.cutoff_active,
        "max_principle_violation": max(0.0, float(-psi.min()), float(psi.max() - solution.m)),
        "barrier_violation": max(0.0, float((psi - barrier).max())),
        "min_axial_velocity": pos.min_u,
        "min_velocity_x": pos.location[0],
        "min_velocity_r": pos.location[1],
        "angle_min": angle.measured[0],
        "angle_max": angle.measured[1],
        "angle_bound_lo": angle.bounds[0],
        "angle_bound_hi": angle.bounds[1],
        "flux_drift": flux_drift(flow),
        "far_field_left": far[0],
        "far_field_right": far[1],
        "entropy_residual_plus": entropy.plus,
        "entropy_residual_minus": entropy.minus,
        "irrotationality_residual": irrotationality_residual(flow).max,
    }

    scale = max(1.0, solution.m)
    checks = {
        "converged": solution.converged,
        "cutoff": not solution.cutoff_active,
        "max_principle": values["max_principle_violation"] <= cfg["max_principle"] * scale,
        "barrier": values["barrier_violation"] <= cfg["barrier_slack"] * grid.h_max**2,
        "positivity": (pos.min_u > 0.0) if solution.m > 0.0 else True,
        "angle": (angle.measured[0] >= angle.bounds[0] - cfg["angle"]
                  and angle.measured[1] <= angle.bounds[1] + cfg["angle"]),
        "flux_drift": values["flux_drift"] <= cfg["flux_drift"],
        "far_field": max(far) <= cfg["far_field"],
    }
    return DiagnosticsReport(values, cfg, checks)
