"""Limits and continuation: the shield limit, flux sweeps, the critical flux.

The solves carry two regularizations besides the grid: the axis shield
delta > 0 that keeps the 1/(r + delta) weights bounded, and the finite
truncation length L of the nozzle.  Physical answers are the limits
delta -> 0, which shrink_delta solves directly and certifies with one
shielded solve, and L -> infinity, which no function takes:
nozzle.pick_domain_length picks L and fields.far_field_error checks it.
The mass flux enters as the three-dimensional flux m0 = 2 pi m.  Raising
m0 raises the speed everywhere; past a critical value the subsonic branch
ceases to exist and the momentum cutoff engages.  find_critical_flux
brackets that value, mass_flux_sweep solves a list of fluxes, and
sonic_limit_study approaches the sonic state from below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gas import GasModel
from .nozzle import MappedGrid
from .solver import StreamSolution, _datum, newton_solve
from .fields import (
    FlowField,
    default_compact,
    entropy_pair_residual,
    far_field_error,
    flux_drift,
    velocity_from_stream,
    wall_speed_max,
    TWO_PI,
)

_CERTIFY_SHIELD = 1e-7     # shrink_delta's certifying shield, in units of b
_CRITICAL_MAX_PROBES = 70  # cap on the solves of one critical-flux bracket
_SONIC_GAP_FACTOR = 10.0   # certified 1 - M is within this many 1 - m_tilde
_SONIC_RATIO = 0.5         # the flux gaps to the anchor shrink by this factor


class DeltaStep(NamedTuple):
    delta: float
    diff: float        # sup |psi - psi at delta = 0|, NaN at delta = 0 itself
    iterations: int    # accepted steps, chord steps included
    factorizations: int


@dataclass
class ShrinkResult:
    """The unshielded solve and its certificate as the axis-shield limit."""

    solution: StreamSolution
    steps: list[DeltaStep]
    converged: bool
    tol: float


def shrink_delta(grid: MappedGrid, gas: GasModel, m: float,
                 tol: float | None = None) -> ShrinkResult:
    """Solve at delta = 0 and certify that solve as the limit delta -> 0.

    The midpoint quadrature never evaluates 1/r on the axis, so the
    discrete problem at delta = 0 is solved directly; that solve, psi0,
    is the returned solution, whatever the shield of grid.  One shielded
    solve at delta_c = _CERTIFY_SHIELD * b certifies it.  It starts from
    psi0 plus the datum change from 0 to delta_c (solver._datum, the
    shielded uniform flow, which carries psi's O(delta) axis term), with
    psi0's Cholesky factor; the nodes do not move when delta changes, so
    the state transfers directly.  converged is set when that solve
    converges and ends at most tol (default 1e-8 * max(1, m)) from its
    start: psi's deviation from the datum moves by at most tol between 0
    and delta_c.  steps holds one record per solve: delta = 0 with diff
    NaN, then delta_c with diff = sup |psi(delta_c) - psi0|, which is
    linear in delta_c.  A failed delta = 0 solve is returned flagged, with
    one step and no certificate.  The returned solution keeps no factor,
    which would hold a whole band (67 MB at 512x128).
    """
    if tol is None:
        tol = 1e-8 * max(1.0, m)
    if not tol > 0.0:  # NaN fails too
        raise ValueError("shrink_delta: tol must be > 0")
    base = grid.with_delta(0.0)
    solution = newton_solve(base, gas, m)
    steps = [DeltaStep(0.0, float("nan"), solution.iterations, solution.factorizations)]
    converged = False
    if solution.converged:
        work = grid.with_delta(_CERTIFY_SHIELD * grid.profile.b)
        start = solution.psi + (_datum(work, m) - _datum(base, m))
        shielded = newton_solve(work, gas, m, init=start, factor=solution.factor)
        diff = float(np.abs(shielded.psi - solution.psi).max())
        steps.append(DeltaStep(work.delta, diff, shielded.iterations,
                               shielded.factorizations))
        converged = shielded.converged and float(np.abs(shielded.psi - start).max()) <= tol
    solution.factor = None
    return ShrinkResult(solution, steps, converged, tol)


@dataclass
class SweepPoint:
    """One converged (or failed) solve of a mass flux sweep."""

    m0: float
    converged: bool
    cutoff_active: bool
    mach_max: float
    speed_min: float
    wall_speed: float
    flux_drift: float
    far_field: tuple[float, float]


def _survey(solution: StreamSolution, gas: GasModel) -> SweepPoint:
    flow = velocity_from_stream(solution, gas)
    return SweepPoint(
        m0=TWO_PI * solution.m,
        converged=solution.converged,
        cutoff_active=solution.cutoff_active,
        mach_max=float(flow.mach.max()),
        speed_min=float(flow.q.min()),
        wall_speed=wall_speed_max(flow),
        flux_drift=flux_drift(flow),
        far_field=far_field_error(flow, gas),
    )


def _warm_start(solution: StreamSolution | None, m0: float) -> dict:
    """newton_solve keywords of the warm start at flux m0 from a converged solution.

    The start is the solution rescaled by the flux ratio, exact in the
    linear small-flux regime and close elsewhere.  A warm start carries the
    Cholesky factor the solution ended with, so a solve whose chord steps
    contract with it factors no Hessian of its own; shrink_delta passes it
    the same way.  No solution, a failed one or m = 0 gives a cold start.
    """
    if solution is None or not solution.converged or solution.m <= 0.0:
        return {}
    return {"init": solution.psi * (m0 / (TWO_PI * solution.m)), "factor": solution.factor}


def mass_flux_sweep(grid: MappedGrid, gas: GasModel, m0_values) -> list[SweepPoint]:
    """Solve a sequence of mass fluxes on one grid, each warm started from
    the solve before it (_warm_start).  Every flux is checked before the
    first solve; failed solves are recorded, not raised."""
    m0_values = np.asarray(m0_values, dtype=float)
    if not ((m0_values >= 0.0) & (m0_values < np.inf)).all():  # NaN fails too
        raise ValueError("mass_flux_sweep: fluxes must be finite and >= 0")
    points: list[SweepPoint] = []
    prev: StreamSolution | None = None
    for m0 in m0_values:
        solution = newton_solve(grid, gas, m0 / TWO_PI, **_warm_start(prev, m0))
        points.append(_survey(solution, gas))
        prev = solution
    return points


class CriticalToleranceError(ValueError):
    """A critical-flux tol the bracket cannot work to; raised before any probe."""


class CriticalProbe(NamedTuple):
    """One probe of the critical-flux bracket; no solution is kept."""

    m0: float
    max_momentum_sq: float
    reason: str        # subcritical, non_convergence or cutoff (cutoff_active)


@dataclass
class CriticalFluxEstimate:
    """Regula falsi bracket [lo, hi] for the critical three-dimensional flux.

    len(probes) is the number of solves; lo is the largest subcritical
    probe, or 0, the rest state, and hi the smallest flagged probe, or the
    upper end find_critical_flux takes without a solve.  tol is the
    resolved tolerance: a width above it means the probe cap ran out.
    """

    lo: float
    hi: float
    tol: float
    probes: tuple[CriticalProbe, ...] = ()

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _critical_signal(solution: StreamSolution) -> str:
    """Why the subsonic continuation past this flux is barred, or subcritical.

    The one rule by which every certificate calls a solve subcritical: it
    converged, and its peak squared momentum over the cells and the
    off-axis nodes stays at or below s_lo (not cutoff_active).
    """
    if not solution.converged:
        return "non_convergence"
    return "cutoff" if solution.cutoff_active else "subcritical"


def find_critical_flux(grid: MappedGrid, gas: GasModel,
                       tol: float | None = None) -> CriticalFluxEstimate:
    """Bracket the largest flux carrying a strictly subsonic solve.

    The supercritical signal is the momentum cutoff engaging at a cell or
    an off-axis node (cutoff_active), or a failed solve; _critical_signal
    classifies each probe by that signal alone, so lo is a certified
    subcritical solve or the rest state, hi a flagged one or the throat
    bound, and probes records every solve.

    The upper end comes from the discrete throat bound B.  Across each
    column of cells psi rises from 0 on the axis to m on the wall, so
    m0 = 2 pi m = 2 pi sum_j psi_r f_c dsigma, with f_c the wall radius at
    the column's centre, and |psi_r| <= sqrt(s) (r + delta) in every cell.
    A solve whose squared momentum s stays at or below s_lo = m_tilde^2
    therefore carries m0 <= B = pi m_tilde min_columns f_c (f_c + 2 delta).
    This is the discrete form of the bound pi b^2 m_tilde on the flux
    rho U 2 pi r dr through a throat of radius b, which the datum, the
    shielded uniform flow, attains.  So hi = B + 0.45 tol is an end
    without a solve, and one probe at B - 0.45 tol that lands subcritical
    closes the bracket of a pipe or tanh step at any delta, at most tol
    wide after rounding.  A tol below 1e-12 B raises
    CriticalToleranceError; above that floor fl(B) + 0.45 tol lies above
    the exact bound.  A tol of B or more raises it too: its bracket
    [0, B + 0.45 tol] would hold the whole subcritical range and take no
    probe.  The lower end without a solve is the rest state m0 = 0: psi =
    0 there, so the distance g below is -s_lo.  The critical flux can lie
    well below B (1-3 per cent on bumps, whose wall nodes may reach s_lo
    before any cell does); the first probe is then flagged and becomes hi.

    Every later probe goes where Illinois regula falsi (Dowell and Jarratt
    1971) on the monotone distance g = max_momentum_sq - s_lo to the
    cutoff puts it, at least tol/4 inside the bracket; it is the midpoint
    while hi is a failed solve, which has no g.  g is convex in m0, so the
    secant from the rest state lands subcritical.  _CRITICAL_MAX_PROBES
    caps all solves; if each of them is flagged, lo stays 0.
    """
    bound = np.pi * gas.m_tilde * float((grid.fc * (grid.fc + 2.0 * grid.delta)).min())
    if tol is None:
        tol = 1e-4 * bound
    if not 1e-12 * bound <= tol < bound:  # tol <= 0 and NaN fail too
        raise CriticalToleranceError(
            f"find_critical_flux: tol must be > 0, at least 1e-12 times the throat "
            f"bound B = {bound!r} and below B; got tol = {tol!r}")
    start = 0.45 * tol  # not tol/2: the ends must be at most tol apart after rounding
    lo, g_lo = 0.0, -gas.s_lo  # the rest state, psi = 0
    hi, g_hi = bound + start, None
    m0 = min(bound - start, hi - 2.0 * start)  # > 0 since tol < B
    probes: list[CriticalProbe] = []
    best_sub: StreamSolution | None = None
    moved = None  # the end the last probe replaced
    while hi - lo > tol and len(probes) < _CRITICAL_MAX_PROBES:
        solution = newton_solve(grid, gas, m0 / TWO_PI, **_warm_start(best_sub, m0))
        reason = _critical_signal(solution)
        probes.append(CriticalProbe(m0, solution.max_momentum_sq, reason))
        g = solution.max_momentum_sq - gas.s_lo
        if reason == "subcritical":
            if moved == "lo" and g_hi is not None:
                g_hi *= 0.5  # Illinois: the end kept twice in a row counts half
            best_sub, lo, g_lo, moved = solution, m0, g, "lo"
        else:
            if moved == "hi":
                g_lo *= 0.5
            hi, g_hi, moved = m0, g if solution.converged else None, "hi"
        if g_hi is None:
            m0 = 0.5 * (lo + hi)
        else:
            m0 = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            m0 = min(max(m0, lo + 0.25 * tol), hi - 0.25 * tol)
    return CriticalFluxEstimate(lo, hi, tol, tuple(probes))


@dataclass
class SonicLimitStudy:
    """Cauchy record of solves approaching the critical flux from below."""

    mach_values: list[float]
    velocity_diffs: list[float]   # rms on the window, consecutive pairs
    momentum_diffs: list[float]
    entropy_plus: list[float]
    entropy_minus: list[float]
    gap_bound: float              # certified bound on 1 - max Mach
    certified: bool
    reasons: dict = field(default_factory=dict)


def sonic_limit_study(grid: MappedGrid, gas: GasModel, m0_anchor: float,
                      n_terms: int = 6) -> SonicLimitStudy:
    """Drive the flux toward its critical value and certify the approach.

    Solves at m0_anchor * (1 - 0.5 * _SONIC_RATIO**k), k < n_terms, each
    warm started from the last; the anchor is a certified subcritical
    flux, such as the lo end of find_critical_flux's bracket.  Each solve
    is classified by _critical_signal, the rule find_critical_flux uses,
    before its flow is built, and the study stops at the first one that is
    not subcritical, recording {reason}_at: m0 and certifying nothing.  On
    the compact window default_compact(grid), away from the axis and the
    wall, the consecutive velocity and momentum differences are recorded
    in rms, together with the entropy pair residuals.  A grid with no node in
    that window raises ValueError, and so does n_terms < 3, which leaves
    fewer than two differences to compare.  Certification requires the
    max Mach numbers to be nondecreasing, the window differences to
    shrink, and the final sonic gap 1 - M to be within ten times the
    truncation gap 1 - m_tilde.
    """
    if n_terms < 3:
        raise ValueError("sonic_limit_study: need at least three terms")
    window = default_compact(grid)
    x_lo, x_hi, r_lo, r_hi = window
    mask = ((grid.x_nodes >= x_lo) & (grid.x_nodes <= x_hi)
            & (grid.r_nodes >= r_lo) & (grid.r_nodes <= r_hi))
    if not mask.any():
        raise ValueError("sonic_limit_study: window contains no grid nodes")

    m0s = [m0_anchor * (1.0 - 0.5 * _SONIC_RATIO**k) for k in range(n_terms)]
    machs: list[float] = []
    vel_diffs: list[float] = []
    mom_diffs: list[float] = []
    ent_plus: list[float] = []
    ent_minus: list[float] = []
    prev_flow: FlowField | None = None
    prev_solution: StreamSolution | None = None
    for m0 in m0s:
        solution = newton_solve(grid, gas, m0 / TWO_PI, **_warm_start(prev_solution, m0))
        reason = _critical_signal(solution)
        if reason != "subcritical":
            gap, reasons = float("nan"), {f"{reason}_at": m0}
            break
        flow = velocity_from_stream(solution, gas)
        machs.append(float(flow.mach.max()))
        ent = entropy_pair_residual(flow, gas, rect=window)
        ent_plus.append(ent.plus)
        ent_minus.append(ent.minus)
        if prev_flow is not None:
            dv = np.sqrt(np.mean((flow.U - prev_flow.U)[mask] ** 2
                                 + (flow.V - prev_flow.V)[mask] ** 2))
            dm = np.sqrt(np.mean((flow.rho * flow.U - prev_flow.rho * prev_flow.U)[mask] ** 2
                                 + (flow.rho * flow.V - prev_flow.rho * prev_flow.V)[mask] ** 2))
            vel_diffs.append(float(dv))
            mom_diffs.append(float(dm))
        prev_flow = flow
        prev_solution = solution
    else:
        gap = 1.0 - machs[-1]
        reasons = {}
        if any(machs[k + 1] < machs[k] - 1e-9 for k in range(len(machs) - 1)):
            reasons["mach_not_monotone"] = machs
        if vel_diffs and not vel_diffs[-1] < vel_diffs[0]:
            reasons["velocity_diffs_not_shrinking"] = vel_diffs
        if mom_diffs and not mom_diffs[-1] < mom_diffs[0]:
            reasons["momentum_diffs_not_shrinking"] = mom_diffs
        if not gap <= _SONIC_GAP_FACTOR * (1.0 - gas.m_tilde):
            reasons["sonic_gap_too_wide"] = gap
    return SonicLimitStudy(machs, vel_diffs, mom_diffs, ent_plus, ent_minus,
                           gap, not reasons, reasons)
