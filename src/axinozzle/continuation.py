"""Parameter continuation: shield shrinking, flux sweeps, the critical flux.

The solves carry two regularizations besides the grid: the axis shield
delta > 0 that keeps the 1/(r + delta) weights bounded, and the finite
truncation length L of the nozzle.  Physical answers are the limits
delta -> 0, which shrink_delta takes, and L -> infinity, which no function
takes: nozzle.pick_domain_length picks L and fields.far_field_error checks
it.  The mass flux enters as the three-dimensional flux m0 = 2 pi m.
Raising m0 raises the speed everywhere; past a critical value the subsonic
branch ceases to exist and the momentum cutoff engages.
find_critical_flux brackets that value, mass_flux_sweep solves a list of
fluxes, and sonic_limit_study approaches the sonic state from below.
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

_SHRINK_MAX_STEPS = 60     # cap on the solves of one shield schedule
_CRITICAL_MAX_PROBES = 70  # cap on the solves of one critical-flux bracket
_SONIC_GAP_FACTOR = 10.0   # certified 1 - M is within this many 1 - m_tilde
_SONIC_RATIO = 0.5         # the flux gaps to the anchor shrink by this factor


class DeltaStep(NamedTuple):
    delta: float
    diff: float        # sup |psi - psi at previous delta|
    iterations: int    # accepted steps, chord steps included
    factorizations: int


@dataclass
class ShrinkResult:
    """Outcome of driving the axis shield to zero at fixed grid."""

    solution: StreamSolution
    steps: list[DeltaStep]
    converged: bool
    tol: float


def shrink_delta(grid: MappedGrid, gas: GasModel, m: float, factor: float = 0.02,
                 tol: float | None = None) -> ShrinkResult:
    """Solve along a geometric shield schedule until the iterates settle.

    Starts at delta = 1e-4 b and multiplies by factor each step.  The
    start is about 1 per cent of the innermost cell-centre radius
    b / (2 nr) at nr = 48 (less on coarser grids), where psi is already
    linear in delta to first order, so the consecutive differences
    shrink like delta from the first step.  Each solve starts from the
    datum at its delta (solver._datum, the shielded uniform flow, which
    carries psi's O(delta) axis term) plus the Lagrange extrapolation in
    delta of the last (up to) three deviations psi - datum, a
    predictor-corrector continuation; the second step starts from the
    first deviation alone, and in a pipe, whose exact discrete solution
    is the datum, no step iterates.  The nodes do not move when delta
    changes, so states transfer directly.  A step may take 0 Newton
    iterations when its start already meets newton_solve's gradient
    tolerance; it is still certified by that check at its own delta.
    Stops once the sup difference between consecutive solutions drops
    below tol (default 1e-8 * max(1, m)).  The later differences would
    shrink by factor each, so the result lies within
    factor / (1 - factor) * tol of the delta -> 0 limit, about 0.02 tol
    at the default factor.
    """
    if not 0.0 < factor < 1.0:
        raise ValueError("shrink_delta: factor must lie in (0, 1)")
    if tol is None:
        tol = 1e-8 * max(1.0, m)
    if not tol > 0.0:  # NaN fails too
        raise ValueError("shrink_delta: tol must be > 0")
    delta = 1e-4 * grid.profile.b
    steps: list[DeltaStep] = []
    recent: list[np.ndarray] = []  # the last three deviations from the datum, oldest first
    solution = None
    for _ in range(_SHRINK_MAX_STEPS):
        work = grid.with_delta(delta)
        datum = _datum(work, m)
        init = datum + _extrapolated_start(recent, factor) if recent else None
        previous = solution
        solution = newton_solve(work, gas, m, init=init,
                                factor=previous.factor if recent else None)
        if not solution.converged:
            return ShrinkResult(_released(solution), steps, False, tol)
        diff = float(np.abs(solution.psi - previous.psi).max()) if recent else float("nan")
        steps.append(DeltaStep(delta, diff, solution.iterations, solution.factorizations))
        if recent and diff <= tol:
            return ShrinkResult(_released(solution), steps, True, tol)
        recent = recent[-2:] + [solution.psi - datum]
        delta *= factor
    return ShrinkResult(_released(solution), steps, False, tol)


def _released(solution: StreamSolution | None) -> StreamSolution | None:
    """A solution returned from a continuation, without the factor its solves shared.

    A kept result would otherwise hold a whole band (67 MB at 512x128).
    """
    if solution is not None:
        solution.factor = None
    return solution


def _extrapolated_start(recent: list[np.ndarray], factor: float) -> np.ndarray:
    """Lagrange extrapolation to the next shield through the recent fields.

    recent[-k] belongs to delta / factor**k for the next delta, so in
    units of that delta its node is t_k = factor**-k and the weight of
    recent[-k] at t = 1 is prod_{j != k} (1 - t_j) / (t_k - t_j).  Exact
    when the field is a polynomial in delta of degree len(recent) - 1; a
    single field is returned unchanged.  The weights sum to 1, so adding the
    datum back to extrapolated deviations gives psi's extrapolation minus
    its error on the datum.
    """
    nodes = [factor ** -k for k in range(1, len(recent) + 1)]
    start = np.zeros_like(recent[-1])
    for k, t_k in enumerate(nodes):
        weight = np.prod([(1.0 - t_j) / (t_k - t_j) for j, t_j in enumerate(nodes) if j != k])
        start += weight * recent[-1 - k]
    return start


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
    the solve before it (_warm_start).  Failures are recorded, not raised."""
    points: list[SweepPoint] = []
    prev: StreamSolution | None = None
    for m0 in np.asarray(m0_values, dtype=float):
        if m0 < 0.0:
            raise ValueError("mass_flux_sweep: fluxes must be >= 0")
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
