"""Shield shrinking, flux sweeps, the critical flux, and the sonic approach."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from axinozzle import (
    GasModel,
    build_grid,
    cell_state,
    find_critical_flux,
    make_profile,
    mass_flux_sweep,
    newton_solve,
    shrink_delta,
    sonic_limit_study,
)
import axinozzle.continuation as continuation
import axinozzle.solver as solver
from axinozzle.continuation import CriticalToleranceError, _critical_signal

GAS = GasModel()


def cylinder_grid(nx=48, nr=12, a=1.0, length=4.0, delta=0.0):
    return build_grid(make_profile("cylinder", a=a), length=length,
                      nx=nx, nr=nr, delta=delta)


def test_shrink_delta_certifies_limit():
    grid = cylinder_grid()
    m = 0.3
    res = shrink_delta(grid, GAS, m)
    assert res.converged
    assert res.solution.grid.delta < 1e-4
    # the zero-shield limit for the straight pipe is m sigma^2
    flat = m * grid.sigma[None, :] ** 2 * np.ones((grid.nx + 1, 1))
    assert np.abs(res.solution.psi - flat).max() < 100.0 * res.tol


def test_shrink_delta_differences_scale_linearly():
    # cold solves at 2, 4, ..., 64 times the certificate's shield, measured
    # from the returned limit, continue the certificate's difference
    grid = cylinder_grid()
    m = 0.3
    res = shrink_delta(grid, GAS, m)
    assert res.converged
    delta_c, psi0 = res.steps[1].delta, res.solution.psi
    diffs = [res.steps[1].diff]
    for k in range(1, 7):
        solution = newton_solve(grid.with_delta(2.0**k * delta_c), GAS, m)
        assert solution.converged
        diffs.append(np.abs(solution.psi - psi0).max())
    ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
    assert len(ratios) == 6
    # the solution moves like delta, so halving delta halves the difference
    assert np.all(np.abs(ratios - 0.5) < 0.1)


def test_shrink_delta_pipe_chain_takes_no_newton_steps():
    # in a pipe the datum at each shield is the exact discrete solution, so
    # the deviation is zero and both starts meet the gradient tolerance
    res = shrink_delta(cylinder_grid(), GAS, 0.3)
    assert res.converged
    assert len(res.steps) == 2
    assert [step.iterations for step in res.steps] == [0, 0]


def test_shrink_delta_zero_flux():
    grid = cylinder_grid(nx=16, nr=8, length=2.0)
    res = shrink_delta(grid, GAS, 0.0)
    assert res.converged
    assert np.abs(res.solution.psi).max() == 0.0
    assert len(res.steps) == 2  # the delta = 0 solve and its certificate


def halving_chain(grid, m, tol):
    """psi at the end of a plain halving chain of cold shielded solves.

    delta = 1e-4 b * 0.5**k, run until consecutive solves differ by at most
    tol: a route to the shield limit independent of shrink_delta's.
    """
    delta, previous = 1e-4 * grid.profile.b, None
    for _ in range(40):
        solution = newton_solve(grid.with_delta(delta), GAS, m)
        assert solution.converged
        if previous is not None and np.abs(solution.psi - previous).max() <= tol:
            return solution.psi
        previous, delta = solution.psi, 0.5 * delta
    raise AssertionError("halving chain did not settle")


def test_shrink_delta_schedule_independent():
    grid = cylinder_grid(nx=24, nr=10, length=2.0)
    m = 0.35
    res = shrink_delta(grid, GAS, m)
    assert res.converged
    assert np.abs(res.solution.psi - halving_chain(grid, m, res.tol)).max() < 20.0 * res.tol


def tanh_chain(**kwargs):
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    grid = build_grid(prof, length=16.0, nx=32, nr=8)
    return shrink_delta(grid, GAS, 0.25 * prof.b**2, **kwargs)


def test_shrink_delta_extrapolated_starts_halve_iterations():
    # the shielded solve starts from psi0 plus the datum change, psi's
    # O(delta) axis term, so it takes one chord step on the cold solve's factor
    res = tanh_chain()
    assert res.converged
    assert [step.iterations for step in res.steps] == [3, 1]
    assert res.steps[1].factorizations == 0


def test_shrink_delta_reuses_cholesky_factors():
    # the 4 accepted steps all use the one factor of the cold start
    res = tanh_chain()
    assert res.converged
    assert res.steps[0].factorizations >= 1  # a cold start has no factor
    assert all(step.factorizations <= step.iterations for step in res.steps)
    assert sum(step.factorizations for step in res.steps) <= 2
    assert res.solution.factor is None  # a kept result holds no band


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["tanh_step", "bump"]), radius=st.floats(0.6, 1.4),
       shape=st.floats(0.5, 3.0), bump=st.floats(-0.3, 0.3), f=st.floats(0.05, 0.6))
def test_shrink_delta_limit_matches_unshielded_solve(kind, radius, shape, bump, f):
    # the answer is the direct delta = 0 solve, and the certificate's
    # difference is the first-order term of psi in delta: a cold solve at
    # ten times the shield lies ten times as far from psi0
    if kind == "tanh_step":
        prof = make_profile(kind, a=radius, ell=shape)
    else:
        prof = make_profile(kind, a0=radius, h=bump, w=shape)
    grid = build_grid(prof, length=8.0, nx=24, nr=6)
    m = 0.5 * f * prof.b**2  # m0 = f pi b^2
    res = shrink_delta(grid, GAS, m)
    direct = newton_solve(grid, GAS, m)
    assert res.converged and direct.converged and not direct.cutoff_active
    assert res.solution.psi.tobytes() == direct.psi.tobytes()
    delta_c, diff = res.steps[1].delta, res.steps[1].diff
    far = newton_solve(grid.with_delta(10.0 * delta_c), GAS, m)
    assert far.converged
    assert np.abs(far.psi - direct.psi).max() == pytest.approx(10.0 * diff, rel=1e-2)


def flag_solve(monkeypatch, which):
    """Flag shrink_delta's solve number which by hand; returns the list of
    solves newton_solve returned (no cheap real input fails a solve)."""
    solves = []

    def flagging(*args, **kwargs):
        solution = newton_solve(*args, **kwargs)
        solves.append(solution)
        return dataclasses.replace(solution, converged=len(solves) != which)

    monkeypatch.setattr(continuation, "newton_solve", flagging)
    return solves


def test_shrink_delta_stops_at_a_flagged_solve(monkeypatch):
    # a flagged delta = 0 solve is returned without a certificate
    solves = flag_solve(monkeypatch, 1)
    res = tanh_chain()
    assert len(solves) == 1 and len(res.steps) == 1 and not res.converged
    assert not res.solution.converged and res.solution.factor is None
    # a flagged shielded solve refuses the certificate of a converged answer
    solves = flag_solve(monkeypatch, 2)
    res = tanh_chain()
    assert len(solves) == 2 and len(res.steps) == 2 and not res.converged
    assert res.solution.converged and res.solution.factor is None


def test_shrink_delta_refuses_a_perturbed_answer(monkeypatch):
    # psi0 moved by 10 tol off the limit: the shielded solve moves it back
    tol = 1e-8
    solves = []

    def perturbing(*args, **kwargs):
        solution = newton_solve(*args, **kwargs)
        if not solves:
            solution.psi[1:-1, 1:-1] += 10.0 * tol
        solves.append(solution)
        return solution

    monkeypatch.setattr(continuation, "newton_solve", perturbing)
    res = tanh_chain(tol=tol)
    assert len(solves) == 2 and solves[1].converged
    assert res.solution.converged and not res.converged


def test_shrink_delta_takes_the_nodal_peak_once(monkeypatch):
    # each solve takes the off-axis nodal peak once, and the returned peak
    # is the one newton_solve gives that psi
    calls = []
    gradients = solver.nodal_gradients

    def counting(psi, grid):
        calls.append(grid.delta)
        return gradients(psi, grid)

    monkeypatch.setattr(solver, "nodal_gradients", counting)
    res = tanh_chain()
    monkeypatch.undo()
    sol = res.solution
    assert res.converged and len(res.steps) == 2
    assert calls == [0.0, res.steps[1].delta]
    psi_x, psi_r = gradients(sol.psi, sol.grid)
    nodal = (psi_x[:, 1:]**2 + psi_r[:, 1:]**2) / (sol.grid.r_nodes[:, 1:] + sol.grid.delta)**2
    peak = np.maximum(cell_state(sol.psi, sol.grid, GAS).s.max(), nodal.max())
    assert np.float64(sol.max_momentum_sq).view(np.int64) == peak.view(np.int64)
    assert sol.cutoff_active == (peak > GAS.s_lo)


def test_shrink_delta_that_never_settles():
    # the shielded solve takes a Newton step, so it moves by more than 1e-300
    res = tanh_chain(tol=1e-300)
    assert not res.converged
    assert len(res.steps) == 2 and res.steps[1].iterations >= 1
    assert res.solution.converged and res.solution.factor is None


def test_shrink_delta_validation():
    grid = cylinder_grid(nx=8, nr=4, length=1.0)
    for tol in (-1.0, 0.0, float("nan")):  # no move <= tol: nothing could be certified
        with pytest.raises(ValueError, match="tol must be > 0"):
            shrink_delta(grid, GAS, 0.1, tol=tol)


def test_mass_flux_sweep_matches_pipe_theory():
    grid = cylinder_grid(nx=32, nr=12, delta=1e-6)
    m0s = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    points = mass_flux_sweep(grid, GAS, m0s)
    assert len(points) == 5
    machs = np.array([point.mach_max for point in points])
    assert np.all(np.diff(machs) > 0.0)
    for point in points:
        s = (point.m0 / np.pi) ** 2
        q = np.sqrt(GAS.speed_from_momentum(s))
        rho = GAS.density_from_momentum(s)
        mach = q / np.sqrt(GAS.sound_speed_sq(rho))
        assert point.converged
        assert not point.cutoff_active
        assert point.mach_max == pytest.approx(mach, rel=1e-3)
        assert point.flux_drift < 1e-4
        assert max(point.far_field) < 1e-4


def test_mass_flux_sweep_flags_cutoff():
    grid = cylinder_grid(nx=32, nr=12, delta=1e-6)
    crit = np.pi * GAS.m_tilde
    points = mass_flux_sweep(grid, GAS, [0.9 * crit, 1.05 * crit])
    assert not points[0].cutoff_active
    assert points[1].cutoff_active


def test_mass_flux_sweep_warm_equals_cold():
    # a one-flux sweep starts from the datum, so it is the cold solve
    grid = cylinder_grid(nx=32, nr=12, delta=1e-6)
    m0s = [0.8, 1.6, 2.4]
    warm = mass_flux_sweep(grid, GAS, m0s)
    cold = [mass_flux_sweep(grid, GAS, [m0])[0] for m0 in m0s]
    for a, b in zip(warm, cold):
        assert a.mach_max == pytest.approx(b.mach_max, abs=1e-8)
        assert a.wall_speed == pytest.approx(b.wall_speed, abs=1e-8)


def test_mass_flux_sweep_rejects_negative():
    grid = cylinder_grid(nx=8, nr=4, length=1.0)
    with pytest.raises(ValueError):
        mass_flux_sweep(grid, GAS, [-1.0])


def test_mass_flux_sweep_checks_every_flux_before_solving(monkeypatch):
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[2])
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", counting)
    grid = cylinder_grid(nx=8, nr=4, length=1.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mass_flux_sweep: fluxes must be finite"):
            mass_flux_sweep(grid, GAS, [0.5, bad])
    assert solves == []


def test_find_critical_flux_pipe_oracle():
    # the pipe chokes when rho U = m_tilde, i.e. at m0 = pi a^2 m_tilde
    grid = cylinder_grid(nx=48, nr=12, delta=1e-6)
    est = find_critical_flux(grid, GAS)
    oracle = np.pi * GAS.m_tilde
    assert est.width < 1e-3
    assert est.lo < oracle * 1.001
    assert est.hi > oracle * 0.999
    assert abs(est.midpoint - oracle) / oracle < 2e-3
    # lo is a probed solve that converged without the cutoff
    assert [p.reason for p in est.probes if p.m0 == est.lo] == ["subcritical"]


def test_find_critical_flux_scales_with_radius():
    grid = cylinder_grid(nx=32, nr=12, a=0.8, delta=1e-6)
    est = find_critical_flux(grid, GAS)
    oracle = np.pi * 0.64 * GAS.m_tilde
    assert abs(est.midpoint - oracle) / oracle < 2e-3


def test_find_critical_flux_probe_count():
    # regula falsi on the distance to the cutoff; bisection needed 16 probes
    grid = build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=16.0,
                      nx=32, nr=8, delta=1e-6)
    est = find_critical_flux(grid, GAS)
    assert len(est.probes) <= 8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 1.5), gamma=st.floats(1.05, 3.0),
       m_tilde=st.floats(0.9, 0.99))
def test_find_critical_flux_brackets_cylinder_oracle(a, gamma, m_tilde):
    # the discrete pipe flow is exact, so the cutoff engages at pi a^2 m_tilde
    gas = GasModel(gamma=gamma, m_tilde=m_tilde)
    grid = cylinder_grid(nx=8, nr=4, a=a, length=1.0)
    est = find_critical_flux(grid, gas)
    oracle = np.pi * a**2 * m_tilde
    assert est.lo <= oracle <= est.hi
    assert est.width <= 1e-4 * oracle  # the default tol
    # the record agrees with the bracket: lo is the largest subcritical
    # probe and hi the smallest flagged one, or the throat bound
    assert len(est.probes) <= 8
    sub = [p.m0 for p in est.probes if p.reason == "subcritical"]
    flagged = [p.m0 for p in est.probes if p.reason != "subcritical"]
    bound = throat_bound(grid, gas)
    assert max(sub) == est.lo
    assert est.hi == min(flagged, default=bound + 0.45 * (1e-4 * bound))
    for p in est.probes:
        assert p.reason in ("subcritical", "non_convergence", "cutoff")
        if p.reason != "non_convergence":
            assert (p.reason == "cutoff") == (p.max_momentum_sq > gas.s_lo)


def throat_bound(grid, gas):
    """pi m_tilde min f_c (f_c + 2 delta): no subcritical solve carries more."""
    return np.pi * gas.m_tilde * float((grid.fc * (grid.fc + 2.0 * grid.delta)).min())


def test_find_critical_flux_start_closes_tanh_bracket():
    # a tanh step meets the throat bound to within the tolerance, so one
    # subcritical probe just below it closes the bracket, whose upper end
    # is the bound itself and needs no solve
    grid = build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=16.0,
                      nx=32, nr=8, delta=1e-6)
    est = find_critical_flux(grid, GAS)
    bound = throat_bound(grid, GAS)
    assert [p.reason for p in est.probes] == ["subcritical"]
    assert est.probes[0].m0 == est.lo
    assert est.lo < bound < est.hi == bound + 0.45 * (1e-4 * bound)
    assert est.width <= 1e-4 * bound


@pytest.mark.parametrize("grid", [
    cylinder_grid(nx=16, nr=4, length=2.0, delta=0.1),
    build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=16.0, nx=128, nr=32, delta=1e-2),
], ids=["cylinder", "tanh"])
def test_shielded_bracket_closes_in_one_probe(grid):
    # the datum is the shielded uniform flow, which attains B at the ends;
    # with the unshielded datum m sigma^2 the end columns reach m_tilde
    # first, and these brackets took 17 and 16 probes
    est = find_critical_flux(grid, GAS)
    bound = throat_bound(grid, GAS)
    assert [p.reason for p in est.probes] == ["subcritical"]
    assert est.lo < bound < est.hi and est.width <= 1e-4 * bound


def test_find_critical_flux_illinois_saves_a_probe():
    # the root lies about 2% below the bound and g is convex in m0, so plain
    # regula falsi keeps the flagged first probe as hi and creeps up from
    # below; halving the g of the end kept twice closes this bracket in 6
    # probes, plain regula falsi needs 11
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.25, w=1.0), length=8.0,
                      nx=48, nr=12)
    est = find_critical_flux(grid, GAS)
    assert est.width <= 1e-4 * throat_bound(grid, GAS)
    assert [p.reason for p in est.probes].count("subcritical") >= 3
    assert len(est.probes) <= 6


def test_critical_signal_flags_a_node_past_the_cutoff():
    # on this coarse bump a wall node passes s_lo while every cell stays
    # below it; that solve is past the cutoff all the same
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.2, w=1.0), length=8.0,
                      nx=24, nr=6)
    for m0, expected in ((1.7, "subcritical"), (1.85, "cutoff")):
        solution = newton_solve(grid, GAS, m0 / (2.0 * np.pi))
        assert solution.converged
        assert cell_state(solution.psi, grid, GAS).s.max() <= GAS.s_lo
        assert _critical_signal(solution) == expected


@pytest.mark.parametrize("h, nx, max_probes", [(-0.2, 24, 7), (-0.25, 48, 6), (-0.3, 64, 6)],
                         ids=["24x6", "48x12", "64x16"])
def test_find_critical_flux_closes_bump_brackets_without_bisection(h, nx, max_probes):
    # on these coarse bumps the nodal momentum passes s_lo before the cell
    # momentum does; judged by the cells alone, those probes carried no
    # distance to the cutoff and each bracket bisected for 16 probes.  The
    # first probe, just below the throat bound, is flagged; g is convex in
    # m0, so the secant from the rest state (m0 = 0, g = -s_lo) lands below
    # the root, and a step-down from the first probe took one probe more
    grid = build_grid(make_profile("bump", a0=1.0, h=h, w=1.0), length=8.0,
                      nx=nx, nr=nx // 4)
    est = find_critical_flux(grid, GAS)
    reasons = [p.reason for p in est.probes]
    assert set(reasons) == {"subcritical", "cutoff"}
    assert reasons[:2] == ["cutoff", "subcritical"]
    assert len(est.probes) <= max_probes
    assert max(p.m0 for p in est.probes if p.reason == "subcritical") == est.lo


def test_find_critical_flux_starts_from_the_rest_state(monkeypatch):
    # the rest state m0 = 0 is a subcritical end that takes no solve: with
    # room for one probe, flagged on this bump, lo stays 0 and hi is that
    # probe
    monkeypatch.setattr(continuation, "_CRITICAL_MAX_PROBES", 1)
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.2, w=1.0), length=8.0,
                      nx=24, nr=6)
    est = find_critical_flux(grid, GAS)
    assert [p.reason for p in est.probes] == ["cutoff"]
    assert est.lo == 0.0 and est.hi == est.probes[0].m0


@pytest.mark.parametrize("tol", [0.0, -0.5, float("nan")])
def test_find_critical_flux_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tol must be > 0"):
        find_critical_flux(cylinder_grid(nx=8, nr=4, length=1.0), GAS, tol=tol)


@pytest.mark.parametrize("grid", [
    cylinder_grid(nx=8, nr=4, length=1.0),
    build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=16.0, nx=32, nr=8, delta=1e-6),
], ids=["cylinder", "tanh"])
def test_find_critical_flux_at_the_tolerance_floor(grid):
    # 1e-12 B is the smallest tol accepted; the bracket still closes to it
    tol = 1e-12 * throat_bound(grid, GAS)
    est = find_critical_flux(grid, GAS, tol=tol)
    assert 0.0 < est.lo < est.hi and est.width <= tol
    with pytest.raises(ValueError, match="tol must be > 0"):
        find_critical_flux(grid, GAS, tol=0.99 * tol)


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
def test_find_critical_flux_tol_comparable_to_bound(scale):
    # a tol of B or more would bracket [0, B + 0.45 tol] without a probe
    grid = cylinder_grid(nx=8, nr=4, length=1.0)
    tol = scale * throat_bound(grid, GAS)
    if scale >= 1.0:
        with pytest.raises(CriticalToleranceError, match="below B"):
            find_critical_flux(grid, GAS, tol=tol)
        return
    est = find_critical_flux(grid, GAS, tol=tol)
    assert 0.0 < est.lo < est.hi and est.width <= tol and len(est.probes) >= 1


THROAT_WALLS = st.one_of(
    st.builds(lambda a, ell: make_profile("tanh_step", a=a, ell=ell),
              st.floats(0.5, 1.0), st.floats(0.5, 3.0)),
    st.builds(lambda h, w: make_profile("bump", a0=1.0, h=h, w=w),
              st.floats(-0.3, 0.3), st.floats(1.0, 2.0)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(profile=THROAT_WALLS, gamma=st.floats(1.0, 3.0, exclude_min=True),
       m_tilde=st.floats(0.9, 0.99), nx=st.sampled_from([16, 24, 32, 48]),
       delta=st.sampled_from([0.0, 1e-6, 1e-2]))
# a coarse narrow bump, whose wall nodes pass s_lo first: the most probes seen
@example(profile=make_profile("bump", a0=1.0, h=-0.28125, w=1.0), gamma=2.0,
         m_tilde=0.9375, nx=16, delta=0.0)
def test_critical_bracket_respects_throat_bound(profile, gamma, m_tilde, nx, delta):
    # no subcritical solve carries more than the throat bound B, so hi is
    # the smallest flagged probe or B + 0.45 tol, which needs no solve: a
    # cold solve there is flagged, and so is one at the tolerance floor
    assume(gamma - 1.0 >= np.sqrt(np.finfo(float).eps))  # GasModel refuses the rest
    gas = GasModel(gamma=gamma, m_tilde=m_tilde)
    grid = build_grid(profile, length=8.0, nx=nx, nr=nx // 4, delta=delta)
    est = find_critical_flux(grid, gas)
    bound = throat_bound(grid, gas)
    tol = 1e-4 * bound  # the default
    assert est.lo <= bound * (1.0 + 1e-6)
    assert est.width <= tol
    sub = [p.m0 for p in est.probes if p.reason == "subcritical"]
    flagged = [p.m0 for p in est.probes if p.reason != "subcritical"]
    assert max(sub) == est.lo
    assert est.hi == min(flagged, default=bound + 0.45 * tol)
    for p in est.probes:
        if p.reason != "non_convergence":
            assert (p.reason == "cutoff") == (p.max_momentum_sq > gas.s_lo)
    if not flagged:
        for m0 in (est.hi, bound + 0.45 * (1e-12 * bound)):
            above = newton_solve(grid, gas, m0 / (2.0 * np.pi))
            assert above.cutoff_active or not above.converged
    assert len(est.probes) <= 7  # the draws and the example take up to 7


def test_sonic_limit_study_certifies():
    grid = cylinder_grid(nx=48, nr=16, delta=1e-6)
    est = find_critical_flux(grid, GAS)
    study = sonic_limit_study(grid, GAS, m0_anchor=est.lo, n_terms=7)
    assert study.certified, study.reasons
    machs = np.array(study.mach_values)
    assert np.all(np.diff(machs) > 0.0)
    diffs = np.array(study.velocity_diffs)
    assert np.all(np.diff(diffs) < 0.0)
    # momentum differences halve with the flux gap on the pipe
    mom = np.array(study.momentum_diffs)
    assert np.all(np.abs(mom[1:] / mom[:-1] - 0.5) < 0.15)
    assert study.gap_bound <= 10.0 * (1.0 - GAS.m_tilde)
    assert len(study.entropy_plus) == 7


@pytest.fixture(scope="module")
def tanh_64x16():
    grid = build_grid(make_profile("tanh_step", a=0.8, ell=2.0), length=16.0,
                      nx=64, nr=16, delta=1e-6)
    return grid, find_critical_flux(grid, GAS)


def test_sonic_limit_study_certifies_from_the_bracket(tanh_64x16):
    grid, est = tanh_64x16
    study = sonic_limit_study(grid, GAS, m0_anchor=est.lo)
    assert study.certified, study.reasons
    assert len(study.mach_values) == 6 and max(study.mach_values) < GAS.m_tilde


@pytest.mark.parametrize("scale", [1.1, 1.3])
def test_sonic_limit_study_refuses_a_supercritical_anchor(tanh_64x16, scale):
    # the study stops at its first solve past the cutoff; both anchors
    # were certified when only a failed solve stopped it, 1.3 lo with
    # max Mach 1.13 and a negative gap bound
    grid, est = tanh_64x16
    study = sonic_limit_study(grid, GAS, m0_anchor=scale * est.lo)
    assert not study.certified
    (key, m0), = study.reasons.items()
    assert key == "cutoff_at" and est.lo < m0 < scale * est.lo
    assert np.isnan(study.gap_bound)
    assert len(study.mach_values) < 6 and max(study.mach_values) < GAS.m_tilde


def test_sonic_limit_study_refuses_a_wide_sonic_gap(tanh_64x16):
    # half the critical flux converges in the Cauchy sense but stays far
    # from sonic
    grid, est = tanh_64x16
    study = sonic_limit_study(grid, GAS, m0_anchor=0.5 * est.lo)
    assert not study.certified
    assert list(study.reasons) == ["sonic_gap_too_wide"]
    assert study.gap_bound > 10.0 * (1.0 - GAS.m_tilde)


def test_sonic_limit_study_validation():
    grid = cylinder_grid(nx=8, nr=4, length=1.0)
    for n_terms in (1, 2):  # two terms give one difference, which cannot shrink
        with pytest.raises(ValueError, match="at least three terms"):
            sonic_limit_study(grid, GAS, m0_anchor=1.0, n_terms=n_terms)
    # the default window r in [0.06, 0.24] falls between this grid's radii
    grid = build_grid(make_profile("tanh_step", a=0.3, ell=2.0), length=8.0, nx=2, nr=2)
    with pytest.raises(ValueError, match="window contains no grid nodes"):
        sonic_limit_study(grid, GAS, m0_anchor=0.1)
