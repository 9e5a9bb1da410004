"""Shield shrinking, flux sweeps, the critical flux, and the sonic approach."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from axinozzle import (
    GasModel,
    build_grid,
    find_critical_flux,
    make_profile,
    mass_flux_sweep,
    newton_solve,
    shrink_delta,
    sonic_limit_study,
)
import axinozzle.continuation as continuation
from axinozzle.continuation import (_SHRINK_MAX_STEPS, CriticalToleranceError,
                                    _critical_signal, _extrapolated_start)

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
    # the default schedule settles after three differences, so halve delta
    # instead to see six ratios
    grid = cylinder_grid()
    res = shrink_delta(grid, GAS, 0.3, factor=0.5)
    diffs = np.array([step.diff for step in res.steps[1:]])
    ratios = diffs[3:9] / diffs[2:8]
    assert len(ratios) == 6
    # the solution moves like delta, so halving delta halves the step
    assert np.all(np.abs(ratios - 0.5) < 0.1)


def test_shrink_delta_pipe_chain_takes_no_newton_steps():
    # in a pipe the datum at each shield is the exact discrete solution, so
    # every deviation is zero and every start meets the gradient tolerance
    res = shrink_delta(cylinder_grid(), GAS, 0.3)
    assert res.converged
    assert len(res.steps) == 4
    assert [step.iterations for step in res.steps] == [0, 0, 0, 0]


def test_shrink_delta_zero_flux():
    grid = cylinder_grid(nx=16, nr=8, length=2.0)
    res = shrink_delta(grid, GAS, 0.0)
    assert res.converged
    assert np.abs(res.solution.psi).max() == 0.0
    assert len(res.steps) == 2  # first comparison already lands at zero


def test_shrink_delta_schedule_independent():
    grid = cylinder_grid(nx=24, nr=10, length=2.0)
    m = 0.35
    a = shrink_delta(grid, GAS, m, factor=0.5)
    b = shrink_delta(grid, GAS, m, factor=0.35)
    assert a.converged and b.converged
    assert np.abs(a.solution.psi - b.solution.psi).max() < 20.0 * a.tol


@pytest.mark.parametrize("factor", [0.5, 0.35])
def test_extrapolated_start_is_exact_on_polynomials(factor):
    rng = np.random.default_rng(3)
    A, B, C = rng.standard_normal((3, 5, 4))
    delta = 0.02  # the next shield; the stored ones are delta / factor**k
    olds = [delta / factor**k for k in (3, 2, 1)]  # oldest first
    quad = [A + B * d + C * d**2 for d in olds]
    assert np.abs(_extrapolated_start(quad, factor)
                  - (A + B * delta + C * delta**2)).max() < 1e-13
    line = [A + B * d for d in olds[1:]]
    assert np.abs(_extrapolated_start(line, factor) - (A + B * delta)).max() < 1e-13
    assert np.array_equal(_extrapolated_start([A], factor), A)


def tanh_chain(**kwargs):
    prof = make_profile("tanh_step", a=0.8, ell=2.0)
    grid = build_grid(prof, length=16.0, nx=32, nr=8)
    return shrink_delta(grid, GAS, 0.25 * prof.b**2, **kwargs)


def test_shrink_delta_extrapolated_starts_halve_iterations():
    # extrapolating the deviation from the datum, the default chain takes 5
    # accepted steps ([3, 2, 0, 0]), chord steps included, and halving delta
    # takes 6 over 11 steps; extrapolating psi itself takes 7 and 8,
    # starting from the previous deviation alone 7 and 18, and misplacing
    # the nodes at t_k = factor**k 12 and 22.  The third step of the
    # halving chain starts at a gradient 3 per cent above tol, so rounding
    # may save it its one step
    for res, steps, bound in ((tanh_chain(), 4, 5), (tanh_chain(factor=0.5), 11, 6)):
        assert res.converged
        assert len(res.steps) == steps
        assert sum(step.iterations for step in res.steps) <= bound
    assert [step.iterations for step in tanh_chain().steps[2:]] == [0, 0]


def test_shrink_delta_reuses_cholesky_factors():
    # the chain's 5 accepted steps all use the one factor of its cold start
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
    # the last step moved by at most tol and later ones would shrink like
    # delta, so the chain sits within factor / (1 - factor) * tol, about
    # 0.02 tol, of its limit; 0.1 tol leaves room for the two gradient
    # tolerances
    if kind == "tanh_step":
        prof = make_profile(kind, a=radius, ell=shape)
    else:
        prof = make_profile(kind, a0=radius, h=bump, w=shape)
    grid = build_grid(prof, length=8.0, nx=24, nr=6)
    m = 0.5 * f * prof.b**2  # m0 = f pi b^2
    res = shrink_delta(grid, GAS, m)
    direct = newton_solve(grid, GAS, m)
    assert res.converged and direct.converged and not direct.cutoff_active
    assert np.abs(res.solution.psi - direct.psi).max() <= 0.1 * res.tol


def test_shrink_delta_stops_at_a_flagged_solve(monkeypatch):
    # no cheap real input fails a step, so the second solve is flagged by hand
    solves = []

    def flag_second(*args, **kwargs):
        solution = newton_solve(*args, **kwargs)
        solves.append(solution)
        return dataclasses.replace(solution, converged=len(solves) != 2)

    monkeypatch.setattr(continuation, "newton_solve", flag_second)
    res = tanh_chain()
    assert len(solves) == 2 and not res.converged
    assert len(res.steps) == 1  # the flagged step is not recorded
    assert not res.solution.converged and res.solution.factor is None


def test_shrink_delta_that_never_settles():
    # consecutive solves at delta and 0.9 delta never agree to 1e-300
    grid = cylinder_grid(nx=8, nr=4, length=1.0)
    res = shrink_delta(grid, GAS, 0.1, factor=0.9, tol=1e-300)
    assert not res.converged
    assert len(res.steps) == _SHRINK_MAX_STEPS
    assert all(step.diff > 0.0 for step in res.steps[1:])
    assert res.solution.converged and res.solution.factor is None


def test_shrink_delta_validation():
    grid = cylinder_grid(nx=8, nr=4, length=1.0)
    with pytest.raises(ValueError):
        shrink_delta(grid, GAS, 0.1, factor=1.5)
    for tol in (-1.0, 0.0, float("nan")):  # no diff <= tol: the chain would run 60 solves
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


def test_find_critical_flux_pipe_oracle():
    # the pipe chokes when rho U = m_tilde, i.e. at m0 = pi a^2 m_tilde
    grid = cylinder_grid(nx=48, nr=12, delta=1e-6)
    est = find_critical_flux(grid, GAS)
    oracle = np.pi * GAS.m_tilde
    assert est.width < 1e-3
    assert est.lo < oracle * 1.001
    assert est.hi > oracle * 0.999
    assert abs(est.midpoint - oracle) / oracle < 2e-3
    # lo is a probed solve that converged without the cutoff or the Mach signal
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
        assert p.reason in ("subcritical", "non_convergence", "cutoff", "mach")
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
    # the root lies 1-2% below the bound, so regula falsi runs; halving the
    # g of the end kept twice closes this bracket in 5 probes, plain regula
    # falsi needs 6
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.1, w=1.0), length=8.0,
                      nx=48, nr=12)
    est = find_critical_flux(grid, GAS)
    assert est.width <= 1e-4 * throat_bound(grid, GAS)
    assert [p.reason for p in est.probes].count("cutoff") >= 3
    assert len(est.probes) <= 5


def test_critical_signal_flags_mach_at_the_truncation_onset():
    # with m_tilde = 0.7 a node of this coarse bump reaches Mach m_tilde
    # while every cell stays below the cutoff and every node below sonic
    gas = GasModel(m_tilde=0.7)
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.3, w=1.0), length=8.0,
                      nx=16, nr=4, delta=1e-6)
    for m0, expected in ((1.08, "subcritical"), (1.12, "mach")):
        solution = newton_solve(grid, gas, m0 / (2.0 * np.pi))
        assert solution.converged and not solution.cutoff_active
        reason, flow = _critical_signal(solution, gas)
        assert reason == expected
        assert (flow.mach.max() >= gas.m_tilde) == (expected == "mach")


def test_find_critical_flux_classifies_supersonic_nodes_as_mach():
    # on a coarse bump the nodal momentum passes sonic before the cell
    # momentum reaches the cutoff; that probe is flagged, not an error
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.2, w=1.0), length=8.0,
                      nx=24, nr=6)
    est = find_critical_flux(grid, GAS)
    assert "mach" in [p.reason for p in est.probes]
    assert max(p.m0 for p in est.probes if p.reason == "subcritical") == est.lo


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
    if not flagged:
        for m0 in (est.hi, bound + 0.45 * (1e-12 * bound)):
            above = newton_solve(grid, gas, m0 / (2.0 * np.pi))
            assert above.cutoff_active or not above.converged
    # a Mach-flagged end carries no g, and the bracket then bisects
    if all(p.reason in ("subcritical", "cutoff") for p in est.probes):
        assert len(est.probes) <= 8


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
