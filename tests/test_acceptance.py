"""Acceptance suite: ten criteria, one test and one printed verdict each.

Run with `pytest -v -s tests/test_acceptance.py` to watch the verdict
lines; the default capture mode shows them for failing tests only.
Expensive solves (critical-flux brackets, the shield-shrink chain on the
fine grid) are shared through module-scoped fixtures.  Total runtime is
a couple of minutes on one core.
"""

import numpy as np
import pytest

from axinozzle import (
    GasModel,
    build_grid,
    entropy_pair_residual,
    far_field_error,
    find_critical_flux,
    flow_angle,
    flux_drift,
    make_profile,
    mass_flux_sweep,
    newton_solve,
    positivity_check,
    shrink_delta,
    sonic_limit_study,
    velocity_from_stream,
)
from axinozzle.cli import main as cli_main

TWO_PI = 2.0 * np.pi
GAS = GasModel()  # gamma 1.4, cutoff onset m_tilde 0.98


def announce(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def tanh_profile():
    return make_profile("tanh_step", a=0.8, ell=2.0)


@pytest.fixture(scope="module")
def tanh_bracket(tanh_profile):
    """Critical-flux bracket for the reference nozzle on a 128 x 32 grid."""
    grid = build_grid(tanh_profile, length=16.0, nx=128, nr=32, delta=1e-6)
    est = find_critical_flux(grid, GAS)
    assert 0.0 < est.lo < est.hi
    return grid, est


@pytest.fixture(scope="module")
def reference_run(tanh_profile, tanh_bracket):
    """Shield-shrink solve at half the critical flux on the 256 x 64 grid."""
    _, est = tanh_bracket
    m0 = 0.5 * est.lo
    grid = build_grid(tanh_profile, length=16.0, nx=256, nr=64)
    res = shrink_delta(grid, GAS, m0 / TWO_PI)
    assert res.converged
    flow = velocity_from_stream(res.solution, GAS)
    return res.solution, flow, m0


# ---------------------------------------------------------------- criteria

def test_criterion_01_gas_identities():
    worst_ident = 0.0
    worst_bern = 0.0
    bounds_ok = True
    for gamma in (1.2, 1.4, 5.0 / 3.0):
        gas = GasModel(gamma=gamma)
        q_sq = np.linspace(0.0, 1.0, 10_000)
        ident = np.abs(gas.density_from_momentum(gas.momentum_from_speed(q_sq))
                       - gas.density_from_speed(q_sq)).max()
        rho = gas.density_from_speed(q_sq)
        inv = gas.sound_speed_sq(rho) / (gamma - 1.0) + q_sq / 2.0
        bern = np.abs(inv - inv[0]).max()
        nu, lam = gas.ellipticity_bounds
        coeff = gas.truncated_density_from_speed(np.linspace(0.0, 2.0, 5001)).coefficient
        bounds_ok &= nu > 0.0 and np.all(coeff >= nu) and np.all(coeff <= lam)
        worst_ident = max(worst_ident, float(ident))
        worst_bern = max(worst_bern, float(bern))
    ok = worst_ident <= 1e-12 and worst_bern <= 1e-10 and bounds_ok
    announce(1, "gas-identities", ok,
             f"ident={worst_ident:.2e} bernoulli={worst_bern:.2e}")


def test_criterion_02_cylinder_exactness():
    # the shielded quadratic is an exact discrete solution, so the errors
    # normally sit at rounding level and the convergence order cannot be
    # measured; accept either the machine floor or order >= 1.9
    results = []
    for a in (1.0, 0.8):
        for delta in (0.05, 0.0125):
            m = 0.4 * a**2
            profile = make_profile("cylinder", a=a)

            def shielded(r, m=m, a=a, d=delta):
                return m * ((r + d) ** 2 - d**2) / ((a + d) ** 2 - d**2)

            errors = []
            for nx, nr in ((64, 16), (128, 32), (256, 64)):
                grid = build_grid(profile, length=4.0, nx=nx, nr=nr, delta=delta)
                sol = newton_solve(grid, GAS, m)
                assert sol.converged
                exact = shielded(grid.r_nodes)
                errors.append(float(np.sqrt(np.mean((sol.psi - exact) ** 2))))
            at_floor = max(errors) <= 1e-12 * max(1.0, m)
            if at_floor:
                order = np.inf
            else:
                order = min(np.log2(errors[k] / errors[k + 1]) for k in range(2))
            results.append((a, delta, max(errors), order, at_floor or order >= 1.9))
    ok = all(r[4] for r in results)
    worst = max(r[2] for r in results)
    announce(2, "cylinder-exactness", ok, f"worst rms={worst:.2e}")


def test_criterion_03_maximum_principle_and_barrier(reference_run):
    sol, _, _ = reference_run
    grid = sol.grid
    m = sol.m
    principle = max(0.0, float(-sol.psi.min()), float(sol.psi.max() - m))
    barrier = m * (grid.r_nodes + grid.delta) ** 2 / grid.profile.b**2
    violation = max(0.0, float((sol.psi - barrier).max()))
    ok = principle <= 1e-10 * max(1.0, m) and violation <= 10.0 * grid.h_max**2
    announce(3, "maximum-principle-and-barrier", ok,
             f"principle={principle:.2e} barrier={violation:.2e} "
             f"allow={10.0 * grid.h_max**2:.2e}")


def test_criterion_04_far_field(reference_run):
    _, flow, _ = reference_run
    left, right = far_field_error(flow, GAS)
    ok = left < 1e-3 and right < 1e-3
    announce(4, "far-field-uniformity", ok, f"left={left:.2e} right={right:.2e}")


def test_criterion_05_qualitative_estimates(reference_run):
    _, flow, _ = reference_run
    pos = positivity_check(flow)
    angle = flow_angle(flow)
    drift = flux_drift(flow)
    angle_ok = (angle.measured[0] >= angle.bounds[0] - 1e-3
                and angle.measured[1] <= angle.bounds[1] + 1e-3)
    ok = pos.min_u > 0.0 and angle_ok and drift < 1e-3
    announce(5, "qualitative-estimates", ok,
             f"minU={pos.min_u:.3e} angle={angle.measured} drift={drift:.2e}")


def test_criterion_06_sweep_monotonicity(tanh_bracket):
    grid, est = tanh_bracket
    m0s = est.lo * np.arange(1, 9) / 8.0
    points = mass_flux_sweep(grid, GAS, m0s)
    machs = np.array([p.mach_max for p in points])
    walls = np.array([p.wall_speed for p in points])
    ok = (all(p.converged for p in points)
          and np.all(np.diff(machs) >= -1e-6)
          and np.all(np.diff(walls) >= -1e-6))
    announce(6, "sweep-monotonicity", ok,
             f"M={machs.round(4).tolist()}")


def test_criterion_07_critical_flux_oracle():
    details = []
    ok = True
    for a in (1.0, 0.8):
        grid = build_grid(make_profile("cylinder", a=a), length=4.0,
                          nx=256, nr=64, delta=1e-6)
        est = find_critical_flux(grid, GAS)
        oracle = np.pi * a**2 * GAS.m_tilde
        rel = abs(est.midpoint - oracle) / oracle
        contains = est.lo - 0.02 * oracle <= oracle <= est.hi + 0.02 * oracle
        ok &= (est.lo < est.hi and contains and rel <= 0.02
               and est.width <= 1e-3 * est.midpoint)
        details.append(f"a={a}: [{est.lo:.5f},{est.hi:.5f}] oracle={oracle:.5f}")
    announce(7, "critical-flux-oracle", ok, "; ".join(details))


def test_criterion_08_sonic_limit_study(tanh_bracket):
    grid, est = tanh_bracket
    study = sonic_limit_study(grid, GAS, m0_anchor=est.lo, n_terms=6)
    vel = np.array(study.velocity_diffs)
    mom = np.array(study.momentum_diffs)
    ent_plus = np.array(study.entropy_plus)
    ent_minus = np.array(study.entropy_minus)
    ok = (len(vel) == 5 and np.all(np.diff(vel) < 0.0)
          and np.all(np.diff(mom) < 0.0)
          and np.all(ent_plus <= 2.0 * ent_plus[0])
          and np.all(ent_minus <= 2.0 * ent_minus[0]))
    announce(8, "sonic-limit-study", ok,
             f"vel={vel.round(5).tolist()} gap={study.gap_bound:.3f}")


def test_criterion_09_continuation_robustness(tanh_profile, tanh_bracket):
    _, est = tanh_bracket
    m = 0.5 * est.lo / TWO_PI
    grid = build_grid(tanh_profile, length=16.0, nx=96, nr=24)
    first = shrink_delta(grid, GAS, m, factor=0.5, tol=1e-9)
    second = shrink_delta(grid, GAS, m, factor=0.35, tol=1e-9)
    schedules = float(np.abs(first.solution.psi - second.solution.psi).max())

    work = grid.with_delta(1e-6)
    cold = newton_solve(work, GAS, m)
    half = newton_solve(work, GAS, 0.5 * m)
    warm = newton_solve(work, GAS, m, init=2.0 * half.psi)
    warm_cold = float(np.abs(cold.psi - warm.psi).max())

    rng = np.random.default_rng(17)
    init = m * work.sigma[None, :] ** 2 * np.ones((work.nx + 1, 1))
    init[1:-1, 1:-1] += 0.1 * m * rng.standard_normal((work.nx - 1, work.nr - 1))
    other = newton_solve(work, GAS, m, init=init)
    inits = float(np.abs(cold.psi - other.psi).max())

    ok = (first.converged and second.converged
          and schedules <= 1e-6 * m and warm_cold <= 1e-8 and inits <= 1e-8)
    announce(9, "continuation-robustness", ok,
             f"schedules={schedules:.2e} warm-cold={warm_cold:.2e} inits={inits:.2e}")


def test_criterion_10_reproducibility(tmp_path):
    config = """
[nozzle]
kind = cylinder
a = 1.0
length = 4

[grid]
nx = 48
nr = 12
delta = 1e-6

[flux]
{flux}
"""
    ok = True
    for command, flux, filename in (
        ("solve", "m0 = 1.0", "field.csv"),
        ("sweep", "sweep = 0.5, 1.5, 2.5", "sweep.csv"),
        ("critical", "critical = yes", "critical.txt"),
    ):
        path = tmp_path / f"{command}.ini"
        path.write_text(config.format(flux=flux))
        runs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{command}_{tag}"
            code = cli_main([command, "--config", str(path), "--out", str(out)])
            assert code == 0
            runs.append((out / filename).read_bytes())
        ok &= runs[0] == runs[1]
    announce(10, "reproducibility", ok, "solve, sweep, critical")
