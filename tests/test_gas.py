"""Gas model tests against independently computed reference values.

The frozen constants below were produced by a separate mpmath script at
40 decimal digits: the density-speed and density-momentum relations were
solved there by bisection on the exact algebraic forms, and the coenergy
integral by adaptive quadrature.  The near-fold densities and speeds at
s = 1 - 2e-4 and s = 1 - 1e-8 were recomputed the same way with mpmath
(q^2 = s / rho^2 at the mpmath root).  The branch density and the coenergy
are also checked against mpmath directly, over dense s.  Everything else is
checked through identities, dense deterministic sampling, and a
derandomized property test over gamma and m_tilde.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import axinozzle.gas as gas_module
from axinozzle import GasModel
from test_solver import run_fresh


GAS = GasModel()  # gamma = 1.4, m_tilde = 0.98, quintic blend


def test_validation():
    with pytest.raises(ValueError):
        GasModel(gamma=1.0)
    with pytest.raises(ValueError):
        GasModel(m_tilde=1.0)
    with pytest.raises(ValueError):
        GasModel(m_tilde=0.0)
    with pytest.raises(ValueError):  # the relations would lose over half the digits
        GasModel(gamma=1.0 + 1e-9)
    GasModel(gamma=1.0 + 2.0**27)  # 2 / (gamma - 1) keeps half its digits in 1 + 2 / (gamma - 1)
    for gamma in (2.0 + 2.0**27, 1e20, 1e300):  # 1e20 gave a non-finite Hessian
        with pytest.raises(ValueError):
            GasModel(gamma=gamma)
    for s in (-1e-3, 1.0 + 1e-12, np.nan):
        with pytest.raises(ValueError):
            GAS.density_from_momentum(s)
    # x < lo is False for NaN, so each check is written as not all(inside)
    for relation in (GAS.density_from_speed, GAS.momentum_from_speed,
                     GAS.pressure, GAS.sound_speed_sq):
        with pytest.raises(ValueError):
            relation(np.nan)


@pytest.mark.parametrize("name", [
    "truncated_density_from_momentum", "coenergy", "coenergy_bundle",
])
def test_truncated_views_refuse_nan(name):
    # s < 0 is False for NaN, so the evaluator tests s >= 0 instead
    with pytest.raises(ValueError, match=f"^{name}: "):
        getattr(GAS, name)(np.array([np.nan, 0.5]))


def test_stagnation_density():
    # ((gamma + 1) / 2) ** (1 / (gamma - 1)), mpmath 40 digits
    assert GAS.rho_stag == pytest.approx(1.5774409656148784, rel=1e-15, abs=0.0)
    # gamma = 1.2 gives the exact value 1.1 ** 5
    assert GasModel(gamma=1.2).rho_stag == pytest.approx(1.1**5, rel=1e-15, abs=0.0)
    assert GasModel(gamma=5.0 / 3.0).rho_stag == pytest.approx(
        1.5396007178390020, rel=1e-14, abs=0.0)


def test_truncation_knots():
    assert GAS.s_lo == pytest.approx(0.98**2, rel=1e-15, abs=0.0)
    assert GAS.s_hi == pytest.approx(0.99**2, rel=1e-15, abs=0.0)
    assert 1.0 < GAS.rho_hi < GAS.rho_stag


def test_density_from_speed_reference():
    # mpmath: ((gamma + 1 - (gamma - 1) q^2) / 2) ** (1 / (gamma - 1)) at q^2 = 1/4
    assert GAS.density_from_speed(0.25) == pytest.approx(1.4182232502324872, rel=1e-15, abs=0.0)
    assert GAS.density_from_speed(0.0) == pytest.approx(GAS.rho_stag, rel=1e-15, abs=0.0)
    assert GAS.density_from_speed(1.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_momentum_from_speed_reference():
    # exact rationals for gamma = 1.4: 1.15**5 / 4 and 1.1**5 / 2
    assert GAS.momentum_from_speed(0.25) == pytest.approx(0.502839296875, rel=1e-15, abs=0.0)
    assert GAS.momentum_from_speed(0.5) == pytest.approx(0.805255, rel=1e-15, abs=0.0)
    assert GAS.momentum_from_speed(1.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert GAS.momentum_from_speed(0.0) == 0.0


def test_speed_from_momentum_reference():
    # mpmath bisection on the subsonic branch
    assert GAS.speed_from_momentum(0.25) == pytest.approx(0.11022959257491243, rel=1e-13, abs=0.0)
    assert GAS.speed_from_momentum(0.5) == pytest.approx(0.24819953835270634, rel=1e-13, abs=0.0)
    assert GAS.speed_from_momentum(0.0) == 0.0
    # near the sonic fold, q^2 = s / rho^2 at the mpmath root
    for s, q_sq in ((1.0 - 2e-4, 0.9818307603610535), (1.0 - 1e-8, 0.9998709049989931)):
        assert GAS.speed_from_momentum(s) == pytest.approx(q_sq, rel=2e-15, abs=0.0)


def test_speed_momentum_round_trip():
    q_sq = np.linspace(0.0, 1.0, 2001)
    back = GAS.speed_from_momentum(GAS.momentum_from_speed(q_sq))
    assert np.abs(back - q_sq).max() < 5e-11


def test_momentum_of_speed_monotone():
    q_sq = np.linspace(0.0, 1.0, 4001)
    values = GAS.momentum_from_speed(q_sq)
    assert np.all(np.diff(values) > 0.0)
    assert values[-1] == pytest.approx(1.0, abs=1e-13)


def test_density_from_momentum_reference():
    # mpmath: subsonic root of s = rho^2 (gamma + 1 - 2 rho^(gamma-1)) / (gamma - 1)
    assert GAS.density_from_momentum(0.5) == pytest.approx(1.4193337094766558, rel=1e-13, abs=0.0)
    assert GAS.density_from_momentum(0.0) == pytest.approx(GAS.rho_stag, rel=1e-13, abs=0.0)
    assert GAS.density_from_momentum(1.0) == pytest.approx(1.0, abs=1e-10)
    # near the sonic fold, where the slope of the momentum map vanishes
    for s, rho in ((1.0 - 2e-4, 1.0091093939029798), (1.0 - 1e-8, 1.0000645487504227)):
        assert GAS.density_from_momentum(s) == pytest.approx(rho, rel=2e-15, abs=0.0)


def test_density_momentum_consistency():
    # H(G(q^2)) must equal g(q^2) on the subsonic branch
    q_sq = np.linspace(0.0, 1.0, 1501)
    lhs = GAS.density_from_momentum(GAS.momentum_from_speed(q_sq))
    rhs = GAS.density_from_speed(q_sq)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_density_relation_decreasing():
    s = np.linspace(0.0, 1.0, 3001)
    rho = GAS.density_from_momentum(s)
    assert np.all(np.diff(rho) < 0.0)


def test_truncated_matches_exact_below_onset():
    s = np.linspace(0.0, GAS.s_lo, 1201)
    exact = GAS.density_from_momentum(s)
    trunc = GAS.truncated_density_from_momentum(s)
    assert np.abs(exact - trunc).max() < 1e-14


def test_truncated_constant_above_upper_knot():
    s = np.linspace(GAS.s_hi, 4.0, 500)
    trunc = GAS.truncated_density_from_momentum(s)
    assert np.abs(trunc - GAS.rho_hi).max() == 0.0
    e = GAS._evaluate(s, "_evaluate")
    assert np.abs(e.slope).max() == 0.0
    assert np.abs(truncated_curvature(s)).max() == 0.0


def test_truncated_relation_monotone_everywhere():
    s = np.linspace(0.0, 1.5, 6001)
    rho = GAS.truncated_density_from_momentum(s)
    assert np.all(np.diff(rho) <= 0.0)
    assert np.all(rho >= GAS.rho_hi - 1e-15)
    assert np.all(rho <= GAS.rho_stag + 1e-15)


def truncated_curvature(s):
    """Htilde'' at squared momenta s, which the package itself never reads.

    Below the blend it is the branch formula -c (1 - gamma p) / d^3, with
    c = 2 (gamma + 1) / (gamma - 1), p = rho^(gamma - 1) and d = c rho (1 - p);
    on the blend the second derivative of the quintic _blend_coeffs; 0 on
    the constant tail.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    rho = GAS.truncated_density_from_momentum(s)
    g = GAS.gamma
    c = 2.0 * (g + 1.0) / (g - 1.0)
    p = rho ** (g - 1.0)
    d = c * rho * (1.0 - p)
    branch = -c * (1.0 - g * p) / (d * d * d)
    h = GAS.s_hi - GAS.s_lo
    t = (s - GAS.s_lo) / h
    a = GAS._blend_coeffs
    blend = (2.0 * a[2] + t * (6.0 * a[3] + t * (12.0 * a[4] + t * 20.0 * a[5]))) / h**2
    return np.where(s < GAS.s_lo, branch, np.where(s < GAS.s_hi, blend, 0.0))


def truncated_relation(s):
    """Htilde, Htilde' and Htilde'' at one squared momentum s."""
    e = GAS._evaluate(s, "_evaluate")
    return float(e.rho[0]), float(e.slope[0]), float(truncated_curvature(s)[0])


def test_blend_is_twice_differentiable_at_knots():
    # value, slope, curvature from mpmath at the lower knot
    rho, slope, curvature = truncated_relation(GAS.s_lo)
    assert rho == pytest.approx(1.1249262083661680, rel=1e-13, abs=0.0)
    assert slope == pytest.approx(-1.5364873451402236, rel=1e-11)
    assert curvature == pytest.approx(-20.349248698341846, rel=1e-9)
    # one-sided limits agree across both knots; the allowance per derivative
    # is eps times the next derivative's magnitude, large for the curvature
    eps = 1e-9
    for knot in (GAS.s_lo, GAS.s_hi):
        left = truncated_relation(knot - eps)
        right = truncated_relation(knot + eps)
        for a, b, allow in zip(left, right, (1e-8, 1e-6, 2e-3)):
            assert abs(a - b) < allow


def test_blend_monotone_for_parameter_grid():
    for gamma in (1.2, 1.4, 5.0 / 3.0):
        for m_tilde in (0.9, 0.95, 0.98, 0.99):
            gas = GasModel(gamma=gamma, m_tilde=m_tilde)
            t = np.linspace(gas.s_lo, gas.s_hi, 2001)
            rho = gas.truncated_density_from_momentum(t)
            assert np.all(np.diff(rho) <= 1e-13), (gamma, m_tilde)


def test_coenergy_reference_value():
    # mpmath adaptive quadrature of the inverse truncated relation
    assert GAS.coenergy(0.3) == pytest.approx(0.19545988821658587, rel=1e-13, abs=0.0)
    assert GAS.coenergy(0.0) == 0.0


def test_coenergy_derivative_consistency():
    s = np.linspace(1e-4, 1.3, 800)
    eps = 1e-6
    fd = (GAS.coenergy(s + eps) - GAS.coenergy(s - eps)) / (2.0 * eps)
    prime = GAS.coenergy_bundle(s).prime
    assert np.abs(fd - prime).max() < 1e-8
    # and the stored derivative is the reciprocal of the density relation
    assert np.abs(prime - 1.0 / GAS.truncated_density_from_momentum(s)).max() < 1e-14


def test_coenergy_convex():
    s = np.linspace(0.0, 1.5, 3001)
    assert np.all(GAS.coenergy_bundle(s).second >= 0.0)
    values = GAS.coenergy(s)
    # second differences of a convex function are nonnegative
    assert np.all(np.diff(values, 2) >= -1e-15)


def test_coenergy_small_momentum_expansion():
    # F(s) = s / rho_stag + O(s^2) near rest
    s = np.array([1e-6, 1e-5, 1e-4])
    err = np.abs(GAS.coenergy(s) - s / GAS.rho_stag)
    assert np.all(err < 5.0 * s**2)


def test_coenergy_bundle_matches_parts():
    s = np.linspace(0.0, 1.4, 700)
    bundle = GAS.coenergy_bundle(s)
    assert np.abs(bundle.value - GAS.coenergy(s)).max() == 0.0
    assert np.abs(bundle.prime - 1.0 / GAS.truncated_density_from_momentum(s)).max() == 0.0
    e = GAS._evaluate(s, "_evaluate")
    assert np.abs(bundle.second - -e.slope / e.rho**2).max() == 0.0


def ellipticity_coefficient(gas, s):
    """H^2 / (H - 2 H' s), the inverse of the coenergy Hessian's eigenvalue F' + 2 s F''."""
    hess = gas.coenergy_bundle(s)
    return 1.0 / (hess.prime + 2.0 * s * hess.second)


def test_ellipticity_coefficient_reference():
    # ellipticity coefficient at s = 0.5 (q^2 = Ginv(0.5)), mpmath value
    assert ellipticity_coefficient(GAS, np.array([0.5]))[0] == pytest.approx(
        1.1131009274030152, rel=1e-10)


def test_blend_readers_skip_the_coenergy_quadrature(monkeypatch):
    # the truncated density and the ellipticity bounds read only Htilde and
    # Htilde', so on blend points the 24-point coenergy quadrature never
    # runs, not even for the knots
    gas = GasModel(gamma=1.3)
    s = np.linspace(gas.s_lo, gas.s_hi, 101)
    quadrature = GasModel._coenergy_blend_tail
    calls = []

    def counting(self, s):
        calls.append(s.size)
        return quadrature(self, s)

    monkeypatch.setattr(GasModel, "_coenergy_blend_tail", counting)
    gas.truncated_density_from_momentum(s)
    gas.ellipticity_bounds
    assert len(calls) == 0
    gas.coenergy(s)  # the counter sees the quadrature: the upper knot, then the blend points
    assert calls == [1, 100]


BLEND_CONSTANTS = ("_coenergy_knots", "_blend_coeffs", "_gauss_nodes", "rho_hi")


def test_branch_only_evaluation_builds_no_blend_constants():
    # a certified subsonic state has every s below s_lo; evaluating it
    # must not pay for the blend and tail constants
    gas = GasModel(gamma=1.3, m_tilde=0.95)
    s = np.linspace(0.0, gas.s_lo, 301)[:-1]
    gas.coenergy_bundle(s)
    gas.truncated_density_from_momentum(s)
    assert [name for name in BLEND_CONSTANTS if name in gas.__dict__] == []
    gas.coenergy(gas.s_lo)  # the lower knot is a blend point
    assert all(name in gas.__dict__ for name in BLEND_CONSTANTS)


def test_mixed_bundle_equals_each_branch_alone():
    below = np.linspace(0.0, GAS.s_lo, 41)[:-1]
    knots = np.array([GAS.s_lo, GAS.s_hi])
    blend = np.linspace(GAS.s_lo, GAS.s_hi, 23)[1:-1]
    tail = np.linspace(GAS.s_hi, 3.0, 17)[1:]
    parts = (below, knots, blend, tail)
    mixed = np.concatenate(parts)
    order = np.random.default_rng(5).permutation(mixed.size)
    whole = GAS.coenergy_bundle(mixed[order])
    position = np.argsort(order)  # of each entry of mixed in the shuffled array
    start = 0
    for part in parts:
        where = position[start:start + part.size]
        for a, b in zip(whole, GAS.coenergy_bundle(part)):
            assert np.array_equal(a[where], b)
        start += part.size


@pytest.mark.parametrize("blocks, extra", [(2, 0), (2, 1), (3, 17)])
def test_blocked_readers_match_single_calls(blocks, extra):
    # past two blocks of _GAS_BLOCK points the public readers evaluate one
    # block at a time; every value must carry the bits a short single call
    # gives it.  The rest state, the blend knots, blend and tail points and
    # s = 1 sit in the first block and in the last, partial one.
    n = blocks * gas_module._GAS_BLOCK + extra
    gas = GasModel()  # its blend and knot constants are built in the first block
    special = np.array([0.0, gas.s_lo, np.nextafter(gas.s_lo, 0.0), 0.5 * (gas.s_lo + gas.s_hi),
                        gas.s_hi, 1.0, 3.0])
    s = np.random.default_rng(n).uniform(0.0, 1.2, n)
    s[:special.size] = s[-special.size:] = special
    chunks = range(0, n, 1000)  # single calls: 1000 points are below two blocks
    for name in ("coenergy_bundle", "truncated_density_from_momentum", "coenergy"):
        got = getattr(gas, name)(s)
        parts = [getattr(GAS, name)(s[i:i + 1000]) for i in chunks]
        for k, got_k in enumerate(got if name == "coenergy_bundle" else [got]):
            want = np.concatenate([p[k] if name == "coenergy_bundle" else p for p in parts])
            assert got_k.shape == s.shape
            assert np.array_equal(got_k.view(np.uint64), want.view(np.uint64)), name
    assert gas.coenergy(s.reshape(-1, 1)).shape == (n, 1)
    for bad in (-1e-300, np.nan):
        s[-1] = bad
        for name in ("coenergy_bundle", "truncated_density_from_momentum", "coenergy"):
            with pytest.raises(ValueError, match=f"^{name}: s must be >= 0$"):
                getattr(gas, name)(s)


def test_branch_root_entries_do_not_see_each_other():
    # why blocks keep the bits: each entry of _bracketed_newton follows its
    # own iterates, here with the fold u = 0 (a 0/0 first step) among them
    u = np.concatenate([[0.0, 1.0, 1e-12], np.linspace(0.0, 1.0, 101)])
    e0 = GAS._table_start(u)
    whole = GAS._branch_root(u, e0)
    parts = np.concatenate([GAS._branch_root(u[i:i + 7], e0[i:i + 7]) for i in range(0, u.size, 7)])
    assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))


def test_blocked_bundle_memory():
    # one cell array is 65536 doubles, the cells of the 512x128 grid of the
    # cli-field benchmark.  Evaluated whole, coenergy_bundle held 10.25 of
    # them above its 3 outputs (5.13 MiB).  A block's evaluation holds about
    # 16 arrays of its 8192 points, 2 cell arrays; the bound leaves one more
    # for the block results that wait to be copied out.
    gas = GasModel()
    s = np.linspace(0.0, gas.s_lo, 65536)  # the subsonic cells of a certified solve
    gas.coenergy_bundle(s[:8])  # start table, built once per model
    cell_array = s.nbytes
    tracemalloc.start()
    try:
        bundle = gas.coenergy_bundle(s)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= 3 * cell_array and len(bundle) == 3
    assert peak - held <= 3 * cell_array


def test_blend_monotonicity_gate():
    # a tail density above the branch density at s_lo makes the quintic
    # rise; the gate fires at the first blend evaluation and not before
    gas = GasModel()
    gas.__dict__["rho_hi"] = 1.01 * gas.density_from_momentum(gas.s_lo)
    below = np.array([0.0, 0.5 * gas.s_lo])
    gas.coenergy_bundle(below)
    gas.truncated_density_from_momentum(below)
    with pytest.raises(ValueError, match="lost monotonicity"):
        gas.truncated_density_from_momentum(0.5 * (gas.s_lo + gas.s_hi))
    with pytest.raises(ValueError, match="lost monotonicity"):
        gas.coenergy_bundle(np.array([0.1, gas.s_hi]))


def test_ellipticity_bounds_bracket_coefficient():
    nu, lam = GAS.ellipticity_bounds
    assert 0.0 < nu < lam
    # the coefficient at rest equals the stagnation density
    assert ellipticity_coefficient(GAS, np.array([0.0]))[0] == pytest.approx(GAS.rho_stag,
                                                                             rel=1e-12)
    assert nu <= GAS.rho_stag <= lam
    # s = 4 lies past s(q^2 = 2) = 2 rho_hi^2 ~ 2.4; the blend is sampled on its own too
    s = np.concatenate([np.linspace(0.0, 4.0, 2501), np.linspace(GAS.s_lo, GAS.s_hi, 2501)])
    coeff = ellipticity_coefficient(GAS, s)
    assert np.all(coeff >= nu)
    assert np.all(coeff <= lam)


ELLIPTIC_GAMMA_EXCESS = (1e-4, 0.05, 0.2, 0.4, 2.0 / 3.0, 2.0)
ELLIPTIC_M_TILDE = (0.5, 0.9, 0.98, 0.999)


def dense_coefficient(gas):
    """The ellipticity coefficient on 20001 points of [0, s_hi], 20001 more of
    the blend [s_lo, s_hi], and the tail value."""
    s = np.concatenate([np.linspace(0.0, gas.s_hi, 20001),
                        np.linspace(gas.s_lo, gas.s_hi, 20001)])
    e = gas._evaluate(s, "dense_coefficient", coenergy=False)
    return np.append(e.rho**2 / (e.rho - 2.0 * e.slope * s), gas.rho_hi)


@pytest.mark.parametrize("excess", ELLIPTIC_GAMMA_EXCESS)
def test_ellipticity_bounds_bracket_a_dense_sample(excess):
    # the bounds read the branch at its two ends and the blend alone; a
    # dense sample of the whole evaluator must stay between them.  The
    # blend is sampled on its own too: at m_tilde = 0.999 it is 0.1% of
    # [0, s_hi], and 20001 points of [0, s_hi] miss its minimum by 0.2%
    for m_tilde in ELLIPTIC_M_TILDE:
        gas = GasModel(gamma=1.0 + excess, m_tilde=m_tilde)
        nu, lam = gas.ellipticity_bounds
        coeff = dense_coefficient(gas)
        assert nu <= coeff.min() and coeff.max() <= lam, m_tilde
        assert lam == pytest.approx(1.001 * gas.rho_stag, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("excess", ELLIPTIC_GAMMA_EXCESS)
def test_branch_coefficient_is_rho_times_one_minus_mach_squared(excess):
    # why the bounds need only the branch ends: H^2 / (H - 2 H' s) equals
    # rho (1 - M^2), M^2 = q^2 / c^2 = s / rho^(gamma + 1), which falls in s
    for m_tilde in ELLIPTIC_M_TILDE:
        gas = GasModel(gamma=1.0 + excess, m_tilde=m_tilde)
        s = np.linspace(0.0, gas.s_lo, 4001)[:-1]
        e = gas._evaluate(s, "branch_coefficient", coenergy=False)
        coeff = e.rho**2 / (e.rho - 2.0 * e.slope * s)
        subsonic = 1.0 - s / e.rho ** gas.gamma / e.rho  # 1 - M^2
        closed = e.rho * subsonic
        # rounding: the slope's 1 - rho^(gamma - 1) carries eps / (gamma - 1),
        # and H - 2 H' s cancels as 1 - M^2 does
        rounding = 8.0 * np.finfo(float).eps * (1.0 + 1.0 / excess) / subsonic
        assert np.all(np.abs(coeff - closed) <= rounding * closed), m_tilde
        assert np.all(np.diff(coeff) <= 0.0), m_tilde


def test_gauss_rule_is_numpy_leggauss():
    # the literal rule must agree with leggauss(24) within 1 ulp on every
    # numpy this package supports (on numpy 2.4 it is bit for bit equal)
    nodes, weights = GAS._gauss_nodes
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(24)
    assert np.all(np.abs(nodes - ref_nodes) <= np.spacing(np.abs(ref_nodes)))
    assert np.all(np.abs(weights - ref_weights) <= np.spacing(ref_weights))
    assert np.all(np.diff(nodes) > 0.0)
    assert weights.sum() == pytest.approx(2.0, rel=1e-15, abs=0.0)


def test_gas_constants_leave_numpy_polynomial_unimported():
    # the Gauss rule is read from literals, so deriving every constant of
    # a model (as the CLI and the benchmark's set-up do) imports no
    # numpy.polynomial, which took 2-3 ms of a process's set-up
    out = run_fresh("import sys, numpy\n"
                    "imported = 'numpy.polynomial' in sys.modules\n"
                    "from axinozzle import GasModel\n"
                    "gas = GasModel(gamma=1.3)\n"
                    "gas.coenergy(numpy.array([0.5, 0.5 * (gas.s_lo + gas.s_hi), 2.0]))\n"
                    "gas.ellipticity_bounds\n"
                    "print(imported, 'numpy.polynomial' in sys.modules)").split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.polynomial itself")
    assert out == ["False", "False"]


def test_bernoulli_residual():
    # c^2/(gamma-1) + q^2/2 is constant along the subsonic branch
    q_sq = np.linspace(0.0, 1.0, 1001)
    rho = GAS.density_from_speed(q_sq)
    invariant = GAS.sound_speed_sq(rho) / (GAS.gamma - 1.0) + q_sq / 2.0
    assert np.abs(invariant - invariant[0]).max() < 1e-13


def test_pressure_and_sound_speed():
    assert GAS.pressure(1.0) == pytest.approx(1.0 / 1.4, rel=1e-15, abs=0.0)
    assert GAS.sound_speed_sq(1.0) == 1.0
    rho = np.linspace(0.5, 1.6, 300)
    assert np.all(np.diff(GAS.pressure(rho)) > 0.0)
    with pytest.raises(ValueError):
        GAS.pressure(-1.0)


def test_scalar_equals_array_entry():
    # a scalar takes the array path, so it matches its array entry bitwise
    rng = np.random.default_rng(29)
    q_sq = rng.uniform(0.0, 1.0, 2000)
    rho = GAS.density_from_speed(q_sq)
    for k, q in enumerate(q_sq):
        assert GAS.density_from_speed(float(q)) == rho[k]
        r = float(rho[k])
        assert GAS.pressure(r) == GAS.pressure(np.array([r]))[0]
        assert GAS.sound_speed_sq(r) == GAS.sound_speed_sq(np.array([r]))[0]
    # the Newton branch density too, up to the fold
    for gamma in (1.0 + 1e-4, 1.05, 1.4, 3.0):
        gas = GasModel(gamma=gamma)
        s = np.concatenate([rng.uniform(0.0, 1.0, 100), 1.0 - np.logspace(-16, -2, 50)])
        rho = gas.density_from_momentum(s)
        for k, sk in enumerate(s):
            assert gas.density_from_momentum(float(sk)) == rho[k], (gamma, sk)


def test_other_gammas_sane():
    for gamma in (1.2, 5.0 / 3.0):
        gas = GasModel(gamma=gamma)
        q_sq = np.linspace(0.0, 1.0, 501)
        back = gas.speed_from_momentum(gas.momentum_from_speed(q_sq))
        assert np.abs(back - q_sq).max() < 5e-11
        s = np.linspace(0.0, 1.2, 1201)
        assert np.all(np.diff(gas.truncated_density_from_momentum(s)) <= 0.0)
        assert np.all(gas.coenergy_bundle(s).second >= 0.0)


def test_scalar_and_array_forms_agree():
    assert isinstance(GAS.density_from_momentum(0.5), float)
    arr = GAS.density_from_momentum(np.array([0.5]))
    assert arr.shape == (1,)
    assert arr[0] == GAS.density_from_momentum(0.5)


# The round trips hold to ROUND_TRIP_ULPS * eps / (gamma - 1): the relations
# raise to the power 1 / (gamma - 1), and the residuals of their inversions
# divide by gamma - 1.  The worst case seen over 2000 random draws was 10.
ROUND_TRIP_ULPS = 32


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True), m_tilde=st.floats(0.9, 0.99))
@example(gamma=1.0 + 2e-8, m_tilde=0.99)  # just above the refused range
def test_gas_round_trips(gamma, m_tilde):
    if gamma - 1.0 < np.sqrt(np.finfo(float).eps):
        with pytest.raises(ValueError):  # refused: it would lose over half the digits
            GasModel(gamma=gamma, m_tilde=m_tilde)
        return
    gas = GasModel(gamma=gamma, m_tilde=m_tilde)
    tol = ROUND_TRIP_ULPS * np.finfo(float).eps / (gamma - 1.0)

    # the exact branch up to the truncation onset, away from the fold
    q_sq = np.linspace(0.0, gas.speed_from_momentum(gas.s_lo), 257)
    s = gas.momentum_from_speed(q_sq)
    rho = gas.density_from_speed(q_sq)
    assert np.abs(gas.density_from_momentum(s) - rho).max() <= tol * rho.max()
    assert np.abs(gas.speed_from_momentum(s) - q_sq).max() <= tol

    # the density stays in [1, rho_stag] and does not increase, up to the fold
    s = np.sort(np.concatenate([np.linspace(0.0, 1.0, 1001), 1.0 - np.logspace(-16, -3, 60)]))
    rho = gas.density_from_momentum(s)
    assert rho.min() >= 1.0 and rho.max() <= gas.rho_stag
    assert np.diff(rho).max() <= tol


def mp_branch_density(gamma, s, start):
    """Subsonic-branch density at squared momentum s, by Newton at 40 digits.

    Solves rho^2 (gamma + 1 - 2 rho^(gamma-1)) / (gamma - 1) = s in
    e = rho - 1 from the double-precision root start; mpmath's own power
    and a 40-digit working precision leave the cancellations near the
    fold far below double rounding.
    """
    if s == 1.0:
        return mpmath.mpf(1)
    with mpmath.workdps(40):
        g, s = mpmath.mpf(gamma), mpmath.mpf(s)
        e = mpmath.mpf(start) - 1
        for _ in range(6):
            rho = 1 + e
            val = rho**2 * (g + 1 - 2 * rho ** (g - 1)) / (g - 1) - s
            slope = 2 * (g + 1) * rho * (1 - rho ** (g - 1)) / (g - 1)
            e -= val / slope
        return 1 + e


def test_density_root_two_residual_evaluations_per_point(monkeypatch):
    # the Hermite start is within 1e-9 relative of the root, so the first
    # Newton correction is already below the 1e-7 stopping threshold and
    # the second confirms it: _density_root's two straight-line Newton
    # steps, one residual call each on the whole batch, settle every point
    # of (0, 1).  Only the pinned rest state s = 0 and the fold s = 1,
    # whose step is 0/0, may reach the loop, which stops them at their
    # second evaluation too.  The start above the fold asymptote that the
    # table replaced, sqrt(2 (1 - s) / (gamma + 1)), takes 4 to 6 here
    s = np.sort(np.concatenate([np.linspace(0.0, 1.0, 2001), 1.0 - np.logspace(-16, -2, 200)]))
    fold_gap, branch_root = GasModel._fold_gap, GasModel._branch_root
    sizes, looped = [], []

    def counting(self, e, u):
        sizes.append(e.size)
        return fold_gap(self, e, u)

    def recording(self, u, e0):
        looped.extend(1.0 - u)
        return branch_root(self, u, e0)

    for gamma in (1.0 + 1e-4, 1.001, 1.05, 1.2, 1.4, 5.0 / 3.0, 2.0, 3.0):
        gas = GasModel(gamma=gamma)
        gas.density_from_momentum(0.5)  # builds the start table
        sizes.clear()
        looped.clear()
        monkeypatch.setattr(GasModel, "_fold_gap", counting)
        monkeypatch.setattr(GasModel, "_branch_root", recording)
        gas.density_from_momentum(s)
        monkeypatch.undo()
        assert set(looped) <= {0.0, 1.0} and 1.0 in looped, gamma
        assert sizes == [s.size, s.size, len(looped), len(looped)], gamma


def two_newton_steps(gas, u, e0):
    """The first two Newton points from e0, with no bracket."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val, slope = gas._fold_gap(e0, u)
        e1 = e0 - val / slope
        val, slope = gas._fold_gap(e1, u)
        return e1 - val / slope


@pytest.mark.parametrize("gamma", [1.0 + 1e-4, 1.001, 1.05, 1.2, 1.4, 5.0 / 3.0, 2.0, 3.0])
def test_density_root_equals_the_bracketed_loop_bit_for_bit(gamma, monkeypatch):
    # _density_root takes _bracketed_newton's first two steps in
    # straight-line code; the oracle is the loop alone from the same
    # start, with the same pin at rest
    def loop_only(self, s):
        u = np.ravel(1.0 - s)
        e = self._branch_root(u, self._table_start(u))
        return np.where(s == 0.0, self.rho_stag, 1.0 + e.reshape(np.shape(s)))

    branch_root = GasModel._branch_root
    looped = []

    def recording(self, u, e0):
        looped.extend(1.0 - u)
        return branch_root(self, u, e0)

    rng = np.random.default_rng(35)
    midpoints = 0
    for m_tilde in (0.5, 0.98, 0.999):
        gas = GasModel(gamma=gamma, m_tilde=m_tilde)
        s = np.concatenate([rng.uniform(0.0, gas.s_lo, 4000),
                            [0.0, gas.s_lo, np.nextafter(1.0, 0.0), 1.0]])
        gas.density_from_momentum(0.5)  # builds the start table
        monkeypatch.setattr(GasModel, "_branch_root", recording)
        rho = gas.density_from_momentum(s)
        monkeypatch.undo()
        bundle = gas.coenergy_bundle(s)
        monkeypatch.setattr(GasModel, "_density_root", loop_only)
        oracle = GasModel(gamma=gamma, m_tilde=m_tilde)
        assert np.array_equal(rho.view(np.int64), oracle.density_from_momentum(s).view(np.int64))
        for got, want in zip(bundle, oracle.coenergy_bundle(s)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        monkeypatch.undo()
        # the rare paths: the loop at the fold's 0/0 step, and a bisection
        # midpoint where the second Newton point leaves its bracket
        assert 1.0 in looped
        inner = (s > 0.0) & (s < 1.0)
        u = 1.0 - s[inner]
        plain = 1.0 + two_newton_steps(gas, u, gas._table_start(u))
        midpoints += np.count_nonzero(plain != rho[inner])
    assert set(looped) <= {0.0, 1.0}
    assert midpoints > 0


def arctan_residual(t, seen):
    """Residual arctan(x) - t and its slope; records each iterate array in seen."""

    def residual(x):
        seen.append(x.copy())
        return np.arctan(x) - t, 1.0 / (1.0 + x * x)

    return residual


def test_bracketed_newton_safeguard_and_frozen_entries():
    # roots of arctan(x) = t on [-20, 20]: from 10 the Newton point -37.6
    # leaves the bracket [-20, 10] and bisection takes the midpoint -5;
    # the entry started at its root comes back unchanged
    x0 = np.array([10.0, 0.0, -3.0, 1e-3, 19.9])
    t = np.array([1.0, 0.5, -1.2, np.arctan(1e-3), 1.5])
    seen = []
    x = gas_module._bracketed_newton(arctan_residual(t, seen), x0, -20.0, 20.0)
    assert seen[1][0] == -5.0
    assert x[3] == 1e-3
    np.testing.assert_allclose(x, np.tan(t), rtol=1e-13)
    # an entry that stops keeps its value while the others go on, so each
    # entry equals its own single-entry solve bit for bit
    for k in range(x0.size):
        alone = gas_module._bracketed_newton(arctan_residual(t[k:k + 1], []),
                                             x0[k:k + 1], -20.0, 20.0)
        assert alone[0] == x[k], k


# The branch density lies within DENSITY_ULPS units in the last place of
# the 40-digit root, up to the fold.  A root of a residual with relative
# error a few eps / e lands within about an ulp, and the residual's own
# rounding adds about one more.
DENSITY_ULPS = 4


@pytest.mark.parametrize("gamma", [1.05, 1.4, 5.0 / 3.0, 3.0])
def test_density_from_momentum_matches_mpmath(gamma):
    gas = GasModel(gamma=gamma)
    s = np.concatenate([np.linspace(0.0, 1.0, 201)[1:], 1.0 - np.logspace(-12, -2, 61)])
    rho = gas.density_from_momentum(s)
    ulps = [float(abs(mpmath.mpf(r) - mp_branch_density(gamma, x, r))) / np.spacing(r)
            for x, r in zip(s, rho)]
    assert max(ulps) <= DENSITY_ULPS


# Below the truncation the coenergy lies within COENERGY_EPS * (gamma + 1)
# * eps of the 40-digit value, in absolute terms.  dF/drho = -(gamma + 1)
# at rest, so the density's rounding alone costs about (gamma + 1) ulps of
# rho there; cancelling O(1) terms would cost 2 (gamma + 1) / (gamma - 1)
# times the rounding of rho_stag instead.
COENERGY_EPS = 4


@pytest.mark.parametrize("gamma", [1.05, 1.4, 3.0])
def test_coenergy_matches_mpmath(gamma):
    gas = GasModel(gamma=gamma)
    s = np.linspace(0.002, 0.03, 57)
    value = gas.coenergy(s)
    rho = gas.density_from_momentum(s)
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        rho_stag = ((g + 1) / 2) ** (1 / (g - 1))
        anti0 = rho_stag - rho_stag**g / g
        worst = 0.0
        for x, f, r in zip(s, value, rho):
            ref = mp_branch_density(gamma, x, r)
            exact = 2 * (g + 1) / (g - 1) * (ref - ref**g / g - anti0)
            worst = max(worst, float(abs(f - exact)))
    assert worst <= COENERGY_EPS * (gamma + 1.0) * np.finfo(float).eps
