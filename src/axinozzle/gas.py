"""Isentropic polytropic gas relations in critical-state units.

Speeds are measured in units of the critical speed and densities in units
of the critical density, so the sonic state is (q, rho) = (1, 1) and the
pressure law is p = rho**gamma / gamma.  On the subsonic branch the
Bernoulli relation ties density to speed,

    rho = ((gamma + 1 - (gamma - 1) * q**2) / 2) ** (1 / (gamma - 1))

and the momentum density rho*q runs monotonically from 0 at rest to 1 at
the sonic state, where the density-momentum relation degenerates (its
slope blows up).  The solver works with a truncation Htilde of it: exact
up to momentum m_tilde, a quintic blend over [m_tilde**2,
((m_tilde+1)/2)**2] in the squared momentum, and constant beyond.  Htilde
is C^2, decreasing and uniformly elliptic, which makes the stream-function
energy strictly convex.  GasModel._evaluate is its one evaluator; it builds
the blend and tail constants at the first point with s >= s_lo, which no
certified subsonic state has.  Its public readers run it on blocks of _GAS_BLOCK
points past two blocks, which bounds its temporaries and leaves the bits alone: every
step is elementwise, and each entry of _bracketed_newton follows its own iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

_BISECT_STEPS = 64  # step cap; even all-bisection steps reach full precision
# Nodes of the density-root start table (GasModel._start_table): the fewest
# 2^k + 1 that keep the start within 1e-9 relative of the root for gamma in
# [1 + 1e-4, 3], 100x inside the 1e-7 stopping threshold of _bracketed_newton.
# The worst error sits in the first interval at the fold and shrinks like
# h^3: 4e-8, 6e-9, 7e-10 at 65, 129, 257 nodes.
_START_NODES = 257
_GAS_BLOCK = 8192  # points per block of GasModel._in_blocks: about 1 MiB of temporaries
# The relations raise to the power 1/(gamma - 1), which multiplies rounding
# errors by that factor; a gamma closer to 1 than this loses over half the digits.
_GAMMA_MIN_EXCESS = float(np.sqrt(np.finfo(float).eps))
# They also take (gamma + 1) / (gamma - 1) = 1 + 2 / (gamma - 1); past this
# excess the 2 / (gamma - 1) loses over half its digits in that sum.
_GAMMA_MAX_EXCESS = 2.0 / _GAMMA_MIN_EXCESS
# Positive nodes and their weights of the 24-point Gauss-Legendre rule, the
# digits of numpy.polynomial.legendre.leggauss(24) (GasModel._gauss_nodes).
_GAUSS_HALF = (
    (0.06405689286260563, 0.12793819534675202),
    (0.1911188674736163, 0.12583745634682825),
    (0.3150426796961634, 0.1216704729278033),
    (0.4337935076260451, 0.11550566805372552),
    (0.5454214713888396, 0.10744427011596556),
    (0.6480936519369755, 0.09761865210411393),
    (0.7401241915785544, 0.0861901615319532),
    (0.820001985973903, 0.07334648141108016),
    (0.8864155270044011, 0.05929858491543636),
    (0.9382745520027328, 0.04427743881741941),
    (0.9747285559713095, 0.02853138862893356),
    (0.9951872199970213, 0.01234122979998869),
)


class CoenergyBundle(NamedTuple):
    """Coenergy with its first two derivatives at the same points."""

    value: np.ndarray
    prime: np.ndarray
    second: np.ndarray


class _Truncated(NamedTuple):
    """Coenergy F, the truncated relation Htilde and its slope Htilde'."""

    value: np.ndarray
    rho: np.ndarray
    slope: np.ndarray


def _like_input(s, out):
    """Return a float for scalar input s, else the array out."""
    return float(out[0]) if np.ndim(s) == 0 else out


def _bracketed_newton(residual, x0, lo, hi):
    """Elementwise root in [lo, hi] of an increasing residual, by Newton.

    The one general root loop of this module; its one caller, _branch_root,
    solves the branch density on the increasing fold gap for the nodes of
    _start_table and for the points of _density_root that its straight-line
    copy of the first two iterations does not settle.

    residual(x) returns the residual and its slope at the whole array of
    iterates x.  Each entry keeps the bracket its residual signs allow, and
    a Newton point outside it falls back to bisection.  An entry stops one
    step after its Newton correction first falls to 1e-7 of its iterate:
    convergence is quadratic, so that step lands at roundoff however curved
    the residual, while an absolute test on the step would be held up by
    the few-ulp cycling of the residual.  A stopped entry keeps its value
    while the others go on.
    """
    x = np.array(x0, dtype=float)
    small = np.zeros(x.shape, dtype=bool)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_BISECT_STEPS):
        val, slope = residual(x)
        lo = np.where(val < 0.0, x, lo)
        hi = np.where(val > 0.0, x, hi)
        # a zero residual is a root, also where the slope vanishes with it
        step = -np.divide(val, slope, out=np.zeros_like(val), where=val != 0.0)
        newton = x + step
        inside = (newton >= lo) & (newton <= hi)
        tiny = np.abs(step) <= 1e-7 * np.abs(x)
        x = np.where(done, x, np.where(inside, newton, 0.5 * (lo + hi)))
        done = done | (tiny & small)
        small = tiny
        if done.all():
            break
    return x


@dataclass(frozen=True)
class GasModel:
    """Polytropic gas with a near-sonic truncation of the density relation.

    Parameters
    ----------
    gamma : adiabatic exponent, at least 1 + sqrt(machine epsilon) ~ 1 + 1.5e-8
        and at most 1 + 2 / sqrt(machine epsilon) ~ 1.3e8.
    m_tilde : momentum threshold in (0, 1) where the truncation starts.
    """

    gamma: float = 1.4
    m_tilde: float = 0.98

    def __post_init__(self):
        if not _GAMMA_MIN_EXCESS <= self.gamma - 1.0 <= _GAMMA_MAX_EXCESS:
            raise ValueError(f"GasModel: gamma must exceed 1 by at least "
                             f"{_GAMMA_MIN_EXCESS:.1e} and at most {_GAMMA_MAX_EXCESS:.1e}, "
                             f"got {self.gamma!r}")
        if not 0.0 < self.m_tilde < 1.0:
            raise ValueError(f"GasModel: m_tilde must lie in (0, 1), got {self.m_tilde}")

    # ------------------------------------------------------------------
    # derived constants
    # ------------------------------------------------------------------

    @cached_property
    def rho_stag(self) -> float:
        """Stagnation density ((gamma+1)/2)**(1/(gamma-1)).

        Formed as exp(log1p((gamma-1)/2) / (gamma-1)): the power form rounds
        (gamma+1)/2 first and raises that error to the power 1/(gamma-1).
        """
        g = self.gamma
        return math.exp(math.log1p(0.5 * (g - 1.0)) / (g - 1.0))

    @cached_property
    def s_lo(self) -> float:
        """Squared momentum where the truncation blend starts."""
        return self.m_tilde**2

    @cached_property
    def s_hi(self) -> float:
        """Squared momentum where the truncated relation goes constant."""
        return ((self.m_tilde + 1.0) / 2.0) ** 2

    @cached_property
    def rho_hi(self) -> float:
        """Constant density value beyond the upper blend knot."""
        return float(self.density_from_momentum(self.s_hi))

    # ------------------------------------------------------------------
    # exact subsonic relations
    # ------------------------------------------------------------------

    def density_from_speed(self, q_sq):
        """Subsonic density at squared speed q_sq in [0, 1]."""
        q = np.atleast_1d(np.asarray(q_sq, dtype=float))
        if not np.all((q >= 0.0) & (q <= 1.0)):  # NaN fails too
            raise ValueError("density_from_speed: q_sq must lie in [0, 1]")
        g = self.gamma
        return _like_input(q_sq, ((g + 1.0 - (g - 1.0) * q) / 2.0) ** (1.0 / (g - 1.0)))

    def momentum_from_speed(self, q_sq):
        """Squared momentum (rho*q)**2 at squared speed q_sq in [0, 1].

        Close to the sonic point the value is computed through log1p in
        1 - q_sq.  The direct product loses a few ulps there, which
        density_from_momentum, steep at the fold, turns into 2.3-4.4e-12 errors
        of acceptance criterion 01's identity H(G(q^2)) = g(q^2) (gate 1e-12).
        """
        q = np.atleast_1d(np.asarray(q_sq, dtype=float))
        out = self.density_from_speed(q) ** 2 * q
        g = self.gamma
        w = 1.0 - q
        near = (w < 0.25) & (w > 0.0)
        if np.any(near):
            wn = w[near]
            out[near] = np.exp((2.0 / (g - 1.0)) * np.log1p(0.5 * (g - 1.0) * wn) + np.log1p(-wn))
        return _like_input(q_sq, out)

    def speed_from_momentum(self, s):
        """Inverse of momentum_from_speed on [0, 1]: q^2 = s / rho(s)^2."""
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        return _like_input(s, arr / self.density_from_momentum(arr) ** 2)

    # ------------------------------------------------------------------
    # density-momentum relation H and its truncation
    # ------------------------------------------------------------------

    def _fold_gap(self, e, u):
        """1 - M(1 + e) - u and its e-derivative, M the squared momentum on the branch.

        With X = expm1((gamma - 1) log1p(e)) the gap is
        2 rho^2 X / (gamma - 1) - e (2 + e) and its derivative
        2 (gamma + 1) rho X / (gamma - 1), rho = 1 + e.  The two terms of the
        gap agree to leading order 2e and leave (gamma + 1) e^2, so its
        relative error stays a few eps / e however close gamma is to 1;
        nothing cancelled is divided by gamma - 1.
        """
        g = self.gamma
        x = np.log1p(e)  # in place: the density root's temporaries set the heap peak
        x *= g - 1.0
        np.expm1(x, out=x)
        x *= 2.0 / (g - 1.0)
        x *= 1.0 + e
        gap = x * (1.0 + e)
        gap -= e * (2.0 + e)
        gap -= u
        return gap, (g + 1.0) * x

    def _branch_root(self, u, e0):
        """Branch density e = rho - 1 in [0, rho_stag - 1] at gaps u = 1 - s.

        Newton from e0 inside the bracket on the increasing residual
        _fold_gap(e, u), which keeps the density close to full precision
        right up to the sonic fold, where the slope of M vanishes.
        """
        return _bracketed_newton(lambda e: self._fold_gap(e, u), e0, 0.0, self.rho_stag - 1.0)

    @cached_property
    def _start_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes of the cubic Hermite start of _density_root.

        The branch density e = rho - 1 is tabulated against v = sqrt(1 - s)
        at _START_NODES equispaced nodes on [0, 1]; in v the square-root
        fold at s = 1 becomes a smooth curve through e = 0 with slope
        1 / sqrt(gamma + 1).  The nodes are solved from sqrt(2 / (gamma + 1)) v,
        above the root and its fold asymptote v / sqrt(gamma + 1), and their
        slopes de/dv = 2 v / (d gap / de) come from the residual's own
        derivative.  Returns e and h * de/dv at the nodes, h the spacing.
        """
        v = np.linspace(0.0, 1.0, _START_NODES)
        above = np.minimum(np.sqrt(2.0 / (self.gamma + 1.0)) * v, self.rho_stag - 1.0)
        e = self._branch_root(v * v, above)
        dgap_de = self._fold_gap(e[1:], 0.0)[1]
        slope = np.concatenate([[1.0 / np.sqrt(self.gamma + 1.0)], 2.0 * v[1:] / dgap_de])
        return e, slope * v[1]

    def _table_start(self, u):
        """Hermite interpolant of _start_table at v = sqrt(u), clamped into the bracket."""
        e_k, de_k = self._start_table
        x = np.sqrt(u) * (_START_NODES - 1)
        k = np.minimum(x.astype(np.intp), _START_NODES - 2)
        t = x - k
        w = 1.0 - t
        e0 = (e_k[k] + t * t * (3.0 - 2.0 * t) * (e_k[k + 1] - e_k[k])
              + t * w * (w * de_k[k] - t * de_k[k + 1]))
        return np.clip(e0, 0.0, self.rho_stag - 1.0, out=e0)

    def _density_root(self, s):
        """Subsonic-branch density in [1, rho_stag] at squared momenta s in [0, 1].

        Newton in e = rho - 1 (see _branch_root), started from the cubic
        Hermite interpolant of _start_table at v = sqrt(1 - s).  The start
        is within 1e-9 relative of the root, so the first Newton correction
        lands at roundoff and the second confirms it: _bracketed_newton
        stops there.  Those two steps are taken here for the whole array,
        bit for bit as the loop takes them.  A point gets the second Newton
        point or, where that leaves its bracket, the bisection midpoint: 1608
        of 400001 equispaced s in [0, s_lo] (gamma = 1.4), brackets at most
        3.3e-16 wide.  A point the loop would not stop there, as the fold
        s = 1 with its 0/0 step, goes to _branch_root from the same start.
        Two plain Newton steps would move those 0.4% of the densities by a
        few 1e-16 relative, and with them most solver outputs' last bits.
        """
        u = np.ravel(1.0 - s)
        # the start is formed in its own call, so that its temporaries are
        # freed before the Newton steps reach their peak memory
        e0 = self._table_start(u)
        top = self.rho_stag - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite steps go to the loop
            val0, slope = self._fold_gap(e0, u)
            step0 = np.divide(val0, slope, out=slope)
            e1 = e0 - step0
            val1, slope = self._fold_gap(e1, u)
            step1 = np.divide(val1, slope, out=slope)
        e = e1 - step1
        # a Newton point moves away from the end that its residual's sign sets
        # at its iterate, so e1 leaves the loop's bracket where it leaves
        # [0, top], and e where it leaves [lo, hi], the bracket val0 leaves
        lo, hi = np.where(val0 < 0.0, e0, 0.0), np.where(val0 > 0.0, e0, top)
        stop = ((e1 >= 0.0) & (e1 <= top) & (np.abs(step0) <= 1e-7 * e0)
                & (np.abs(step1) <= 1e-7 * e1))
        out = np.flatnonzero(stop & ((e < lo) | (e > hi)))
        e1, val1 = e1[out], val1[out]
        e[out] = 0.5 * (np.where(val1 < 0.0, e1, lo[out]) + np.where(val1 > 0.0, e1, hi[out]))
        if not stop.all():
            rest = ~stop
            e[rest] = self._branch_root(u[rest], e0[rest])
        # the stagnation end is pinned so that the coenergy vanishes at rest
        return np.where(s == 0.0, self.rho_stag, 1.0 + e.reshape(np.shape(s)))

    def density_from_momentum(self, s):
        """Subsonic-branch density at squared momentum s in [0, 1]."""
        s = np.asarray(s, dtype=float)
        if not np.all((s >= 0.0) & (s <= 1.0)):  # NaN fails too
            raise ValueError("density_from_momentum: s must lie in [0, 1]")
        return _like_input(s, self._density_root(np.atleast_1d(s)))

    def _branch_slope(self, rho):
        """dH/ds on the exact subsonic branch, given its density rho."""
        g = self.gamma
        d = 2.0 * (g + 1.0) / (g - 1.0) * rho * (1.0 - rho ** (g - 1.0))  # dM/drho < 0
        return 1.0 / d

    @cached_property
    def _blend_coeffs(self) -> np.ndarray:
        """Quintic coefficients of the blend in t = (s - s_lo)/(s_hi - s_lo).

        The quintic matches value, slope and curvature of the exact relation
        at t = 0 and (rho_hi, 0, 0) at t = 1.  Monotonicity is verified on a
        dense sample; the endpoint data keep it decreasing for physically
        admissible (gamma, m_tilde).  Built, and so checked, at the first
        evaluation that reaches the blend or tail, not with the model: a
        model that only sees s < s_lo never raises here.
        """
        h = self.s_hi - self.s_lo
        rho_lo = self._density_root(np.array([self.s_lo]))
        g = self.gamma
        c = 2.0 * (g + 1.0) / (g - 1.0)
        p = rho_lo ** (g - 1.0)
        d = c * rho_lo * (1.0 - p)  # dM/drho, so dH/ds = 1/d and d2H/ds2 = -c (1 - g p)/d^3
        rho1, d1 = float(rho_lo[0]), float((1.0 / d)[0]) * h
        c1 = float((-c * (1.0 - g * p) / (d * d * d))[0]) * h * h
        lhs = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
        rhs = np.array([self.rho_hi - (rho1 + d1 + c1 / 2.0), -(d1 + c1), -c1])
        a3, a4, a5 = np.linalg.solve(lhs, rhs)
        coeffs = np.array([rho1, d1, c1 / 2.0, a3, a4, a5])
        t = np.linspace(0.0, 1.0, 4097)
        slope = self._blend_poly(t, coeffs, order=1)
        if np.any(slope > 1e-12 * abs(d1)):
            raise ValueError("GasModel: truncation blend lost monotonicity; "
                             f"gamma={self.gamma}, m_tilde={self.m_tilde}")
        return coeffs

    @staticmethod
    def _blend_poly(t, coeffs, order=0):
        """Evaluate the blend quintic or its t-derivative (Horner)."""
        c = coeffs[1:] * np.arange(1, 6) if order == 1 else coeffs
        out = np.zeros_like(t)
        for ck in c[::-1]:
            out = out * t + ck
        return out

    def _blend(self, s):
        """Htilde and Htilde' of the blend quintic at s in [s_lo, s_hi]."""
        h = self.s_hi - self.s_lo
        t = (s - self.s_lo) / h
        coeffs = self._blend_coeffs
        return self._blend_poly(t, coeffs), self._blend_poly(t, coeffs, order=1) / h

    # ------------------------------------------------------------------
    # coenergy F(s) = integral_0^s dt / Htilde(t)
    # ------------------------------------------------------------------

    @cached_property
    def _gauss_nodes(self):
        """24-point Gauss-Legendre rule on [-1, 1], nodes ascending.

        It handles the short blend interval to roundoff.  Mirrored from its
        positive half: numpy's leggauss(24) has exactly antisymmetric nodes
        and symmetric weights.  Read from literals, so that no process
        imports numpy.polynomial for it.
        """
        nodes, weights = np.array(_GAUSS_HALF).T
        return np.concatenate([-nodes[::-1], nodes]), np.concatenate([weights[::-1], weights])

    def _coenergy_exact(self, rho):
        """Closed-form coenergy below the truncation, at branch density rho.

        Substituting the branch parametrization turns 1/H into the exact
        antiderivative 2(gamma+1)/(gamma-1) * (rho - rho**gamma/gamma),
        taken from rho_stag.  In r = rho / rho_stag = 1 + delta and
        X = expm1((gamma - 1) log1p(delta)) that difference is
        (gamma+1) rho_stag / gamma * (delta - (gamma+1) r X / (gamma-1)),
        whose two terms cancel by at most a factor 3 whatever gamma, so F
        carries the rounding of rho and not that of O(1) terms.
        """
        g = self.gamma
        delta = (rho - self.rho_stag) / self.rho_stag
        x = np.expm1((g - 1.0) * np.log1p(delta))
        return (g + 1.0) * self.rho_stag / g * (delta - (g + 1.0) / (g - 1.0) * (1.0 + delta) * x)

    def _coenergy_blend_tail(self, s):
        """Quadrature of 1/Htilde from s_lo to s, for s inside the blend."""
        nodes, weights = self._gauss_nodes
        half = 0.5 * (s - self.s_lo)
        mid = 0.5 * (s + self.s_lo)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        t = (pts - self.s_lo) / (self.s_hi - self.s_lo)
        vals = 1.0 / self._blend_poly(t, self._blend_coeffs)
        return half * (vals * weights[None, :]).sum(axis=1)

    @cached_property
    def _coenergy_knots(self) -> tuple[float, float]:
        f_lo = float(self._coenergy_exact(self._density_root(np.array([self.s_lo])))[0])
        f_hi = f_lo + float(self._coenergy_blend_tail(np.array([self.s_hi]))[0])
        return f_lo, f_hi

    # ------------------------------------------------------------------
    # the single evaluator of the truncated relation, and what reads it
    # ------------------------------------------------------------------

    def _evaluate(self, s, name, coenergy=True) -> _Truncated:
        """F, Htilde and Htilde' at squared momenta s >= 0.

        The one below/blend/tail dispatch of the truncated relation.  The
        branch root is solved once at every point, with s clamped at s_lo,
        and every quantity is read from it.  Only if some point has
        s >= s_lo are the blend constants read (built on first use) and
        those entries overwritten: with the constant tail, then with the
        quintic on [s_lo, s_hi).  coenergy=False, for the readers of Htilde
        and Htilde' alone, skips F (value is None) with its knots and
        quadrature.  Returns arrays of at least one dimension; a negative
        or NaN s raises ValueError naming the public caller.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if not np.all(s >= 0.0):  # NaN fails too
            raise ValueError(f"{name}: s must be >= 0")
        rho = self._density_root(np.minimum(s, self.s_lo))
        slope = self._branch_slope(rho)
        value = self._coenergy_exact(rho) if coenergy else None
        above = s >= self.s_lo
        if np.any(above):
            rho[above], slope[above] = self.rho_hi, 0.0
            if coenergy:
                f_lo, f_hi = self._coenergy_knots
                value[above] = f_hi + (s[above] - self.s_hi) / self.rho_hi
            mid = above & (s < self.s_hi)
            if np.any(mid):
                rho[mid], slope[mid] = self._blend(s[mid])
                if coenergy:
                    value[mid] = f_lo + self._coenergy_blend_tail(s[mid])
        return _Truncated(value, rho, slope)

    def _in_blocks(self, s, name, form, **options):
        """form(_evaluate(s)), a tuple of arrays like s, one _GAS_BLOCK at a time past two."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if s.size <= 2 * _GAS_BLOCK:
            return form(self._evaluate(s, name, **options))
        flat, outs = s.ravel(), None
        for start in range(0, s.size, _GAS_BLOCK):
            parts = form(self._evaluate(flat[start:start + _GAS_BLOCK], name, **options))
            outs = outs or [np.empty(s.size) for _ in parts]
            for out, part in zip(outs, parts):
                out[start:start + _GAS_BLOCK] = part
        return [out.reshape(s.shape) for out in outs]

    def truncated_density_from_momentum(self, s):
        """Truncated density relation, defined for every squared momentum >= 0."""
        return _like_input(s, self._in_blocks(s, "truncated_density_from_momentum",
                                              lambda e: (e.rho,), coenergy=False)[0])

    def coenergy(self, s):
        """Convex increasing energy density F with F' = 1/Htilde, F(0) = 0."""
        return _like_input(s, self._in_blocks(s, "coenergy", lambda e: (e.value,))[0])

    def coenergy_bundle(self, s) -> CoenergyBundle:
        """Coenergy F, F' = 1/Htilde and F'' = -Htilde'/Htilde**2 >= 0, as arrays.

        The subsonic-branch root is solved once for all three, which
        matters inside assembly loops; the coenergy knots are built only if
        some s reaches s_lo.
        """
        return CoenergyBundle(*self._in_blocks(s, "coenergy_bundle", lambda e: (
            e.value, 1.0 / e.rho, -e.slope / e.rho**2)))

    @cached_property
    def ellipticity_bounds(self) -> tuple[float, float]:
        """Bounds (nu, lam) for the ellipticity coefficient, 0 < nu <= lam.

        The coefficient H^2 / (H - 2 H' s) is the inverse of the coenergy
        Hessian's eigenvalue F' + 2 s F'' along the momentum, read from
        _evaluate's rho = H and slope = H' as rho^2 / (rho - 2 slope s);
        the other eigenvalue F' = 1/H lies in [1/rho_stag, 1/rho_hi].  On
        the exact branch the coefficient equals rho (1 - M^2), M the Mach
        number, which falls as s rises, so the branch takes its extremes at
        its ends s = 0 and s_lo.  The blend is sampled by its quintic alone
        at 4097 points of [s_lo, s_hi], and beyond it the coefficient is
        rho_hi.  The range is widened by a small relative margin to cover
        points between samples.
        """
        ends = np.array([0.0, self.s_lo])
        e = self._evaluate(ends, "ellipticity_bounds", coenergy=False)
        s = np.linspace(self.s_lo, self.s_hi, 4097)
        rho, slope = self._blend(s)
        coeff = np.concatenate([e.rho**2 / (e.rho - 2.0 * e.slope * ends),
                                rho**2 / (rho - 2.0 * slope * s)])
        lo = min(coeff.min(), self.rho_hi)
        hi = max(coeff.max(), self.rho_hi)
        return 0.999 * lo, 1.001 * hi

    # ------------------------------------------------------------------
    # thermodynamic state
    # ------------------------------------------------------------------

    def pressure(self, rho):
        """Polytropic pressure rho**gamma / gamma."""
        arr = np.atleast_1d(np.asarray(rho, dtype=float))
        if not np.all(arr > 0.0):  # NaN fails too
            raise ValueError("pressure: rho must be positive")
        return _like_input(rho, arr**self.gamma / self.gamma)

    def sound_speed_sq(self, rho):
        """Squared sound speed rho**(gamma - 1)."""
        arr = np.atleast_1d(np.asarray(rho, dtype=float))
        if not np.all(arr > 0.0):  # NaN fails too
            raise ValueError("sound_speed_sq: rho must be positive")
        return _like_input(rho, arr ** (self.gamma - 1.0))
