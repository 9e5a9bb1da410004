"""Nozzle wall profiles and the body-fitted computational grid.

A nozzle is the axially symmetric region 0 <= r < f(x) around the x-axis.
The wall radius f is smooth, positive, and flattens to constant radii far
upstream and downstream.  Three families cover the verification studies:

    cylinder(a)        f(x) = a
    tanh_step(a, ell)  f(x) = (1+a)/2 + (a-1)/2 * tanh(x/ell)
    bump(a0, h, w)     f(x) = a0 + h * exp(-(x/w)**2)

The solver works on the rectangle (xi, sigma) in [-L, L] x [0, 1] mapped
to the physical nozzle by x = xi, r = sigma * f(xi).  The map has Jacobian
determinant f(xi) > 0, so cell measures and derivative transforms are
available in closed form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

_FAMILIES = ("cylinder", "tanh_step", "bump")
_FLAT_TOL = 1e-6  # wall distance from its end radius that pick_domain_length calls flat
# fields.far_field_error samples the uniform end states this far inside +-L,
# where pick_domain_length wants the wall within _STATION_TOL of flat: a
# tenth of the default far-field gate
FAR_FIELD_OFFSET = 2.0
_STATION_TOL = 1e-4
# Every length of a nozzle (its extreme wall radii, ell, w and the domain
# length) lies in [1 / SCALE_LIMIT, SCALE_LIMIT].  The solver squares
# lengths, fluxes and their ratios, such as the slope ratio f'/f; far
# outside this range those overflow or underflow (a cylinder of radius
# 1e300 or 1e-300, or a tanh step from radius 1 to 1e-25 over ell = 1e-25).
SCALE_LIMIT = 1e12


@dataclass(frozen=True)
class NozzleProfile:
    """Wall radius profile of one of the supported families.

    Use make_profile to construct; it validates the per-family parameters.
    """

    kind: str
    a: float | None = None
    ell: float | None = None
    a0: float | None = None
    h: float | None = None
    w: float | None = None

    def wall(self, x):
        """Wall radius f(x)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "cylinder":
            out = np.full_like(x, self.a)
        elif self.kind == "tanh_step":
            out = 0.5 * (1.0 + self.a) + 0.5 * (self.a - 1.0) * np.tanh(x / self.ell)
        else:
            out = self.a0 + self.h * np.exp(-((x / self.w) ** 2))
        return float(out) if out.ndim == 0 else out

    def wall_slope(self, x):
        """Wall slope f'(x)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "cylinder":
            out = np.zeros_like(x)
        elif self.kind == "tanh_step":
            with np.errstate(over="ignore"):  # cosh**2 is inf past |x| ~ 355 ell: slope 0
                out = 0.5 * (self.a - 1.0) / self.ell / np.cosh(x / self.ell) ** 2
        else:
            out = -2.0 * self.h * x / self.w**2 * np.exp(-((x / self.w) ** 2))
        return float(out) if out.ndim == 0 else out

    @cached_property
    def b(self) -> float:
        """Infimum of the wall radius over the whole axis."""
        if self.kind == "cylinder":
            return self.a
        if self.kind == "tanh_step":
            return min(1.0, self.a)
        return min(self.a0, self.a0 + self.h)

    @cached_property
    def r_minus(self) -> float:
        """Upstream asymptotic radius."""
        return self.a if self.kind == "cylinder" else (1.0 if self.kind == "tanh_step" else self.a0)

    @cached_property
    def r_plus(self) -> float:
        """Downstream asymptotic radius."""
        return self.a0 if self.kind == "bump" else self.a

    @cached_property
    def slope_bounds(self) -> tuple[float, float]:
        """Exact (inf, sup) of the wall slope over the whole axis."""
        if self.kind == "cylinder":
            return 0.0, 0.0
        if self.kind == "tanh_step":
            extremum = 0.5 * (self.a - 1.0) / self.ell  # attained at x = 0
            return min(extremum, 0.0), max(extremum, 0.0)
        peak = math.sqrt(2.0) * abs(self.h) * math.exp(-0.5) / self.w
        return (-peak, peak) if self.h else (0.0, 0.0)


def make_profile(kind: str, **params) -> NozzleProfile:
    """Build a validated NozzleProfile of the given family."""
    if kind not in _FAMILIES:
        raise ValueError(f"make_profile: unknown profile family {kind!r}")
    required = {"cylinder": {"a"}, "tanh_step": {"a", "ell"}, "bump": {"a0", "h", "w"}}[kind]
    missing = required - params.keys()
    extra = params.keys() - required
    if missing or extra:
        raise ValueError(
            f"make_profile: family {kind!r} takes parameters {sorted(required)}; "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    vals = {k: float(v) for k, v in params.items()}
    profile = NozzleProfile(kind=kind, **vals)
    # the extreme radii, and the other lengths; a tanh step's other radius is 1
    if kind == "bump":
        vals = {"a0": profile.a0, "a0 + h": profile.a0 + profile.h, "w": profile.w}
    for name, value in vals.items():
        _check_scale(f"make_profile: {kind} {name}", value)
    return profile


def _check_scale(name: str, value: float) -> None:
    if not 1.0 / SCALE_LIMIT <= value <= SCALE_LIMIT:  # nan fails too
        raise ValueError(f"{name} must lie in [{1.0 / SCALE_LIMIT:g}, {SCALE_LIMIT:g}], "
                         f"got {value!r}")


def pick_domain_length(profile: NozzleProfile) -> float:
    """Smallest length on a doubling schedule where the wall looks flat.

    Doubles L starting from 4, up to L = 512, until the wall lies within
    _FLAT_TOL of its end radius at both ends x = +-L, and within
    _STATION_TOL at both far-field stations x = +-(L - FAR_FIELD_OFFSET).
    """
    ends = ((-1.0, profile.r_minus), (1.0, profile.r_plus))
    length = 4.0
    while length <= 512.0:
        stations = ((length, _FLAT_TOL), (length - FAR_FIELD_OFFSET, _STATION_TOL))
        if all(abs(float(profile.wall(sign * x)) - radius) < tol
               for sign, radius in ends for x, tol in stations):
            return length
        length *= 2.0
    raise ValueError(f"pick_domain_length: wall not flat to {_FLAT_TOL:g} within L <= 512")


class MappedGrid:
    """Uniform tensor grid in (xi, sigma) with its body-fitted geometry.

    nx and nr count cells; nodes are (nx+1) x (nr+1).  One midpoint
    quadrature point sits at each cell center.  delta >= 0 is the axis
    shield added to r in the energy density.
    """

    def __init__(self, profile: NozzleProfile, length: float, nx: int, nr: int,
                 delta: float = 0.0):
        _check_scale("MappedGrid: length", length)
        if nx < 2 or nr < 2:
            raise ValueError("MappedGrid: need at least 2 cells in each direction")
        self.delta = _checked_delta(profile, delta)
        self.profile = profile
        self.length = float(length)
        self.nx = int(nx)
        self.nr = int(nr)

        self.dxi = 2.0 * self.length / self.nx
        self.dsigma = 1.0 / self.nr
        self.xi = -self.length + np.arange(self.nx + 1) * self.dxi
        self.sigma = np.arange(self.nr + 1) * self.dsigma

        self.f_nodes = np.asarray(profile.wall(self.xi))
        self.fp_nodes = np.asarray(profile.wall_slope(self.xi))
        self.x_nodes = np.broadcast_to(self.xi[:, None], (self.nx + 1, self.nr + 1)).copy()
        self.r_nodes = self.f_nodes[:, None] * self.sigma[None, :]

        # cell-center geometry for the midpoint quadrature rule
        xc = 0.5 * (self.xi[:-1] + self.xi[1:])
        sc = 0.5 * (self.sigma[:-1] + self.sigma[1:])
        self.xc = xc
        self.sc = sc
        self.fc = np.asarray(profile.wall(xc))
        self.fpc = np.asarray(profile.wall_slope(xc))
        self.rc = self.fc[:, None] * sc[None, :]
        self.measure = self.dxi * self.dsigma * np.broadcast_to(
            self.fc[:, None], (self.nx, self.nr)
        ).copy()
        self.r_shield = self.rc + self.delta

    @property
    def shape(self) -> tuple[int, int]:
        """Node array shape."""
        return self.nx + 1, self.nr + 1

    @cached_property
    def corner_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """d psi_x / d psi_k and d psi_r / d psi_k of the bilinear field at
        cell centers, per corner k in the order SW, SE, NW, NE; (4, nx, nr) each."""
        beta = (self.fpc / self.fc)[:, None] * self.sc[None, :]  # sigma f'/f at centers
        cxi = np.array([-1.0, 1.0, -1.0, 1.0]) / (2.0 * self.dxi)
        csg = np.array([-1.0, -1.0, 1.0, 1.0]) / (2.0 * self.dsigma)
        coef_x = cxi[:, None, None] - beta[None, :, :] * csg[:, None, None]
        coef_r = np.broadcast_to(
            csg[:, None, None] / self.fc[None, :, None], (4, self.nx, self.nr)
        ).copy()
        return coef_x, coef_r

    @property
    def h_max(self) -> float:
        """Largest physical grid spacing (axial or radial)."""
        return max(self.dxi, self.dsigma * float(self.f_nodes.max()))

    def with_delta(self, delta: float) -> "MappedGrid":
        """Same grid with a different axis shield; only delta and r_shield are
        new, and every other array, corner_coefficients too, is shared."""
        self.corner_coefficients  # built here once and cached in __dict__, so copies share it
        grid = copy.copy(self)
        grid.delta = _checked_delta(self.profile, delta)
        grid.r_shield = grid.rc + grid.delta
        return grid


def _checked_delta(profile: NozzleProfile, delta: float) -> float:
    if not 0.0 <= delta <= profile.b:  # nan fails too
        raise ValueError(f"MappedGrid: delta must lie in [0, b] = [0, {profile.b}], "
                         f"got {delta}")
    return float(delta)


def build_grid(profile: NozzleProfile, length: float, nx: int, nr: int,
               delta: float = 0.0) -> MappedGrid:
    """Construct the body-fitted grid for a profile."""
    return MappedGrid(profile, length, nx, nr, delta)
