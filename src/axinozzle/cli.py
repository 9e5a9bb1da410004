"""Command line front end: INI-configured solves with deterministic outputs.

Commands:

    solve      one mass flux, write the field table (and diagnostics)
    diagnose   one mass flux, write and gate on the diagnostics report
    sweep      a list of fluxes, write the sweep table
    critical   bracket the critical flux, write the bracket report

All output files use repr floats and LF line endings, so a rerun with the
same configuration produces byte-identical files.

Exit codes: 0 success, 1 diagnostics failed (or, for solve with
diagnostics off, the momentum cutoff engaged), 2 configuration error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gas import GasModel
from .nozzle import NozzleProfile, build_grid, make_profile, pick_domain_length
from .solver import newton_solve
from .fields import MIN_DIAGNOSTIC_CELLS, diagnostics_report, velocity_from_stream
from .continuation import find_critical_flux, mass_flux_sweep, SweepPoint
from . import continuation

TWO_PI = 2.0 * np.pi

FIELD_HEADER = "x,r,psi,U,V,rho,mach,omega"
SWEEP_HEADER = "m0,M,q_min,cutoff_active,flux_drift,farfield_left,farfield_right"


class ConfigError(ValueError):
    """Configuration file failed validation."""


@dataclass(frozen=True)
class GasConfig:
    gamma: float = 1.4
    m_tilde: float = 0.98


@dataclass(frozen=True)
class NozzleConfig:
    kind: str = "cylinder"
    a: float | None = 1.0
    ell: float | None = None
    a0: float | None = None
    h: float | None = None
    w: float | None = None
    length: float | None = None   # None means pick automatically


@dataclass(frozen=True)
class GridConfig:
    nx: int = 96
    nr: int = 24
    delta: float = 1e-6


@dataclass(frozen=True)
class FluxConfig:
    mode: str                     # "single" | "sweep" | "critical"
    m0: float | None = None
    sweep: tuple[float, ...] = ()


@dataclass(frozen=True)
class ToleranceConfig:
    newton: float | None = None       # None: solver default
    critical: float | None = None     # None: bracket default
    max_principle: float = 1e-10
    barrier_slack: float = 10.0
    angle: float = 1e-3
    flux_drift: float = 1e-3
    far_field: float = 1e-3


@dataclass(frozen=True)
class OutputConfig:
    fields: bool = True
    diagnostics: bool = True


@dataclass(frozen=True)
class RunConfig:
    gas: GasConfig
    nozzle: NozzleConfig
    grid: GridConfig
    flux: FluxConfig
    tolerances: ToleranceConfig
    outputs: OutputConfig


_SECTIONS = ("gas", "nozzle", "grid", "flux", "tolerances", "outputs")
_KEYS = {
    "gas": {"gamma", "m_tilde"},
    "nozzle": {"kind", "a", "ell", "a0", "h", "w", "length"},
    "grid": {"nx", "nr", "delta"},
    "flux": {"m0", "sweep", "critical"},
    "tolerances": {"newton", "critical", "max_principle", "barrier_slack",
                   "angle", "flux_drift", "far_field"},
    "outputs": {"fields", "diagnostics"},
}


def _finite_float(key, raw, expected="a number"):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {expected}: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {raw!r}")
    return value


def _get_float(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    return _finite_float(key, raw)


def _get_int(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def _get_bool(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("yes", "true", "on", "1"):
        return True
    if lowered in ("no", "false", "off", "0"):
        return False
    raise ConfigError(f"{key}: not a boolean: {raw!r}")


def _get_auto_float(section, key):
    raw = section.get(key)
    if raw is None or raw.strip().lower() == "auto":
        return None
    return _finite_float(key, raw, "a number or 'auto'")


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        extra = set(parser[name]) - _KEYS[name]
        if extra:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(extra)}")

    empty: dict[str, str] = {}
    gas_sec = parser["gas"] if parser.has_section("gas") else empty
    gas = GasConfig(
        gamma=_get_float(gas_sec, "gamma", 1.4),
        m_tilde=_get_float(gas_sec, "m_tilde", 0.98),
    )

    noz_sec = parser["nozzle"] if parser.has_section("nozzle") else empty
    kind = noz_sec.get("kind", "cylinder").strip() if noz_sec else "cylinder"
    nozzle = NozzleConfig(
        kind=kind,
        a=_get_float(noz_sec, "a", 1.0 if kind in ("cylinder", "tanh_step") else None),
        ell=_get_float(noz_sec, "ell", None),
        a0=_get_float(noz_sec, "a0", None),
        h=_get_float(noz_sec, "h", None),
        w=_get_float(noz_sec, "w", None),
        length=_get_auto_float(noz_sec, "length") if noz_sec else None,
    )

    grid_sec = parser["grid"] if parser.has_section("grid") else empty
    grid = GridConfig(
        nx=_get_int(grid_sec, "nx", 96),
        nr=_get_int(grid_sec, "nr", 24),
        delta=_get_float(grid_sec, "delta", 1e-6),
    )
    if grid.nx < 2 or grid.nr < 2:
        raise ConfigError("grid: nx and nr must be at least 2")
    if grid.delta < 0.0:
        raise ConfigError("grid: delta must be >= 0")

    if not parser.has_section("flux"):
        raise ConfigError("missing required section [flux]")
    flux_sec = parser["flux"]
    modes = [key for key in ("m0", "sweep", "critical") if key in flux_sec]
    if len(modes) != 1:
        raise ConfigError(
            f"[flux] must set exactly one of m0, sweep, critical; got {modes or 'none'}")
    if modes[0] == "m0":
        m0 = _get_float(flux_sec, "m0", None)
        if m0 is None or m0 < 0.0:
            raise ConfigError("flux: m0 must be a number >= 0")
        flux = FluxConfig(mode="single", m0=m0)
    elif modes[0] == "sweep":
        values = tuple(_finite_float("sweep", tok) for tok in flux_sec["sweep"].split(","))
        if not values or any(v < 0.0 for v in values):
            raise ConfigError("flux: sweep needs a comma list of numbers >= 0")
        flux = FluxConfig(mode="sweep", sweep=values)
    else:
        if not _get_bool(flux_sec, "critical", False):
            raise ConfigError("flux: critical must be 'yes' when present")
        flux = FluxConfig(mode="critical")

    tol_sec = parser["tolerances"] if parser.has_section("tolerances") else empty
    tolerances = ToleranceConfig(
        newton=_get_auto_float(tol_sec, "newton") if tol_sec else None,
        critical=_get_auto_float(tol_sec, "critical") if tol_sec else None,
        max_principle=_get_float(tol_sec, "max_principle", 1e-10),
        barrier_slack=_get_float(tol_sec, "barrier_slack", 10.0),
        angle=_get_float(tol_sec, "angle", 1e-3),
        flux_drift=_get_float(tol_sec, "flux_drift", 1e-3),
        far_field=_get_float(tol_sec, "far_field", 1e-3),
    )

    out_sec = parser["outputs"] if parser.has_section("outputs") else empty
    outputs = OutputConfig(
        fields=_get_bool(out_sec, "fields", True),
        diagnostics=_get_bool(out_sec, "diagnostics", True),
    )
    return RunConfig(gas, nozzle, grid, flux, tolerances, outputs)


def serialize_config(cfg: RunConfig) -> str:
    """Emit a canonical INI text that parses back to an equal RunConfig."""
    out = io.StringIO()
    out.write("[gas]\n")
    out.write(f"gamma = {cfg.gas.gamma!r}\n")
    out.write(f"m_tilde = {cfg.gas.m_tilde!r}\n\n")
    out.write("[nozzle]\n")
    out.write(f"kind = {cfg.nozzle.kind}\n")
    for key in ("a", "ell", "a0", "h", "w"):
        value = getattr(cfg.nozzle, key)
        if value is not None:
            out.write(f"{key} = {value!r}\n")
    out.write("length = " + ("auto" if cfg.nozzle.length is None
                             else repr(cfg.nozzle.length)) + "\n\n")
    out.write("[grid]\n")
    out.write(f"nx = {cfg.grid.nx}\n")
    out.write(f"nr = {cfg.grid.nr}\n")
    out.write(f"delta = {cfg.grid.delta!r}\n\n")
    out.write("[flux]\n")
    if cfg.flux.mode == "single":
        out.write(f"m0 = {cfg.flux.m0!r}\n\n")
    elif cfg.flux.mode == "sweep":
        out.write("sweep = " + ", ".join(repr(v) for v in cfg.flux.sweep) + "\n\n")
    else:
        out.write("critical = yes\n\n")
    out.write("[tolerances]\n")
    out.write("newton = " + ("auto" if cfg.tolerances.newton is None
                             else repr(cfg.tolerances.newton)) + "\n")
    out.write("critical = " + ("auto" if cfg.tolerances.critical is None
                               else repr(cfg.tolerances.critical)) + "\n")
    for key in ("max_principle", "barrier_slack", "angle", "flux_drift", "far_field"):
        out.write(f"{key} = {getattr(cfg.tolerances, key)!r}\n")
    out.write("\n[outputs]\n")
    out.write("fields = " + ("yes" if cfg.outputs.fields else "no") + "\n")
    out.write("diagnostics = " + ("yes" if cfg.outputs.diagnostics else "no") + "\n")
    return out.getvalue()


def _make_profile(cfg: NozzleConfig) -> NozzleProfile:
    params = {}
    for key in ("a", "ell", "a0", "h", "w"):
        value = getattr(cfg, key)
        if value is not None:
            params[key] = value
    try:
        if cfg.kind == "cylinder":
            return make_profile("cylinder", a=params.get("a", 1.0))
        if cfg.kind == "tanh_step":
            return make_profile("tanh_step", a=params["a"], ell=params["ell"])
        if cfg.kind == "bump":
            return make_profile("bump", a0=params["a0"], h=params["h"], w=params["w"])
    except KeyError as exc:
        raise ConfigError(f"nozzle {cfg.kind}: missing parameter {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"nozzle: {exc}") from exc
    raise ConfigError(f"nozzle: unknown kind {cfg.kind!r}")


def _build(cfg: RunConfig):
    try:
        gas = GasModel(gamma=cfg.gas.gamma, m_tilde=cfg.gas.m_tilde)
    except ValueError as exc:
        raise ConfigError(f"gas: {exc}") from exc
    profile = _make_profile(cfg.nozzle)
    length = cfg.nozzle.length
    if length is None:
        length = pick_domain_length(profile)
    try:
        grid = build_grid(profile, length=length, nx=cfg.grid.nx, nr=cfg.grid.nr,
                          delta=cfg.grid.delta)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    return gas, grid


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _write_text(path: Path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_field_csv(path: Path, flow) -> None:
    """Row-major field table: stations outer, radii inner."""
    grid = flow.grid
    lines = [FIELD_HEADER]
    for i in range(grid.nx + 1):
        for j in range(grid.nr + 1):
            lines.append(",".join(repr(float(v)) for v in (
                grid.x_nodes[i, j], grid.r_nodes[i, j], flow.psi[i, j],
                flow.U[i, j], flow.V[i, j], flow.rho[i, j],
                flow.mach[i, j], flow.omega[i, j])))
    _write_text(path, lines)


def write_sweep_csv(path: Path, points: list[SweepPoint]) -> None:
    lines = [SWEEP_HEADER]
    for p in points:
        lines.append(",".join((
            repr(float(p.m0)), repr(float(p.mach_max)), repr(float(p.speed_min)),
            _fmt(p.cutoff_active), repr(float(p.flux_drift)),
            repr(float(p.far_field[0])), repr(float(p.far_field[1])))))
    _write_text(path, lines)


def write_report(path: Path, pairs) -> None:
    _write_text(path, [f"{key} = {_fmt(value)}" for key, value in pairs])


def _thresholds(cfg: RunConfig) -> dict:
    return {
        "max_principle": cfg.tolerances.max_principle,
        "barrier_slack": cfg.tolerances.barrier_slack,
        "angle": cfg.tolerances.angle,
        "flux_drift": cfg.tolerances.flux_drift,
        "far_field": cfg.tolerances.far_field,
    }


def _sweep_cold(args) -> tuple:
    """Worker for parallel sweeps: cold solve of one flux."""
    text, m0 = args
    cfg = parse_config(text)
    gas, grid = _build(cfg)
    solution = newton_solve(grid, gas, m0 / TWO_PI, tol=cfg.tolerances.newton)
    _, point = continuation._survey(solution, gas)
    return (point.m0, point.converged, point.cutoff_active, point.mach_max,
            point.speed_min, point.wall_speed, point.flux_drift,
            point.far_field, point.iterations)


def run(cfg: RunConfig, command: str, out_dir: Path, jobs: int = 1) -> int:
    """Execute one command; returns the process exit code."""
    if command in ("solve", "diagnose") and cfg.flux.mode != "single":
        raise ConfigError(f"{command} needs [flux] m0")
    if command == "sweep" and cfg.flux.mode != "sweep":
        raise ConfigError("sweep needs [flux] sweep")
    if command == "critical" and cfg.flux.mode != "critical":
        raise ConfigError("critical needs [flux] critical = yes")
    diagnostics = command == "diagnose" or (command == "solve" and cfg.outputs.diagnostics)
    if diagnostics and min(cfg.grid.nx, cfg.grid.nr) < MIN_DIAGNOSTIC_CELLS:
        raise ConfigError(f"grid: diagnostics need nx and nr >= {MIN_DIAGNOSTIC_CELLS}; "
                          "set [outputs] diagnostics = no or refine the grid")

    gas, grid = _build(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)

    if command in ("solve", "diagnose"):
        solution = newton_solve(grid, gas, cfg.flux.m0 / TWO_PI,
                                tol=cfg.tolerances.newton)
        if not solution.converged:
            print(f"solver failed to converge at m0 = {cfg.flux.m0}", file=sys.stderr)
            return 3
        if solution.cutoff_active and not diagnostics:
            print(f"m0 = {cfg.flux.m0}: momentum cutoff active, not a subsonic flow; "
                  "field.csv not written", file=sys.stderr)
            return 1
        flow = velocity_from_stream(solution, gas)
        if cfg.outputs.fields:
            write_field_csv(out_dir / "field.csv", flow)
        code = 0
        if diagnostics:
            report = diagnostics_report(solution, gas, flow=flow,
                                        thresholds=_thresholds(cfg))
            write_report(out_dir / "diagnostics.txt", report.items())
            print(f"m0 = {cfg.flux.m0}: diagnostics "
                  + ("passed" if report.passed else "FAILED"))
            if not report.passed:
                failed = sorted(k for k, ok in report.checks.items() if not ok)
                print("failed checks: " + ", ".join(failed), file=sys.stderr)
                code = 1
        return code

    if command == "sweep":
        if jobs > 1:
            text = serialize_config(cfg)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_cold, [(text, m0) for m0 in cfg.flux.sweep]))
            points = [SweepPoint(m0=r[0], converged=r[1], cutoff_active=r[2],
                                 mach_max=r[3], speed_min=r[4], wall_speed=r[5],
                                 flux_drift=r[6], far_field=r[7], iterations=r[8])
                      for r in rows]
        else:
            points = mass_flux_sweep(grid, gas, cfg.flux.sweep).points
        write_sweep_csv(out_dir / "sweep.csv", points)
        print(f"swept {len(points)} fluxes; "
              f"{sum(p.cutoff_active for p in points)} hit the momentum cutoff")
        return 0

    estimate = find_critical_flux(grid, gas, tol=cfg.tolerances.critical)
    pairs = [
        ("m0_lo", estimate.lo),
        ("m0_hi", estimate.hi),
        ("width", estimate.width),
        ("midpoint", estimate.midpoint),
        ("iterations", estimate.iterations),
        ("open_upper_bound", estimate.open_upper_bound),
        ("throat_bound", float(np.pi * grid.profile.b**2)),
    ]
    write_report(out_dir / "critical.txt", pairs)
    print(f"critical flux bracket [{estimate.lo!r}, {estimate.hi!r}]"
          + (" (open)" if estimate.open_upper_bound else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="axinozzle",
        description="Subsonic axisymmetric nozzle flow solves from an INI config.")
    parser.add_argument("command", choices=("solve", "sweep", "critical", "diagnose"))
    parser.add_argument("--config", required=True, help="path to the INI configuration")
    parser.add_argument("--out", default=".", help="output directory (created if needed)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for sweep (cold starts when > 1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        return run(cfg, args.command, Path(args.out), jobs=args.jobs)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
