"""Command line front end: INI-configured solves with deterministic outputs.

Commands:

    solve      one mass flux, write the field table (and diagnostics)
    diagnose   one mass flux, write and gate on the diagnostics report
    sweep      a list of fluxes, write the sweep table
    critical   bracket the critical flux, write the bracket report

All output files use repr floats (the shortest digits that read back to
the same double) and LF line endings, so a rerun with the same
configuration produces byte-identical files.  field.csv gets those digits
from a vectorized kernel (_reprfmt), which falls back to repr value by
value; the other files call repr directly.

Exit codes: 0 success, 1 diagnostics failed (or, for solve with
diagnostics off, the momentum cutoff engaged: the squared momentum of a
cell or an off-axis node passed the truncation onset), 2 configuration
error (or an --out that cannot be created or written), 3 solver
non-convergence (or a critical bracket that did not close).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._reprfmt import lead_templates, repr_csv
from .gas import GasModel
from .nozzle import (FAR_FIELD_OFFSET, SCALE_LIMIT, NozzleProfile, build_grid, make_profile,
                     pick_domain_length)
from .solver import newton_solve
from .fields import (DEFAULT_THRESHOLDS, MIN_DIAGNOSTIC_CELLS, TWO_PI, diagnostics_report,
                     velocity_from_stream)
from .continuation import CriticalToleranceError, find_critical_flux, mass_flux_sweep, SweepPoint

FIELD_HEADER = "x,r,psi,U,V,rho,mach,omega"
SWEEP_HEADER = "m0,M,q_min,cutoff_active,flux_drift,farfield_left,farfield_right"
_CSV_BLOCK_ROWS = 2064  # rows of field.csv formatted per write: 16 stations at nr = 128
BAND_LIMIT = 2**31  # bytes of Newton band a grid may need, (nr+1)(nx-1)(nr-1) doubles

# Annotation of a key that also accepts the value 'auto' (parsed to None).
AutoFloat = float | None


class ConfigError(ValueError):
    """Configuration file failed validation."""


@dataclass(frozen=True)
class NozzleConfig:
    """Wall family and the parameters given for it (None: not given).

    nozzle.make_profile decides which parameters each family needs.
    """

    kind: str = "cylinder"
    a: float | None = None
    ell: float | None = None
    a0: float | None = None
    h: float | None = None
    w: float | None = None
    length: AutoFloat = None      # None means pick automatically


@dataclass(frozen=True)
class GridConfig:
    nx: int = 96
    nr: int = 24
    delta: float = 0.0


@dataclass(frozen=True)
class FluxConfig:
    mode: str                     # "single" | "sweep" | "critical"
    m0: float | None = None
    sweep: tuple[float, ...] = ()


@dataclass(frozen=True)
class ToleranceConfig:
    newton: AutoFloat = None          # None: solver default
    critical: AutoFloat = None        # None: bracket default
    max_principle: float = DEFAULT_THRESHOLDS["max_principle"]
    barrier_slack: float = DEFAULT_THRESHOLDS["barrier_slack"]
    angle: float = DEFAULT_THRESHOLDS["angle"]
    flux_drift: float = DEFAULT_THRESHOLDS["flux_drift"]
    far_field: float = DEFAULT_THRESHOLDS["far_field"]


@dataclass(frozen=True)
class OutputConfig:
    fields: bool = True
    diagnostics: bool = True


@dataclass(frozen=True)
class RunConfig:
    gas: GasModel
    nozzle: NozzleConfig
    grid: GridConfig
    flux: FluxConfig
    tolerances: ToleranceConfig
    outputs: OutputConfig


# sections read field by field into their dataclass; [flux] is read by hand
_SECTIONS = {"gas": GasModel, "nozzle": NozzleConfig, "grid": GridConfig,
             "tolerances": ToleranceConfig, "outputs": OutputConfig}
_FLUX_KEYS = ("m0", "sweep", "critical")


def _finite_float(key, raw, expected="a number"):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {expected}: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {raw!r}")
    return value


def _auto_float(key, raw):
    if raw.strip().lower() == "auto":
        return None
    return _finite_float(key, raw, "a number or 'auto'")


def _int(key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def _bool(key, raw):
    lowered = raw.strip().lower()
    if lowered in ("yes", "true", "on", "1"):
        return True
    if lowered in ("no", "false", "off", "0"):
        return False
    raise ConfigError(f"{key}: not a boolean: {raw!r}")


# value parser for each field annotation used in the section dataclasses
_READERS = {
    "float": _finite_float,
    "float | None": _finite_float,
    "AutoFloat": _auto_float,
    "int": _int,
    "bool": _bool,
    "str": lambda key, raw: raw,
}


def _read_section(parser, name):
    """Build a section's dataclass from the keys it sets over the field defaults."""
    cls = _SECTIONS[name]
    readers = {f.name: _READERS[f.type] for f in fields(cls)}
    section = parser[name] if parser.has_section(name) else {}
    extra = section.keys() - readers.keys()
    if extra:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(extra)}")
    values = {key: readers[key](key, raw) for key, raw in section.items()}
    try:  # GasModel checks its parameters; a reader's ConfigError is not wrapped again
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _read_flux(parser) -> FluxConfig:
    if not parser.has_section("flux"):
        raise ConfigError("missing required section [flux]")
    section = parser["flux"]
    extra = section.keys() - set(_FLUX_KEYS)
    if extra:
        raise ConfigError(f"unknown keys in [flux]: {sorted(extra)}")
    modes = [key for key in _FLUX_KEYS if key in section]
    if len(modes) != 1:
        raise ConfigError(
            f"[flux] must set exactly one of m0, sweep, critical; got {modes or 'none'}")
    if modes[0] == "m0":
        m0 = _finite_float("m0", section["m0"])
        if m0 < 0.0:
            raise ConfigError("flux: m0 must be a number >= 0")
        return FluxConfig(mode="single", m0=m0)
    if modes[0] == "sweep":
        values = tuple(_finite_float("sweep", tok) for tok in section["sweep"].split(","))
        if not values or any(v < 0.0 for v in values):
            raise ConfigError("flux: sweep needs a comma list of numbers >= 0")
        return FluxConfig(mode="sweep", sweep=values)
    if not _bool("critical", section["critical"]):
        raise ConfigError("flux: critical must be 'yes' when present")
    return FluxConfig(mode="critical")


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    for name in parser.sections():
        if name not in _SECTIONS and name != "flux":
            raise ConfigError(f"unknown section [{name}]")
    sections = {name: _read_section(parser, name) for name in _SECTIONS}
    for key in ("newton", "critical"):
        value = getattr(sections["tolerances"], key)
        if value is not None and value <= 0.0:
            raise ConfigError(f"tolerances: {key} must be > 0 or 'auto'")
    for key in DEFAULT_THRESHOLDS:  # every measured quantity is >= 0
        if getattr(sections["tolerances"], key) < 0.0:
            raise ConfigError(f"tolerances: {key} must be >= 0")
    return RunConfig(flux=_read_flux(parser), **sections)


def _make_profile(cfg: NozzleConfig) -> NozzleProfile:
    params = {key: value for key, value in asdict(cfg).items()
              if key not in ("kind", "length") and value is not None}
    try:
        return make_profile(cfg.kind, **params)
    except ValueError as exc:
        raise ConfigError(f"nozzle: {exc}") from exc


def _build_grid(cfg: RunConfig):
    profile = _make_profile(cfg.nozzle)
    length = cfg.nozzle.length
    if length is None:
        try:
            length = pick_domain_length(profile)
        except ValueError as exc:
            raise ConfigError(f"nozzle: length = auto: {exc}") from exc
    nx, nr = cfg.grid.nx, cfg.grid.nr
    band_bytes = 8 * (nr + 1) * (nx - 1) * (nr - 1)
    if min(nx, nr) >= 2 and band_bytes > BAND_LIMIT:  # checked before any grid array exists
        raise ConfigError(f"grid: nx = {nx} and nr = {nr} need a Newton band of "
                          f"{band_bytes} bytes, over the limit of {BAND_LIMIT} (2 GiB)")
    try:
        grid = build_grid(profile, length=length, nx=nx, nr=nr, delta=cfg.grid.delta)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    # squared momenta grow like (m0 / (pi b^2))^2 and overflow near m0 = 1e154 pi b^2;
    # any flux above pi b^2 is supercritical, so the rule takes the lengths' limit
    limit = SCALE_LIMIT * np.pi * profile.b**2
    if any(m0 > limit for m0 in (cfg.flux.m0 or 0.0,) + cfg.flux.sweep):
        raise ConfigError(f"flux: m0 must be at most {SCALE_LIMIT:g} times the throat "
                          f"flux pi b^2, {limit!r}")
    return grid


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_text(path: Path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_field_csv(path: Path, flow) -> None:
    """Row-major field table: stations outer, radii inner.

    Each row is ",".join(map(repr, row)): the digits come from the
    vectorized kernel _reprfmt.repr_csv, which writes the values outside
    its window, and any it cannot decide exactly, with repr itself.  x is
    constant along a station, so it is formatted once per station.
    """
    grid = flow.grid
    columns = (grid.r_nodes, flow.psi, flow.U, flow.V, flow.rho, flow.mach, flow.omega)
    x_text = lead_templates(grid.xi)
    with open(path, "wb") as handle:
        handle.write(FIELD_HEADER.encode() + b"\n")
        # blocks of whole stations, about _CSV_BLOCK_ROWS rows whatever nr,
        # keep the kernel's arrays in cache and bound its byte templates;
        # larger blocks can push its temporaries past malloc's mmap
        # threshold, to page-fault every block
        stations = max(1, _CSV_BLOCK_ROWS // (grid.nr + 1))
        for start in range(0, grid.nx + 1, stations):
            block = slice(start, start + stations)
            table = np.stack([column[block] for column in columns], axis=-1)
            handle.write(repr_csv(table.reshape(-1, len(columns)),
                                  lead=np.repeat(x_text[block], grid.nr + 1, axis=0)))


def write_sweep_csv(path: Path, points: list[SweepPoint]) -> None:
    _write_text(path, [SWEEP_HEADER] + [",".join(map(_fmt, (
        p.m0, p.mach_max, p.speed_min, p.cutoff_active, p.flux_drift, *p.far_field)))
        for p in points])


def write_report(path: Path, pairs) -> None:
    _write_text(path, [f"{key} = {_fmt(value)}" for key, value in pairs])


def run(cfg: RunConfig, command: str, out_dir: Path) -> int:
    """Execute one command; returns the process exit code.

    out_dir is created just before the first output is written, so a
    configuration rejected with ConfigError leaves no directory behind.
    """
    if command in ("solve", "diagnose") and cfg.flux.mode != "single":
        raise ConfigError(f"{command} needs [flux] m0")
    if command == "sweep" and cfg.flux.mode != "sweep":
        raise ConfigError("sweep needs [flux] sweep")
    if command == "critical" and cfg.flux.mode != "critical":
        raise ConfigError("critical needs [flux] critical = yes")
    newton_limit = 1e-6 * max(1.0, (cfg.flux.m0 or 0.0) / TWO_PI)  # 1e4 x the solver default
    if command in ("solve", "diagnose") and (cfg.tolerances.newton or 0.0) > newton_limit:
        raise ConfigError(f"tolerances: newton must be at most {newton_limit!r}, "
                          "1e4 times the solver default")
    diagnostics = command == "diagnose" or (command == "solve" and cfg.outputs.diagnostics)
    if diagnostics and min(cfg.grid.nx, cfg.grid.nr) < MIN_DIAGNOSTIC_CELLS:
        raise ConfigError(f"grid: diagnostics need nx and nr >= {MIN_DIAGNOSTIC_CELLS}; "
                          "set [outputs] diagnostics = no or refine the grid")
    # below this the far-field station of each end lies in the other half
    length = cfg.nozzle.length
    if diagnostics and length is not None and length < FAR_FIELD_OFFSET:
        raise ConfigError(f"nozzle: diagnostics need length >= {FAR_FIELD_OFFSET:g}, where "
                          "the far-field check samples; set [outputs] diagnostics = no "
                          "or lengthen the nozzle")

    gas, grid = cfg.gas, _build_grid(cfg)

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
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.outputs.fields:
            write_field_csv(out_dir / "field.csv", flow)
        code = 0
        if diagnostics:
            thresholds = {key: value for key, value in asdict(cfg.tolerances).items()
                          if key in DEFAULT_THRESHOLDS}
            report = diagnostics_report(solution, gas, flow=flow, thresholds=thresholds)
            write_report(out_dir / "diagnostics.txt", report.items())
            print(f"m0 = {cfg.flux.m0}: diagnostics "
                  + ("passed" if report.passed else "FAILED"))
            if not report.passed:
                failed = sorted(k for k, ok in report.checks.items() if not ok)
                print("failed checks: " + ", ".join(failed), file=sys.stderr)
                code = 1
        return code

    if command == "sweep":
        points = mass_flux_sweep(grid, gas, cfg.flux.sweep)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(out_dir / "sweep.csv", points)
        print(f"swept {len(points)} fluxes; "
              f"{sum(p.cutoff_active for p in points)} hit the momentum cutoff")
        return 0

    try:
        estimate = find_critical_flux(grid, gas, tol=cfg.tolerances.critical)
    except CriticalToleranceError as exc:  # raised before the first probe
        raise ConfigError(f"tolerances: critical: {exc}") from exc
    if estimate.width > estimate.tol:
        print(f"critical flux bracket [{estimate.lo!r}, {estimate.hi!r}] did not close to "
              f"tol = {estimate.tol!r} in {len(estimate.probes)} probes", file=sys.stderr)
        return 3
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = [
        ("m0_lo", estimate.lo),
        ("m0_hi", estimate.hi),
        ("width", estimate.width),
        ("midpoint", estimate.midpoint),
        ("iterations", len(estimate.probes)),
        ("open_upper_bound", False),  # the throat bound closes every bracket
    ]
    write_report(out_dir / "critical.txt", pairs)
    print(f"critical flux bracket [{estimate.lo!r}, {estimate.hi!r}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="axinozzle",
        description="Subsonic axisymmetric nozzle flow solves from an INI config.")
    parser.add_argument("command", choices=("solve", "sweep", "critical", "diagnose"))
    parser.add_argument("--config", required=True, help="path to the INI configuration")
    parser.add_argument("--out", default=".", help="output directory (created if needed)")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        return run(cfg, args.command, Path(args.out))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # run reads nothing; this is creating or writing --out
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
