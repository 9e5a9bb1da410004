"""Configuration parsing, file outputs, determinism, and exit codes."""

import contextlib
import io
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from axinozzle import (GasModel, build_grid, diagnostics_report, irrotationality_residual,
                       make_profile, newton_solve, velocity_from_stream)
from axinozzle.cli import (
    BAND_LIMIT,
    ConfigError,
    FIELD_HEADER,
    SWEEP_HEADER,
    main,
    parse_config,
    write_field_csv,
    write_report,
)
from axinozzle import cli
from axinozzle._reprfmt import _format, repr_csv
from axinozzle.fields import FlowField


BASE = """
[nozzle]
kind = cylinder
a = 1.0
length = 4

[grid]
nx = 48
nr = 12
delta = 1e-6

[flux]
m0 = 1.0
"""


def test_parse_defaults():
    cfg = parse_config("[flux]\nm0 = 2.0\n")
    assert cfg.gas.gamma == 1.4
    assert cfg.gas.m_tilde == 0.98
    assert cfg.nozzle.kind == "cylinder"
    assert cfg.nozzle.length is None           # automatic
    assert cfg.grid.nx == 96 and cfg.grid.nr == 24
    assert cfg.grid.delta == 0.0
    assert cfg.flux.mode == "single" and cfg.flux.m0 == 2.0
    assert cfg.tolerances.newton is None
    assert cfg.outputs.fields and cfg.outputs.diagnostics


def test_parse_sweep_and_critical():
    cfg = parse_config("[flux]\nsweep = 0.5, 1.0, 1.5\n")
    assert cfg.flux.mode == "sweep"
    assert cfg.flux.sweep == (0.5, 1.0, 1.5)
    cfg2 = parse_config("[flux]\ncritical = yes\n")
    assert cfg2.flux.mode == "critical"


def test_parse_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse_config("[bogus]\nx = 1\n[flux]\nm0 = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[flux]\nm0 = 1\nsweep = 1, 2\n")      # two modes
    with pytest.raises(ConfigError):
        parse_config("[flux]\n")                            # no mode
    with pytest.raises(ConfigError):
        parse_config("[flux]\nm0 = fast\n")                 # not a number
    with pytest.raises(ConfigError):
        parse_config("[flux]\nm0 = 1\n[grid]\nzz = 3\n")    # unknown key
    with pytest.raises(ConfigError):
        parse_config("[flux]\nm0 = -2\n")


@pytest.mark.parametrize("text", [
    BASE.replace("m0 = 1.0", "m0 = inf"),
    "[gas]\ngamma = nan\n" + BASE,
    BASE.replace("m0 = 1.0", "sweep = 0.5, nan"),
    BASE.replace("length = 4", "length = -inf"),
    BASE + "\n[tolerances]\nnewton = nan\n",
], ids=["m0-inf", "gamma-nan", "sweep-nan", "length-inf", "newton-nan"])
def test_parse_rejects_non_finite_numbers(text):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_config(text)


def test_gas_defaults_are_the_library_defaults():
    cfg = parse_config("[flux]\nm0 = 1\n")
    assert asdict(cfg.gas) == asdict(GasModel())


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_writes_outputs(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    field = (out / "field.csv").read_text()
    lines = field.splitlines()
    assert lines[0] == FIELD_HEADER
    assert len(lines) == 1 + 49 * 13
    row = lines[1].split(",")
    assert len(row) == 8
    assert float(row[0]) == -4.0
    diag = (out / "diagnostics.txt").read_text()
    assert "passed = true" in diag
    assert "m0 = 1.0" in diag


DIAGNOSTICS_KEYS = [
    "m0", "delta", "converged", "cutoff_active", "max_principle_violation",
    "barrier_violation", "min_axial_velocity", "min_velocity_x", "min_velocity_r",
    "angle_min", "angle_max", "angle_bound_lo", "angle_bound_hi", "flux_drift",
    "far_field_left", "far_field_right", "entropy_residual_plus", "entropy_residual_minus",
    "irrotationality_residual",
    "threshold_angle", "threshold_barrier_slack", "threshold_far_field",
    "threshold_flux_drift", "threshold_max_principle",
    "check_angle", "check_barrier", "check_converged", "check_cutoff", "check_far_field",
    "check_flux_drift", "check_max_principle", "check_positivity",
    "passed",
]


def test_diagnostics_file_keys(tmp_path):
    # the ordered key list is the format of diagnostics.txt
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "diagnostics.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines] == DIAGNOSTICS_KEYS


def test_default_thresholds_are_the_library_defaults(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    grid = build_grid(make_profile("cylinder", a=1.0), length=4.0, nx=48, nr=12, delta=1e-6)
    gas = GasModel()
    write_report(tmp_path / "library.txt",
                 diagnostics_report(newton_solve(grid, gas, 1.0 / (2 * np.pi)), gas).items())

    def threshold_lines(path):
        return [line for line in path.read_text().splitlines()
                if line.startswith("threshold_")]

    assert threshold_lines(out / "diagnostics.txt") == threshold_lines(tmp_path / "library.txt")
    assert len(threshold_lines(tmp_path / "library.txt")) == 5


@pytest.mark.parametrize("nozzle", [
    "kind = bump\na0 = 1.0\nh = -0.2\nw = 1.5\na = 3.0",     # a belongs to cylinder
    "kind = cylinder\na = 1.0\nell = 2.0",                   # ell belongs to tanh_step
    "kind = tanh_step\na = 0.8",                              # ell missing
    "kind = cone\na = 1.0",                                   # no such family
], ids=["bump-with-a", "cylinder-with-ell", "tanh-without-ell", "unknown-kind"])
def test_nozzle_parameters_must_fit_the_family(tmp_path, nozzle):
    cfg = write(tmp_path, BASE.replace("kind = cylinder\na = 1.0", nozzle))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # rejected before solving


def test_solve_deterministic_bytes(tmp_path):
    cfg = write(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
    assert (out1 / "diagnostics.txt").read_bytes() == (out2 / "diagnostics.txt").read_bytes()
    assert b"\r" not in (out1 / "field.csv").read_bytes()


def row_wise_field_csv(path, flow):
    """Reference writer: one repr-joined line per node, stations outer."""
    grid = flow.grid
    table = np.stack((grid.x_nodes, grid.r_nodes, flow.psi, flow.U, flow.V,
                      flow.rho, flow.mach, flow.omega), axis=-1).reshape(-1, 8)
    lines = [FIELD_HEADER] + [",".join(map(repr, row.tolist())) for row in table]
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def test_field_csv_matches_row_wise_writer(tmp_path, monkeypatch):
    # 41 stations of 4 rows in blocks of 66 // 4 = 16 stations: two full
    # blocks and a partial last one
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 66)
    grid = build_grid(make_profile("cylinder", a=1.0), length=4.0, nx=40, nr=3)
    special = np.array([0.0, -0.0, 1e16, 1e-05, 5e-324, 1.0 / 3.0, -2.5, 123456.789,
                        np.nan, np.inf, -np.inf, 1e-4, 1e15, 1e-07])
    rng = np.random.default_rng(5)
    columns = []
    for shift in range(7):  # every special value lands in every column
        values = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-8, 8, grid.shape)
        values.ravel()[shift::7][:special.size] = special
        columns.append(values)
    flow = FlowField(grid, 0.5, *columns[:6], psi=columns[6])
    write_field_csv(tmp_path / "blocks.csv", flow)
    row_wise_field_csv(tmp_path / "rows.csv", flow)
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\n") == 1 + 41 * 4
    assert b",-0.0," in written and b"5e-324" in written and b"1e+16" in written
    assert b"nan" in written and b"-inf" in written and b"1e-07" in written


def test_field_csv_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch):
    # a real solve on 97 stations of 25 rows; fewer rows than a station
    # still make one-station blocks, and (nx + 2) 25 puts every station in one
    grid = build_grid(make_profile("cylinder", a=1.0), length=6.0, nx=96, nr=24, delta=1e-6)
    sol = newton_solve(grid, GasModel(), 0.3)
    assert sol.converged
    flow = velocity_from_stream(sol, GasModel())
    write_field_csv(tmp_path / "default.csv", flow)
    expected = (tmp_path / "default.csv").read_bytes()
    for rows in (1, 25, 8 * 25, 24 * 25 + 7, 32 * 25, (grid.nx + 2) * 25):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", rows)
        write_field_csv(tmp_path / f"blocks{rows}.csv", flow)
        assert (tmp_path / f"blocks{rows}.csv").read_bytes() == expected, rows


def repr_rows(table):
    """The bytes repr_csv must produce: repr-joined rows, LF-terminated."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def assert_repr_csv(values, cols=8):
    table = np.array(values, dtype=float)
    table = table[:table.size // cols * cols].reshape(-1, cols)
    assert repr_csv(table) == repr_rows(table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=8, max_size=64))
def test_repr_csv_matches_repr_on_all_doubles(values):
    # mostly the fallback path: nan, inf, subnormals and values outside
    # the window all go through repr of that value alone
    assert_repr_csv(values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(2**52, 2**53 - 1), st.integers(-190, 2), st.booleans(),
                          st.integers(-6 * 10**5, 6 * 10**5), st.integers(-42, 10)),
                min_size=8, max_size=64))
def test_repr_csv_matches_repr_in_window(draws):
    # random 53-bit significands and binary exponents over the window of
    # the array path (and a little past both ends), and short decimals
    binary = [math.ldexp(-m if neg else m, e) for m, e, neg, _, _ in draws]
    decimal = [float(f"{k}e{p}") for _, _, _, k, p in draws]
    assert_repr_csv(binary)
    assert_repr_csv(decimal, cols=4)


def ulp_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate((np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)))


def test_repr_csv_matches_repr_on_edges():
    # powers of two (the half interval below), of ten (the carry and the
    # fixed/exponent switch) and the ends of the double range
    edges = np.concatenate((
        [0.0, 9999999999999998.0, 2.0**53, 0.1, 1.0 / 3.0, 5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308],
        ulp_neighbours(2.0 ** np.arange(-140, 60)),
        ulp_neighbours([float(f"1e{k}") for k in range(-45, 23)]),
        ulp_neighbours(10.0 ** np.arange(-45, 23)),
        ulp_neighbours([1e-5, 1e-4, 1e15, 1e16]),
    ))
    assert_repr_csv(np.concatenate((edges, -edges)))
    assert repr_csv(np.array([[1e-7, -0.0, 2.0**-98]])) == b"1e-07,-0.0,3.1554436208840472e-30\n"


def test_repr_csv_decides_uniform_values_without_repr():
    # the array path, not the per-value fallback, writes at least 99% of
    # uniform values in (0, 1)
    values = np.random.default_rng(12).random(10**5)
    _, slow = _format(values)
    assert slow.size <= 10**3
    assert repr_csv(values.reshape(-1, 8)) == repr_rows(values.reshape(-1, 8))


def test_zero_flux_solve(tmp_path):
    cfg = write(tmp_path, BASE.replace("m0 = 1.0", "m0 = 0.0"))
    out = tmp_path / "zero"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    diag = (out / "diagnostics.txt").read_text()
    assert "passed = true" in diag


TANH = BASE.replace("kind = cylinder\na = 1.0\nlength = 4",
                    "kind = tanh_step\na = 0.8\nell = 2.0\nlength = 12")


def test_diagnose_exit_code_on_failure(tmp_path):
    # a pipe carries its flux to rounding; a tanh step drifts by about 1e-4
    failing = TANH + "\n[tolerances]\nflux_drift = 1e-15\n"
    cfg = write(tmp_path, failing)
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 1
    diag = (out / "diagnostics.txt").read_text()
    assert "passed = false" in diag
    assert "check_flux_drift = false" in diag


def test_infinite_flux_exits_2(tmp_path):
    cfg = write(tmp_path, BASE.replace("m0 = 1.0", "m0 = inf"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "inf")]) == 2


COARSE = BASE.replace("nr = 12", "nr = 4")


def test_diagnostics_on_too_coarse_grid_exit_2(tmp_path):
    cfg = write(tmp_path, COARSE)
    out = tmp_path / "coarse"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 2
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # rejected before solving


@pytest.mark.parametrize("grid", ["nx = 1\nnr = 12", "nx = 48\nnr = 12\ndelta = -1"],
                         ids=["nx-1", "delta-negative"])
def test_grid_rules_exit_2(tmp_path, grid):
    # diagnostics off, so the grid's own checks are the ones that fire
    text = BASE.replace("nx = 48\nnr = 12\ndelta = 1e-6", grid)
    cfg = write(tmp_path, text + "\n[outputs]\ndiagnostics = no\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # rejected before solving


def test_grid_over_band_limit_exit_2(tmp_path, capsys):
    # the grid's own arrays would take about 100 GB; the limit fires first
    cfg = write(tmp_path, BASE.replace("nx = 48", "nx = 1000000000"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert f"over the limit of {BAND_LIMIT}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_without_diagnostics_on_coarse_grid(tmp_path):
    cfg = write(tmp_path, COARSE + "\n[outputs]\ndiagnostics = no\n")
    out = tmp_path / "coarse"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "field.csv").read_text().splitlines()) == 1 + 49 * 5
    assert not (out / "diagnostics.txt").exists()


SUPERCRITICAL = BASE.replace("m0 = 1.0", "m0 = 10.0")  # critical flux ~ pi * 0.98
# above the critical flux of this coarse bump every cell stays below the
# truncation onset s_lo, but wall nodes, whose gradient is one-sided, pass it
NODAL_CUTOFF = """
[nozzle]
kind = bump
a0 = 1.0
h = -0.2
w = 1.0
length = 8

[grid]
nx = 24
nr = 6

[flux]
m0 = 1.85
"""
# certified by the cells alone, just below their bracket [1.68679, 1.68683],
# this flux wrote 2 wall nodes at Mach 0.873, past M(s_lo) = 0.851; with
# the nodes its bracket is [1.67594, 1.67599]
NODAL_CUTOFF_FINE = (NODAL_CUTOFF.replace("h = -0.2", "h = -0.25").replace("nx = 24", "nx = 128")
                     .replace("nr = 6", "nr = 32").replace("m0 = 1.85", "m0 = 1.6867"))


def test_cutoff_fails_diagnostics(tmp_path):
    cfg = write(tmp_path, SUPERCRITICAL)
    out = tmp_path / "hot"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    diag = (out / "diagnostics.txt").read_text()
    assert "check_cutoff = false" in diag
    assert "passed = false" in diag


def test_cutoff_without_diagnostics_exits_1(tmp_path, capsys):
    coarse = SUPERCRITICAL.replace("nr = 12", "nr = 4")
    cfg = write(tmp_path, coarse + "\n[outputs]\ndiagnostics = no\n")
    out = tmp_path / "hot"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "momentum cutoff active" in capsys.readouterr().err
    assert not (out / "field.csv").exists()


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_sonic_overshoot_exits_1_without_output(tmp_path, capsys, command):
    # a wall node past s_lo is the momentum cutoff: solve without diagnostics
    # writes nothing, diagnose writes a report that fails check_cutoff
    if command == "solve":
        cfg = write(tmp_path, NODAL_CUTOFF + "\n[outputs]\ndiagnostics = no\n")
        out = tmp_path / "over"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "momentum cutoff active" in err
        assert not (out / "field.csv").exists()
        assert not (out / "diagnostics.txt").exists()
        return
    for text in (NODAL_CUTOFF, NODAL_CUTOFF_FINE):
        cfg = write(tmp_path, text)
        out = tmp_path / "over"
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 1
        assert "failed checks: " in capsys.readouterr().err
        diag = (out / "diagnostics.txt").read_text()
        assert "check_cutoff = false" in diag
        assert "passed = false" in diag


def test_sweep_records_a_nodal_cutoff_row(tmp_path):
    # a flux whose cutoff engages only at the nodes is a cutoff row like any other
    cfg = write(tmp_path, NODAL_CUTOFF.replace("m0 = 1.85", "sweep = 1.0, 1.85"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("1.0", "false"), ("1.85", "true")]


def test_sweep_table(tmp_path):
    text = BASE.replace("m0 = 1.0", "sweep = 0.5, 1.5, 2.5")
    cfg = write(tmp_path, text)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 4
    m0s = [float(line.split(",")[0]) for line in lines[1:]]
    assert m0s == [0.5, 1.5, 2.5]
    machs = [float(line.split(",")[1]) for line in lines[1:]]
    assert machs == sorted(machs)
    assert all(line.split(",")[3] == "false" for line in lines[1:])


def test_critical_report(tmp_path):
    text = BASE.replace("m0 = 1.0", "critical = yes")
    cfg = write(tmp_path, text)
    out = tmp_path / "crit"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ") for line in
                  (out / "critical.txt").read_text().splitlines())
    assert list(report) == ["m0_lo", "m0_hi", "width", "midpoint", "iterations",
                            "open_upper_bound"]
    lo, hi = float(report["m0_lo"]), float(report["m0_hi"])
    oracle = np.pi * 0.98
    assert lo < oracle < hi or abs(hi - oracle) / oracle < 2e-3
    assert report["open_upper_bound"] == "false"
    assert report["iterations"] == "1"  # one probe below the throat bound
    assert hi - lo == pytest.approx(float(report["width"]), abs=1e-15)


@pytest.mark.parametrize("command, flux, key, value", [
    ("critical", "critical = yes", "critical", "-0.5"),
    ("critical", "critical = yes", "critical", "0"),
    ("critical", "critical = yes", "newton", "-1"),
    ("solve", "m0 = 1.0", "newton", "-1"),
    ("solve", "m0 = 1.0", "newton", "0"),
    ("solve", "m0 = 1.0", "critical", "-0.5"),
])
def test_non_positive_tolerances_exit_2(tmp_path, capsys, command, flux, key, value):
    # before, critical ran all 70 probes and exited 0, and solve exited 3
    text = BASE.replace("m0 = 1.0", flux) + f"\n[tolerances]\n{key} = {value}\n"
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert f"{key} must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_unresolvable_critical_tolerance_exits_2(tmp_path, capsys):
    # a tol below 1e-12 B (B = pi 0.98 here) is refused before any probe:
    # 1e-300 would not move B in floating point, and 1e-13 lies below the
    # floor; 1e-300 used to exit 1 with a ValueError traceback.  So is a
    # tol of B or more: 1e300 used to exit 0 with the bracket [0, 9e+299]
    for value in ("1e-300", "1e-13", "1e300"):
        text = BASE.replace("m0 = 1.0", "critical = yes") + f"\n[tolerances]\ncritical = {value}\n"
        out = tmp_path / f"out{value}"
        assert main(["critical", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: tolerances: critical:")
        assert f"tol = {float(value)!r}" in err
        assert not out.exists()


SMALL_CYLINDER = BASE.replace("nx = 48\nnr = 12\ndelta = 1e-6", "nx = 16\nnr = 8")


@pytest.mark.parametrize("edit", [
    ("a = 1.0", "a = 1e300"),        # was an OverflowError from the diagnostics' b**2
    ("a = 1.0", "a = 1e-300"),       # was a LinearSolveError: a non-finite Hessian
    ("length = 4", "length = 1e-300"),
    ("m0 = 1.0", "m0 = 1e300"),      # a flux above 1e12 pi b^2
    ("m0 = 1.0", "sweep = 1, 1e300"),
    ("length = 4", "length = auto\nell = 1e9"),  # was an uncaught pick_domain_length error
], ids=["a-1e300", "a-1e-300", "length-1e-300", "m0-1e300", "sweep-1e300", "auto-unflat"])
def test_unrepresentable_scales_exit_2(tmp_path, capsys, edit):
    text = SMALL_CYLINDER.replace(*edit)
    if "ell" in text:
        text = text.replace("kind = cylinder\na = 1.0", "kind = tanh_step\na = 0.8")
    command = "sweep" if "sweep" in text else "solve"
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("configuration error: ")
    assert not out.exists()


TANH_32X8 = """
[nozzle]
kind = tanh_step
a = 0.8
ell = 2
length = 8

[grid]
nx = 32
nr = 8

[flux]
m0 = 1.0
"""


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_newton_tolerance_that_certifies_the_start_exits_2(tmp_path, capsys, command):
    # the solver default is 1e-10 max(1, m), m = m0 / (2 pi); a tolerance
    # above 1e4 times that is refused: newton = 1e300 took 0 iterations and
    # passed the diagnostics with psi 1.3e-3 m from the default solve
    for value, code in (("1e300", 2), ("1e-5", 2), ("1e-6", 0)):
        text = TANH_32X8 + f"\n[tolerances]\nnewton = {value}\n"
        out = tmp_path / f"out{value}"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert len(err.splitlines()) == 1
            assert err.startswith("configuration error: tolerances: newton must be at most")
            assert not out.exists()
        else:
            assert "passed = true" in (out / "diagnostics.txt").read_text()


# Each config key with its valid values and its boundary or absurd ones.
# Valid values keep the draw on small grids (at most 32 x 8) that solve
# in milliseconds; the boundary values of the scale rules sit at 1e+-12,
# and 1eN stands for a power of ten anywhere in the double range.
FUZZ_KEYS = {
    ("nozzle", "kind"): (("cylinder", "tanh_step", "bump"), ("cone", "")),
    ("gas", "gamma"): (("1.4", "1.2", "1.6667"),
                       ("1eN", "1", "1.00000001", "1.00000002", "134217729", "134217730", "0",
                        "-1", "nan", "fast")),
    ("gas", "m_tilde"): (("0.98", "0.9"), ("0.5", "0.999999", "1", "0", "-0.5", "1e-300", "2",
                                           "inf")),
    ("nozzle", "length"): (("auto", "4", "8"), ("1eN", "2", "0.1", "1e-12", "1e12", "1.1e12",
                                                "0", "-1", "-inf")),
    ("nozzle", "a"): (("1", "0.8", "1.5"), ("1eN", "1e-12", "1e12", "9e-13", "1.1e12", "0", "-1")),
    ("nozzle", "ell"): (("2", "0.5"), ("1eN", "1e-12", "1e12", "0", "-1")),
    ("nozzle", "a0"): (("1", "1.2"), ("1eN", "1e-12", "1e12", "0", "-1")),
    ("nozzle", "h"): (("-0.2", "0.3"), ("1eN", "-0.999", "-1", "0", "1e12")),
    ("nozzle", "w"): (("1", "2"), ("1eN", "0.3", "1e-12", "1e12", "0")),
    ("grid", "nx"): (("16", "24", "32"), ("5", "4", "2", "1", "0", "-3", "4.5", "1000000000")),
    ("grid", "nr"): (("6", "8"), ("5", "4", "2", "1", "0", "-3", "100000")),
    ("grid", "delta"): (("0", "1e-6", "0.01"), ("1eN", "0.1", "0.5", "-1", "nan")),
    ("flux", "m0"): (("0.5", "1", "1.5"), ("1eN", "0", "1.85", "3", "10", "3e12", "-1")),
    ("flux", "sweep"): (("0.5, 1", "1, 0.5, 1.5"), ("1eN", "0", "10, 1", "1e-300, 0", "-1", "")),
    ("flux", "critical"): (("yes",), ("no", "maybe")),
    ("tolerances", "newton"): (("auto", "1e-10"), ("1eN", "1e-6", "0", "-1", "nan")),
    ("tolerances", "critical"): (("auto", "1e-3"), ("1eN", "0.1", "1", "0", "-1")),
    ("tolerances", "max_principle"): (("1e-10",), ("0", "1e300", "-1")),
    ("tolerances", "barrier_slack"): (("1e-8",), ("0", "1e300", "-1")),
    ("tolerances", "angle"): (("1.0",), ("0", "1e300", "-1")),
    ("tolerances", "flux_drift"): (("1e-3",), ("0", "1e300", "-1")),
    ("tolerances", "far_field"): (("1e-3",), ("0", "1e300", "-1")),
    ("outputs", "fields"): (("yes", "no"), ("maybe",)),
    ("outputs", "diagnostics"): (("yes", "no"), ("0", "2")),
}
FUZZ_FAMILIES = {"cylinder": ("a",), "tanh_step": ("a", "ell"), "bump": ("a0", "h", "w")}
FUZZ_COMMANDS = {"m0": "solve", "sweep": "sweep", "critical": "critical"}


@st.composite
def fuzz_configs(draw):
    """A command and its INI text, with up to two keys off their valid values.

    The nozzle kind, the parameters of its family, the drawn [flux] key,
    nx and nr are present; any other key may be left out.  One draw in
    twenty pairs the config with a random command.
    """
    kind = draw(st.sampled_from(sorted(FUZZ_FAMILIES)))
    mode = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    n_off = draw(st.sampled_from((1, 2, 0, 1)))
    off = draw(st.lists(st.sampled_from(sorted(FUZZ_KEYS)), min_size=n_off, max_size=n_off,
                        unique=True))
    sections: dict[str, dict[str, str]] = {}
    for (section, key), (valid, absurd) in FUZZ_KEYS.items():
        if (section, key) in off:
            value = draw(st.sampled_from(absurd))
            if value == "1eN":
                value = f"1e{draw(st.integers(-300, 300))}"
        elif key == "kind":
            value = kind
        elif section == "nozzle" and key != "length":
            value = draw(st.sampled_from(valid)) if key in FUZZ_FAMILIES[kind] else None
        elif section == "flux":
            value = draw(st.sampled_from(valid)) if key == mode else None
        elif key in ("nx", "nr"):
            value = draw(st.sampled_from(valid))
        else:
            value = draw(st.sampled_from((None,) + valid))
        if value is not None:
            sections.setdefault(section, {})[key] = value
    command = FUZZ_COMMANDS[mode]
    if command == "solve" and draw(st.booleans()):
        command = "diagnose"
    if draw(st.integers(0, 19)) == 19:
        command = draw(st.sampled_from(("solve", "diagnose", "sweep", "critical")))
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())
    return command, text


def expected_outputs(command, cfg):
    if command == "sweep":
        return {"sweep.csv"}
    if command == "critical":
        return {"critical.txt"}
    names = {"field.csv"} if cfg.outputs.fields else set()
    if command == "diagnose" or cfg.outputs.diagnostics:
        names.add("diagnostics.txt")
    return names


OVERSIZE = "[nozzle]\nkind = cylinder\na = 1\n[grid]\nnx = {}\nnr = {}\n[flux]\n{}\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fuzz_configs())
@example(("solve", OVERSIZE.format(1000000000, 6, "m0 = 1")))
@example(("critical", OVERSIZE.format(16, 100000, "critical = yes")))
def test_every_config_exits_0_to_3_without_traceback(draw):
    command, text = draw
    try:
        cfg = parse_config(text)
    except ConfigError:
        cfg = None
    # every oversize grid drawn needs a Newton band over BAND_LIMIT (or has
    # fewer than 2 cells one way), so it must exit 2 before any grid array
    oversize = cfg is not None and (cfg.grid.nx > 32 or cfg.grid.nr > 8)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "run.ini", Path(tmp) / "out"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if oversize:
            assert code == 2
        if code == 2:
            assert not out.exists()
        if code == 0:
            assert {p.name for p in out.iterdir()} == expected_outputs(command, cfg)
            if (out / "diagnostics.txt").exists():
                assert "passed = true" in (out / "diagnostics.txt").read_text()


@pytest.mark.parametrize("text, message", [
    ("[flux\nm0 = 1\n", "malformed configuration"),
    (BASE.replace("[flux]\nm0 = 1.0", ""), "missing required section [flux]"),
    (BASE + "m1 = 2\n", "unknown keys in [flux]: ['m1']"),
    (BASE.replace("nx = 48", "nx = abc"), "nx: not an integer: 'abc'"),
    (BASE.replace("m0 = 1.0", "sweep = 0.5, 1.0"), "solve needs [flux] m0"),
], ids=["malformed", "no-flux", "unknown-flux-key", "nx-abc", "solve-sweep"])
def test_configuration_errors_exit_2(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    assert main(["solve", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not out.exists()


BUMP_W1 = """
[nozzle]
kind = bump
a0 = 1.0
h = -0.25
w = 1.0
length = auto

[grid]
nx = 256
nr = 64

[flux]
m0 = 0.9
"""


def test_auto_length_passes_the_far_field_check(tmp_path):
    # the wall is flat to 1e-6 at x = +-4 but 4.6e-3 off flat at the
    # far-field stations x = +-2; length = auto picked 4 and failed there
    # with far_field 5.6e-3, and now picks 8
    out = tmp_path / "out"
    assert main(["diagnose", "--config", write(tmp_path, BUMP_W1), "--out", str(out)]) == 0
    diag = dict(line.split(" = ") for line in (out / "diagnostics.txt").read_text().splitlines())
    assert diag["check_far_field"] == "true"
    assert max(float(diag["far_field_left"]), float(diag["far_field_right"])) < 1e-6


@pytest.mark.parametrize("command, outputs", [
    ("diagnose", ""), ("solve", ""), ("solve", "\n[outputs]\ndiagnostics = no\n"),
], ids=["diagnose", "solve", "solve-no-diagnostics"])
def test_length_below_the_far_field_offset(tmp_path, capsys, command, outputs):
    # at length 1.5 each far-field station lies in the other half of the nozzle
    text = BUMP_W1.replace("length = auto", "length = 1.5").replace("256", "32") + outputs
    out = tmp_path / "out"
    code = main([command, "--config", write(tmp_path, text), "--out", str(out)])
    if outputs:  # without diagnostics no far-field check runs
        assert code == 0 and (out / "field.csv").exists()
        return
    assert code == 2
    assert "diagnostics need length >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_library_shape_errors():
    # the checks behind two command-line rules: a start of another shape
    # and a grid too coarse for the irrotationality residual
    grid = build_grid(make_profile("cylinder", a=1.0), length=4.0, nx=16, nr=4)
    with pytest.raises(ValueError, match="init shape"):
        newton_solve(grid, GasModel(), 0.3, init=np.zeros((16, 4)))
    flow = velocity_from_stream(newton_solve(grid, GasModel(), 0.3), GasModel())
    with pytest.raises(ValueError, match="grid too coarse"):
        irrotationality_residual(flow)


def test_command_config_consistency(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "x"
    # sweep command with a single-flux config is a configuration error
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 2
