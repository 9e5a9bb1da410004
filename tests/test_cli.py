"""Configuration parsing, file outputs, determinism, and exit codes."""

import numpy as np
import pytest

from axinozzle.cli import (
    ConfigError,
    FIELD_HEADER,
    SWEEP_HEADER,
    main,
    parse_config,
    serialize_config,
)


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
    assert cfg.flux.mode == "single" and cfg.flux.m0 == 2.0
    assert cfg.tolerances.newton is None
    assert cfg.outputs.fields and cfg.outputs.diagnostics


def test_parse_sweep_and_critical():
    cfg = parse_config("[flux]\nsweep = 0.5, 1.0, 1.5\n")
    assert cfg.flux.mode == "sweep"
    assert cfg.flux.sweep == (0.5, 1.0, 1.5)
    cfg2 = parse_config("[flux]\ncritical = yes\n")
    assert cfg2.flux.mode == "critical"


def test_round_trip():
    cfg = parse_config(BASE)
    assert parse_config(serialize_config(cfg)) == cfg
    cfg2 = parse_config("[gas]\ngamma = 1.2\n[flux]\nsweep = 0.25, 0.75\n"
                        "[tolerances]\nnewton = 1e-11\n")
    assert parse_config(serialize_config(cfg2)) == cfg2


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
        parse_config("[flux]\nm0 = 1\n[grid]\nnx = 1\n")    # grid too coarse
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


def test_solve_deterministic_bytes(tmp_path):
    cfg = write(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
    assert (out1 / "diagnostics.txt").read_bytes() == (out2 / "diagnostics.txt").read_bytes()
    assert b"\r" not in (out1 / "field.csv").read_bytes()


def test_zero_flux_solve(tmp_path):
    cfg = write(tmp_path, BASE.replace("m0 = 1.0", "m0 = 0.0"))
    out = tmp_path / "zero"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    diag = (out / "diagnostics.txt").read_text()
    assert "passed = true" in diag


def test_diagnose_exit_code_on_failure(tmp_path):
    failing = BASE + "\n[tolerances]\nflux_drift = 1e-15\n"
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


def test_solve_without_diagnostics_on_coarse_grid(tmp_path):
    cfg = write(tmp_path, COARSE + "\n[outputs]\ndiagnostics = no\n")
    out = tmp_path / "coarse"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "field.csv").read_text().splitlines()) == 1 + 49 * 5
    assert not (out / "diagnostics.txt").exists()


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


def test_sweep_parallel_jobs(tmp_path):
    text = BASE.replace("m0 = 1.0", "sweep = 0.5, 1.5")
    cfg = write(tmp_path, text)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["sweep", "--config", cfg, "--out", str(seq)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(par), "--jobs", "2"]) == 0
    rows_seq = (seq / "sweep.csv").read_text().splitlines()[1:]
    rows_par = (par / "sweep.csv").read_text().splitlines()[1:]
    for a, b in zip(rows_seq, rows_par):
        va = np.array([float(t) for t in a.split(",")[:2]])
        vb = np.array([float(t) for t in b.split(",")[:2]])
        assert np.abs(va - vb).max() < 1e-7


def test_critical_report(tmp_path):
    text = BASE.replace("m0 = 1.0", "critical = yes")
    cfg = write(tmp_path, text)
    out = tmp_path / "crit"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ") for line in
                  (out / "critical.txt").read_text().splitlines())
    lo, hi = float(report["m0_lo"]), float(report["m0_hi"])
    oracle = np.pi * 0.98
    assert lo < oracle < hi or abs(hi - oracle) / oracle < 2e-3
    assert report["open_upper_bound"] == "false"
    assert hi - lo == pytest.approx(float(report["width"]), abs=1e-15)


def test_command_config_consistency(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "x"
    # sweep command with a single-flux config is a configuration error
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 2


def test_bad_jobs(tmp_path):
    cfg = write(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--jobs", "0"]) == 2
