"""The README's examples run against the current API, and its numbers are the code's.

Each number the README states in prose is asserted here against the
constant or the behaviour it describes, next to the README phrase that
states it, so that an edit to either side fails a test.  The band layout
of the Newton Hessian is pinned in test_solver.py.
"""

import dataclasses
import re
import types
from pathlib import Path

import numpy as np
import pytest

import axinozzle.cli as cli
import axinozzle.gas as gas_module
import axinozzle.nozzle as nozzle
from axinozzle import GasModel, build_grid, make_profile, newton_solve, pick_domain_length
from axinozzle._reprfmt import _HIGH, _LOW
from axinozzle.cli import BAND_LIMIT, ConfigError, parse_config
from axinozzle.continuation import CriticalToleranceError, find_critical_flux
from axinozzle.fields import MIN_DIAGNOSTIC_CELLS, TWO_PI
from axinozzle.nozzle import SCALE_LIMIT
from axinozzle.solver import assemble_gradient, cell_state

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PROSE = " ".join(README.split())  # phrases are matched across line breaks


def fenced(language):
    """The bodies of the README's fenced blocks in this language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def states(phrase):
    assert phrase in PROSE, f"README no longer states {phrase!r}"


def test_readme_library_use_runs(capsys):
    (block,) = fenced("python")
    exec(compile(block, "README.md", "exec"), {})
    passed, mach = capsys.readouterr().out.split()
    assert passed == "True" and 0.0 < float(mach) < 1.0


def test_readme_config_example_parses():
    (block,) = fenced("ini")
    cfg = parse_config(block)
    assert cfg.nozzle.kind == "tanh_step" and cfg.nozzle.length is None
    assert cfg.flux.mode == "single" and cfg.flux.m0 == 0.9


def test_readme_band_limit():
    assert "would exceed 2 GiB (`BAND_LIMIT`; 1024 x 512 cells is just under it)" in README
    assert BAND_LIMIT == 2 * 2**30
    under, over = (8 * (nr + 1) * (1024 - 1) * (nr - 1) for nr in (512, 514))
    assert under <= BAND_LIMIT < over


def test_readme_module_rows_are_short():
    rows = re.findall(r"^\| `axinozzle\.\w+` \| (.*) \|$", README, flags=re.M)
    assert len(rows) == 6
    for row in rows:
        assert len(row.split()) <= 30, row


def test_readme_dependency_floors():
    pyproject = (ROOT / "pyproject.toml").read_text()
    for name, phrase in (("numpy", "numpy 2.0 or newer"), ("scipy", "scipy 1.13 or newer")):
        states(phrase)
        assert f'"{name}>={phrase.split()[1]}"' in pyproject
    states("Python 3.10 or newer")
    assert 'requires-python = ">=3.10"' in pyproject


def test_readme_sonic_units():
    states("the sonic speed, sonic density, and sonic momentum are all 1")
    gas = GasModel()
    assert gas.density_from_speed(1.0) == 1.0 and gas.momentum_from_speed(1.0) == 1.0


def test_readme_wall_stream_value():
    states("`m = m0 / (2 pi)` for mass flux `m0`")
    assert TWO_PI == 2.0 * np.pi


def test_readme_ten_criteria():
    states("ten criteria, one test each")
    listed = re.findall(r"^(\d+)\. ", README, flags=re.M)
    assert listed == [str(k) for k in range(1, 11)]
    tests = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert re.findall(r"^def test_criterion_(\d\d)_", tests, flags=re.M) == [
        f"{k:02d}" for k in range(1, 11)]


def test_readme_repr_window():
    states("values outside [1e-40, 1e16)) to `repr`")
    assert (_LOW, _HIGH) == (1e-40, 1e16)


def test_readme_bracket_starts_from_the_rest_state():
    states("the rest state `m0 = 0` and the throat bound, so its lower end is the largest "
           "subcritical probe, or 0 if every probe was flagged")


def test_readme_gamma_range():
    states("a `gamma` less than 1.5e-8 above 1")
    states("more than 2^27 (about 1.3e8) above 1")
    assert f"{gas_module._GAMMA_MIN_EXCESS:.1e}" == "1.5e-08"
    assert gas_module._GAMMA_MAX_EXCESS == 2.0**27
    assert f"{gas_module._GAMMA_MAX_EXCESS:.1e}" == "1.3e+08"


def test_readme_scale_limit():
    states("outside [1e-12, 1e12], or a flux above 1e12 times the throat flux pi b^2")
    assert SCALE_LIMIT == 1e12


def test_readme_domain_length_cap():
    states("a `length = auto` wall that is not flat within L = 512")

    def step_wall(edge):  # off its end radius for |x| < edge, flat beyond
        return types.SimpleNamespace(wall=lambda x: 1.0 + float(abs(x) < edge),
                                     r_minus=1.0, r_plus=1.0)

    assert pick_domain_length(step_wall(300.0)) == 512.0
    with pytest.raises(ValueError):
        pick_domain_length(step_wall(600.0))


def test_readme_domain_length_rule():
    states("doubles L from 4 until the wall lies within 1e-6 of its end radius at "
           "x = ±L and within 1e-4 at the far-field stations x = ±(L − 2)")
    states("or with a given `length` below 2, where each far-field station would lie")
    assert (nozzle._FLAT_TOL, nozzle._STATION_TOL, nozzle.FAR_FIELD_OFFSET) == (1e-6, 1e-4, 2.0)


def test_readme_diagnostics_grid_floor():
    states("on a grid with `nx < 5` or `nr < 5`")
    assert MIN_DIAGNOSTIC_CELLS == 5


def test_readme_grid_delta_default():
    states("`[grid] delta` defaults to 0 (no axis shield)")
    assert parse_config("[flux]\nm0 = 1\n").grid.delta == 0.0
    grid = build_grid(make_profile("cylinder", a=1.0), length=2.0, nx=4, nr=4)
    assert grid.delta == 0.0


def test_readme_critical_tolerance_range():
    states("a `critical` below 1e-12 times the discrete throat bound B, or at least B")
    gas = GasModel()
    grid = build_grid(make_profile("cylinder", a=1.0), length=2.0, nx=6, nr=5)
    bound = np.pi * gas.m_tilde * float((grid.fc * grid.fc).min())
    for tol in (0.999e-12 * bound, bound):
        with pytest.raises(CriticalToleranceError):
            find_critical_flux(grid, gas, tol=tol)
    find_critical_flux(grid, gas, tol=1.001e-12 * bound)


def test_readme_newton_tolerances(tmp_path):
    states("a `newton` above 1e-6 max(1, m), m = m0 / (2 pi): 10^4 times the solver's "
           "default gradient tolerance 1e-10 max(1, m)")
    m = 3.0
    # the solver default: a start just inside 1e-10 max(1, m) takes no step,
    # one just outside takes at least one
    gas = GasModel()
    grid = build_grid(make_profile("cylinder", a=1.0), length=2.0, nx=8, nr=6)
    datum = newton_solve(grid, gas, m).psi  # the pipe's exact discrete solution
    bump = np.zeros_like(datum)
    bump[1:-1, 1:-1] = np.sin(np.arange(bump[1:-1, 1:-1].size)).reshape(7, 5)
    unit = np.linalg.norm(assemble_gradient(cell_state(datum + 1e-6 * bump, grid, gas), grid))
    unit /= 1e-6
    for ratio, steps in ((0.99, 0), (1.01, 1)):
        start = datum + ratio * 1e-10 * m / unit * bump
        norm = np.linalg.norm(assemble_gradient(cell_state(start, grid, gas), grid))
        assert (norm < 1e-10 * m) == (ratio < 1.0)
        assert min(newton_solve(grid, gas, m, init=start).iterations, 1) == steps
    # the command-line limit, checked before the grid rules
    text = ("[grid]\nnx = 4\nnr = 4\n[flux]\nm0 = {m0!r}\n[tolerances]\nnewton = {newton!r}\n")
    m0 = TWO_PI * m
    limit = 1e-6 * max(1.0, m0 / TWO_PI)
    for newton, rule in ((1.001 * limit, "tolerances: newton"), (0.999 * limit, "grid: ")):
        cfg = parse_config(text.format(m0=m0, newton=newton))
        with pytest.raises(ConfigError, match=f"^{rule}"):
            cli.run(cfg, "solve", tmp_path / "out")


def test_readme_cutoff_counts_cells_and_off_axis_nodes():
    states("the squared momentum of a cell or of an off-axis node passes the truncation "
           "onset `m_tilde**2`")
    states("its `max_momentum_sq`, the peak squared momentum over its cells and the "
           "off-axis nodes of its field, passes `m_tilde**2`")
    gas = GasModel()
    # a coarse bump above its critical flux: only wall nodes pass the onset
    grid = build_grid(make_profile("bump", a0=1.0, h=-0.2, w=1.0), length=8.0, nx=24, nr=6)
    sol = newton_solve(grid, gas, 1.85 / TWO_PI)
    assert cell_state(sol.psi, grid, gas).s.max() <= gas.m_tilde**2 < sol.max_momentum_sq
    assert sol.cutoff_active


def test_readme_exit_codes(tmp_path, monkeypatch):
    states("Exit codes: 0 success, 1 diagnostics failure, 2 bad config or arguments, "
           "3 solver did not converge.")
    config = tmp_path / "run.ini"

    def code(m0, diagnostics="yes"):
        config.write_text("[nozzle]\nkind = cylinder\na = 1.0\nlength = 2\n[grid]\nnx = 8\n"
                          f"nr = 6\n[flux]\nm0 = {m0}\n[outputs]\ndiagnostics = {diagnostics}\n")
        return cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")])

    assert code(1.0) == 0
    assert code(10.0, diagnostics="no") == 1  # past the critical flux, about pi * 0.98
    assert code(-1.0) == 2
    assert cli.main(["solve", "--config", str(tmp_path / "missing.ini")]) == 2
    solve = cli.newton_solve
    monkeypatch.setattr(cli, "newton_solve",
                        lambda *a, **k: dataclasses.replace(solve(*a, **k), converged=False))
    assert code(1.0) == 3
