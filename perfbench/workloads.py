"""Seeded inputs, timed answers and answer checks of the three workloads.

A workload draws its inputs from the lattice of levels in ``spec.json``;
the program sees only the generated INI text (``critical-bracket``,
``cli-field``) or call arguments (``shrink-chain``).  Each workload
object splits one answer into three steps:

``prepare``  set-up before any timing: generated configs, gas model
             constants, profiles and grids;
``answer``   the timed call into the package;
``observe``  the untimed check of one answer: pass/fail per check, values
             compared against ``reference.json``, counts read from the
             returned objects, and a fingerprint of the outputs that must
             repeat exactly across passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())


def draw_inputs(workload: str, seed: int) -> list[dict]:
    """Latin-square draw of one pass's inputs; the same seed gives the same list."""
    spec = SPEC["workloads"][workload]
    rng = random.Random(f"{workload}:{seed}")
    count = spec["per_pass"]
    columns = {}
    for name, levels in spec["levels"].items():
        shuffled = list(levels)
        rng.shuffle(shuffled)
        columns[name] = shuffled[:count]
    return [{name: column[i] for name, column in columns.items()} for i in range(count)]


def lattice(workload: str) -> list[dict]:
    """Every input a seed can draw."""
    levels = SPEC["workloads"][workload]["levels"]
    return [dict(zip(levels, combo)) for combo in itertools.product(*levels.values())]


def lattice_key(params: dict) -> str:
    return ",".join(f"{name}={value!r}" for name, value in params.items())


@dataclass
class Observation:
    """Untimed record of one answer."""

    checks: dict = field(default_factory=dict)       # name -> bool
    values: dict = field(default_factory=dict)       # compared with reference.json
    counts: dict = field(default_factory=dict)       # read from returned objects
    fingerprint: str = ""                            # must repeat across passes
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _derive_gas_constants(gas):
    """Fill the gas model's lazily derived constants through its public API.

    One coenergy value per branch (below, inside and beyond the blend)
    builds the blend coefficients and the coenergy knots; the ellipticity
    bounds take their dense sample.
    """
    gas.coenergy(np.array([0.5 * gas.s_lo, 0.5 * (gas.s_lo + gas.s_hi), 2.0 * gas.s_hi]))
    gas.ellipticity_bounds
    return gas


class _CliWorkload:
    """Shared code of the two workloads that run the command line in process."""

    command = ""

    def __init__(self, name: str):
        self.name = name
        self.spec = SPEC["workloads"][name]

    def config_text(self, params: dict) -> str:
        raise NotImplementedError

    def prepare(self, api, inputs: list[dict], workdir: Path) -> dict:
        """Write the configs and build what the program derives from them.

        Each CLI call rebuilds its gas model and grid, so the objects built
        here are dropped; building them makes set-up cover the same work and
        rejects a bad generated config before any timing.
        """
        paths = []
        for i, params in enumerate(inputs):
            text = self.config_text(params)
            path = workdir / f"input{i}.ini"
            path.write_text(text)
            paths.append(path)
            cfg = api.cli.parse_config(text)
            _derive_gas_constants(api.GasModel(gamma=cfg.gas.gamma, m_tilde=cfg.gas.m_tilde))
            kind_params = {k: getattr(cfg.nozzle, k) for k in ("a", "ell", "a0", "h", "w")
                           if getattr(cfg.nozzle, k) is not None}
            profile = api.make_profile(cfg.nozzle.kind, **kind_params)
            length = cfg.nozzle.length
            if length is None:
                length = api.pick_domain_length(profile)
            api.build_grid(profile, length=length, nx=cfg.grid.nx, nr=cfg.grid.nr,
                           delta=cfg.grid.delta)
        return {"api": api, "configs": paths}

    def answer(self, state: dict, i: int, outdir: Path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state["api"].cli.main([self.command, "--config", str(state["configs"][i]),
                                          "--out", str(outdir)])
        return code, out.getvalue(), err.getvalue()


class CriticalBracket(_CliWorkload):
    command = "critical"

    def config_text(self, params: dict) -> str:
        s = self.spec
        return (f"[gas]\ngamma = {s['gas']['gamma']!r}\nm_tilde = {s['gas']['m_tilde']!r}\n\n"
                f"[nozzle]\nkind = {s['nozzle']['kind']}\na = {params['a']!r}\n"
                f"ell = {params['ell']!r}\nlength = {s['nozzle']['length']!r}\n\n"
                f"[grid]\nnx = {s['grid']['nx']}\nnr = {s['grid']['nr']}\n"
                f"delta = {s['grid']['delta']!r}\n\n[flux]\ncritical = yes\n")

    def observe(self, state: dict, i: int, outcome, outdir: Path) -> Observation:
        code, _, err = outcome
        obs = Observation(checks={"exit_0": code == 0})
        report_path = outdir / "critical.txt"
        if code != 0 or not report_path.is_file():
            obs.note = err.strip()[-300:]
            obs.checks["report_written"] = False
            return obs
        raw = report_path.read_bytes()
        report = dict(line.split(" = ", 1) for line in raw.decode().splitlines())
        lo, hi = float(report["m0_lo"]), float(report["m0_hi"])
        mid = 0.5 * (lo + hi)
        obs.checks["closed_bracket"] = report["open_upper_bound"] == "false" and lo < hi
        obs.checks["width_le_1e-3_mid"] = hi - lo <= 1e-3 * mid
        obs.values = {"m0_lo": lo, "m0_hi": hi}
        obs.counts = {"probes": int(report["iterations"])}
        obs.fingerprint = _sha(raw)
        return obs


class CliField(_CliWorkload):
    command = "solve"

    def __init__(self, name: str):
        super().__init__(name)
        self._parsed: dict[str, dict] = {}  # fingerprint -> values, parsed once

    def config_text(self, params: dict) -> str:
        s = self.spec
        b = s["nozzle"]["a0"] + min(params["h"], 0.0)
        m0 = params["f"] * math.pi * b * b
        return (f"[gas]\ngamma = {s['gas']['gamma']!r}\nm_tilde = {s['gas']['m_tilde']!r}\n\n"
                f"[nozzle]\nkind = {s['nozzle']['kind']}\na0 = {s['nozzle']['a0']!r}\n"
                f"h = {params['h']!r}\nw = {params['w']!r}\nlength = {s['nozzle']['length']}\n\n"
                f"[grid]\nnx = {s['grid']['nx']}\nnr = {s['grid']['nr']}\n"
                f"delta = {s['grid']['delta']!r}\n\n[flux]\nm0 = {m0!r}\n\n"
                "[outputs]\nfields = yes\ndiagnostics = yes\n")

    def observe(self, state: dict, i: int, outcome, outdir: Path) -> Observation:
        code, out, err = outcome
        obs = Observation(checks={"exit_0": code == 0,
                                  "diagnostics_passed": "diagnostics passed" in out})
        field_csv, diag = outdir / "field.csv", outdir / "diagnostics.txt"
        if not (field_csv.is_file() and diag.is_file()):
            obs.checks["files_written"] = False
            obs.note = err.strip()[-300:]
            return obs
        field_bytes = field_csv.read_bytes()
        obs.fingerprint = _sha(field_bytes, b"\0", diag.read_bytes())
        values = self._parsed.get(obs.fingerprint)
        if values is None:
            table = np.loadtxt(io.BytesIO(field_bytes), delimiter=",", skiprows=1,
                               usecols=(2, 6))
            values = {"psi_sup": float(table[:, 0].max()), "mach_max": float(table[:, 1].max())}
            self._parsed[obs.fingerprint] = values
        obs.values = dict(values)
        return obs


class ShrinkChain:
    def __init__(self, name: str):
        self.name = name
        self.spec = SPEC["workloads"][name]

    def prepare(self, api, inputs: list[dict], workdir: Path) -> dict:
        s = self.spec
        gas = _derive_gas_constants(api.GasModel(gamma=s["gas"]["gamma"],
                                                 m_tilde=s["gas"]["m_tilde"]))
        grids, fluxes = [], []
        for params in inputs:
            profile = api.make_profile(s["nozzle"]["kind"], a=params["a"], ell=params["ell"])
            grids.append(api.build_grid(profile, length=s["nozzle"]["length"],
                                        nx=s["grid"]["nx"], nr=s["grid"]["nr"],
                                        delta=s["grid"]["delta"]))
            m0 = params["f"] * math.pi * profile.b ** 2
            fluxes.append(m0 / (2.0 * math.pi))
        return {"api": api, "gas": gas, "grids": grids, "m": fluxes}

    def answer(self, state: dict, i: int, outdir: Path):
        return state["api"].shrink_delta(state["grids"][i], state["gas"], state["m"][i])

    def observe(self, state: dict, i: int, outcome, outdir: Path) -> Observation:
        api, gas = state["api"], state["gas"]
        solution = outcome.solution
        obs = Observation(checks={"converged": bool(outcome.converged)})
        flow = api.velocity_from_stream(solution, gas)
        report = api.diagnostics_report(solution, gas, flow=flow)
        obs.checks["diagnostics_passed"] = bool(report.passed)
        if not report.passed:
            obs.note = "failed checks: " + ",".join(
                sorted(k for k, ok in report.checks.items() if not ok))
        obs.values = {"psi_sup": float(solution.psi.max()), "mach_max": float(flow.mach.max())}
        obs.counts = {"chain_solves": len(outcome.steps),
                      "chain_iters": sum(step.iterations for step in outcome.steps)}
        obs.fingerprint = _sha(solution.psi.tobytes(), repr(outcome.steps).encode())
        return obs


WORKLOADS = {
    "critical-bracket": CriticalBracket("critical-bracket"),
    "shrink-chain": ShrinkChain("shrink-chain"),
    "cli-field": CliField("cli-field"),
}


def compare_reference(workload: str, params: dict, obs: Observation, reference: dict) -> dict:
    """Checks of the observed values against the values recorded in reference.json."""
    tol = SPEC["tolerances"]
    ref = reference.get(workload, {}).get(lattice_key(params))
    if ref is None:
        return {"reference_present": False}
    checks = {}
    if "m0_lo" in ref:
        scale = tol["bracket_end_rel"] * 0.5 * (ref["m0_lo"] + ref["m0_hi"])
        checks["bracket_ends_match_reference"] = (
            abs(obs.values.get("m0_lo", math.inf) - ref["m0_lo"]) <= scale
            and abs(obs.values.get("m0_hi", math.inf) - ref["m0_hi"]) <= scale)
    for name, rel in (("psi_sup", tol["psi_sup_rel"]), ("mach_max", tol["mach_max_rel"])):
        if name in ref:
            checks[f"{name}_matches_reference"] = (
                abs(obs.values.get(name, math.inf) - ref[name]) <= rel * abs(ref[name]))
    return checks
