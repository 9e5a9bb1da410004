"""Count the probes find_critical_flux takes on bump nozzles.

Run from anywhere in a checkout; the package is imported from its ./src:

    python3 tools/bracket_probes.py

No perfbench workload draws a bump, and tanh steps close their bracket in
one probe, so this is where the regula falsi steps are counted.  The inputs
are the bump lattice h in {-0.25, -0.2, -0.15, 0.15}, w in {1, 1.25, 1.625,
2} on 128x32 and 256x64 grids with delta = 1e-6 and length = auto (32
brackets), and three coarse narrow bumps (w = 1, L = 8, delta = 0: h = -0.2
at 24x6, -0.25 at 48x12, -0.3 at 64x16) whose wall nodes pass s_lo before
any cell does.  One line per input reads

    nx x nr h w probes lo hi

followed by the probe total of each group.  Exits 1 if a bracket is wider
than its default tol 1e-4 B, or if lo is not the largest subcritical probe
(0, the rest state, when no probe is subcritical).  It takes a few seconds
on one core.
"""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy loads: one BLAS thread is faster here
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from axinozzle import GasModel, build_grid, find_critical_flux, make_profile  # noqa: E402
from axinozzle.nozzle import pick_domain_length  # noqa: E402

LATTICE = [(nx, h, w, None, 1e-6)
           for (nx, h, w) in itertools.product((128, 256), (-0.25, -0.2, -0.15, 0.15),
                                               (1.0, 1.25, 1.625, 2.0))]
COARSE = [(24, -0.2, 1.0, 8.0, 0.0), (48, -0.25, 1.0, 8.0, 0.0), (64, -0.3, 1.0, 8.0, 0.0)]


def bracket(gas: GasModel, nx: int, h: float, w: float, length: float | None,
            delta: float) -> tuple[str, int, bool]:
    """The report line of one bump bracket, its probe count, and whether it holds."""
    profile = make_profile("bump", a0=1.0, h=h, w=w)
    grid = build_grid(profile, length=length or pick_domain_length(profile),
                      nx=nx, nr=nx // 4, delta=delta)
    est = find_critical_flux(grid, gas)
    largest_sub = max((p.m0 for p in est.probes if p.reason == "subcritical"), default=0.0)
    holds = est.width <= est.tol and est.lo == largest_sub
    line = (f"{nx}x{nx // 4} h={h:g} w={w:g} {len(est.probes)} "
            f"{est.lo:.9f} {est.hi:.9f}{'' if holds else ' FAILED'}")
    return line, len(est.probes), holds


def main() -> int:
    gas = GasModel()
    all_hold = True
    for group, inputs in (("lattice", LATTICE), ("coarse", COARSE)):
        total = 0
        for args in inputs:
            line, probes, holds = bracket(gas, *args)
            print(line, flush=True)
            total += probes
            all_hold &= holds
        print(f"{group} total {total}")
    return 0 if all_hold else 1


if __name__ == "__main__":
    sys.exit(main())
