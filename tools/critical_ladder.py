"""The critical flux of constricting bumps under grid refinement.

Run from anywhere in a checkout; the package is imported from its ./src:

    python3 tools/critical_ladder.py

find_critical_flux brackets the discrete critical flux on one grid.  This
brackets it on the grids n x n/4, n = 32, 64, 128, 256, for the bumps
(h, w) = (-0.2, 1.625) and (-0.25, 1), with a0 = 1, the default gas,
delta = 0, L = pick_domain_length = 8 and tol = 1e-7 pi b^2.  Per bump and
grid one line reads

    h w nx x nr midpoint probes difference order

with the difference from the previous grid's midpoint and the observed
order log2 of the ratio of successive differences.  A last line per bump
gives the Richardson value of the three finest grids, its error bar
|Richardson - finest midpoint|, the finest grid's throat bound B and
pi m_tilde b^2.  Exits 1 if a gate fails: the midpoints must strictly
increase, each difference must be at most half the one before, and the
Richardson value must lie below both bounds.  It takes about a second on
one core.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from axinozzle import GasModel, build_grid, find_critical_flux, make_profile  # noqa: E402
from axinozzle.nozzle import pick_domain_length  # noqa: E402

BUMPS = ((-0.2, 1.625), (-0.25, 1.0))
SIZES = (32, 64, 128, 256)
# each successive difference of the midpoints is at most this share of the
# one before: first order (tests/test_continuation.py derives it)
SHRINK = 0.5


class Ladder:
    """Bracket midpoints of one bump on the grids SIZES, and the bounds they must stay below."""

    def __init__(self, h: float, w: float, gas: GasModel):
        profile = make_profile("bump", a0=1.0, h=h, w=w)
        length = pick_domain_length(profile)
        tol = 1e-7 * math.pi * profile.b**2
        self.h, self.w, self.midpoints, self.probes = h, w, [], []
        for n in SIZES:
            grid = build_grid(profile, length=length, nx=n, nr=n // 4)
            est = find_critical_flux(grid, gas, tol=tol)
            self.midpoints.append(est.midpoint)
            self.probes.append(len(est.probes))
        # find_critical_flux's throat bound at delta = 0 on the finest grid
        self.bound = math.pi * gas.m_tilde * float((grid.fc * grid.fc).min())
        self.limit = math.pi * gas.m_tilde * profile.b**2
        self.differences = [b - a for a, b in zip(self.midpoints, self.midpoints[1:])]
        d1, d2 = self.differences[-2:]
        # Aitken's extrapolation: the differences shrink geometrically by d2 / d1
        self.richardson = self.midpoints[-1] + d2 * d2 / (d1 - d2) if d1 != d2 else math.nan

    def gates(self) -> dict[str, bool]:
        d = self.differences
        return {
            "midpoints increase": all(x > 0.0 for x in d),
            "differences halve": all(b <= SHRINK * a for a, b in zip(d, d[1:])),
            "richardson below B": self.richardson < self.bound,
            "richardson below pi m_tilde b^2": self.richardson < self.limit,
        }

    def lines(self) -> list[str]:
        out = []
        for k, n in enumerate(SIZES):
            diff = f"{self.differences[k - 1]:.7e}" if k else "-"
            ratio = self.differences[k - 2] / self.differences[k - 1] if k >= 2 else 0.0
            order = f"{math.log2(ratio):.2f}" if ratio > 0.0 else "-"
            out.append(f"h={self.h:g} w={self.w:g} {n}x{n // 4} {self.midpoints[k]:.9f} "
                       f"{self.probes[k]} {diff} {order}")
        out.append(f"h={self.h:g} w={self.w:g} richardson {self.richardson:.9f} "
                   f"+- {abs(self.richardson - self.midpoints[-1]):.1e} "
                   f"B {self.bound:.9f} pi_mtilde_b2 {self.limit:.9f}")
        failed = [name for name, ok in self.gates().items() if not ok]
        if failed:
            out.append(f"h={self.h:g} w={self.w:g} FAILED: " + ", ".join(failed))
        return out


def main() -> int:
    gas = GasModel()
    ladders = [Ladder(h, w, gas) for h, w in BUMPS]
    for ladder in ladders:
        print("\n".join(ladder.lines()))
    return 0 if all(all(ladder.gates().values()) for ladder in ladders) else 1


if __name__ == "__main__":
    sys.exit(main())
