"""Steady subsonic compressible flow in axially symmetric nozzles.

The flow is computed from a stream function minimizing a convex energy on
a body-fitted grid, with an axis shield and a momentum cutoff making the
problem uniformly elliptic.  Continuation drives the shield to zero and
the mass flux to its critical value, with diagnostics certifying each
limit.
"""

from .gas import CoenergyBundle, GasModel, SpeedDensity
from .nozzle import (
    MappedGrid,
    NozzleProfile,
    build_grid,
    make_profile,
    pick_domain_length,
)
from .solver import (
    LinearSolveError,
    StreamSolution,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
    newton_solve,
)
from .fields import (
    AngleCheck,
    DiagnosticsReport,
    EntropyResiduals,
    FlowAngleError,
    FlowField,
    ResidualNorms,
    SonicOvershootError,
    diagnostics_report,
    entropy_pair_residual,
    far_field_error,
    flow_angle,
    flux_drift,
    irrotationality_residual,
    positivity_check,
    station_fluxes,
    velocity_from_stream,
)
from .continuation import (
    CriticalFluxEstimate,
    CriticalProbe,
    CriticalToleranceError,
    ShrinkResult,
    SonicLimitStudy,
    SweepPoint,
    SweepResult,
    find_critical_flux,
    mass_flux_sweep,
    shrink_delta,
    sonic_limit_study,
)

__version__ = "0.1.0"

__all__ = [
    "AngleCheck",
    "CoenergyBundle",
    "CriticalFluxEstimate",
    "CriticalProbe",
    "CriticalToleranceError",
    "DiagnosticsReport",
    "EntropyResiduals",
    "FlowAngleError",
    "FlowField",
    "GasModel",
    "LinearSolveError",
    "MappedGrid",
    "NozzleProfile",
    "ResidualNorms",
    "ShrinkResult",
    "SonicLimitStudy",
    "SonicOvershootError",
    "SpeedDensity",
    "StreamSolution",
    "SweepPoint",
    "SweepResult",
    "assemble_energy",
    "assemble_gradient",
    "assemble_hessian",
    "build_grid",
    "diagnostics_report",
    "entropy_pair_residual",
    "far_field_error",
    "find_critical_flux",
    "flow_angle",
    "flux_drift",
    "irrotationality_residual",
    "make_profile",
    "mass_flux_sweep",
    "newton_solve",
    "pick_domain_length",
    "positivity_check",
    "shrink_delta",
    "sonic_limit_study",
    "station_fluxes",
    "velocity_from_stream",
]
