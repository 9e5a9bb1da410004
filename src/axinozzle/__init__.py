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
    cell_state,
    newton_solve,
)
from .fields import (
    AngleCheck,
    DiagnosticsReport,
    EntropyResiduals,
    FlowField,
    ResidualNorms,
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
    find_critical_flux,
    mass_flux_sweep,
    shrink_delta,
    sonic_limit_study,
)

__version__ = "0.1.0"
