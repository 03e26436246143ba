"""Numerical laboratory for minimizing movements along parameterized
energy families: scheme runs, variational interpolants, slope estimation,
dissipation diagnostics and coupled eps-tau regime sweeps."""

from .energy import (
    EnergySpec,
    WellPosednessCertificate,
    certify_well_posedness,
    convex_perturbed,
    custom_smooth,
    eval_many,
    gamma_limit,
    gradient_many,
    quadratic,
    wiggly,
)
from .metric import Point, SpaceDescriptor, distances, squared_distances
from .prox import ProxBatch, ProxSettings, prox_batch
from .regimes import CouplingLaw, SweepReport, run_sweep
from .scheme import (
    DiscreteTrajectory,
    SchemeParams,
    VariationalInterpolant,
    build_interpolant,
    piecewise_constant_many,
    run_scheme,
)
from .slope import (
    ConditionHReport,
    check_condition_h,
    check_slope_cone,
    estimate_slope,
)
from .diagnostics import (
    AprioriReport,
    DissipationReport,
    MaximalSlopeReport,
    apriori_bounds,
    dissipation_identity,
    maximal_slope_check,
    metric_derivative,
)

__version__ = "0.1.0"
