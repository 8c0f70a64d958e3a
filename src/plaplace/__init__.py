"""Numerical laboratory for radial p-Laplace equations on model manifolds.

The package integrates the radial IVP -Delta_p u = u^q about the pole of a
rotationally symmetric Cartan-Hadamard model, classifies the geometry's
completeness dichotomy, audits the solution against the monotonicity and
decay structure of the problem, probes Sobolev quotients of concentrating
profiles, and builds glued geometries whose decay ratio oscillates
persistently.
"""

from .models import (
    AmbiguousRegime,
    CompletenessVerdict,
    ConvexityViolation,
    Euclidean,
    ExpGamma,
    ExpPower,
    GeometryOverflow,
    GeometryProfile,
    Glued,
    Hyperbolic,
    InvalidParameter,
    ModelFunction,
    PowerLike,
    QuadratureFailure,
    RegimeError,
    RegimeTag,
    SolverError,
    UsageError,
    audit_model,
    classify_completeness,
    descriptor_string,
    detect_regime,
    geometry_profile,
    glue_models,
    make_model,
    parse_descriptor,
    safe_horizon,
)
from .solver import (
    NonMonotone,
    OutOfRange,
    Problem,
    RadialSolution,
    SolverConfig,
    StartupFailure,
    StepSizeCollapse,
    default_startup_radius,
    flux_residual,
    integrate,
    series_startup,
)
from .diagnostics import (
    DiagnosticsReport,
    EuclideanCritical,
    GridMismatch,
    NoPlateau,
    RegimeMismatch,
    UnresolvedPlateau,
    asymptotic_ratio_sc,
    asymptotic_ratio_si,
    decay_envelope_check,
    energy_divergence_probe,
    envelope_constant,
    functional_traces,
    lemma_limit_checks,
    q_limit_constant,
    unit_ball_volume,
)
from .sobolev import (
    AubinTalenti,
    TailDivergence,
    concentration_sweep,
    euclidean_reference,
    sobolev_quotient,
    truncation_radius,
)
from .oscillator import (
    Inconsistent,
    OscillationCertificate,
    StagePlan,
    TriggerTimeout,
    construct,
    thresholds,
    verify_certificate,
)
from .extrapolate import log_slope, richardson
from .runio import RunDir, RunManifest, read_csv, write_csv

__version__ = "0.1.0"
