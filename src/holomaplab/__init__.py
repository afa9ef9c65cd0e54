"""Numerical laboratory for holomorphic self-maps of complex balls.

Condition functionals of Jacobians, Brody-Zalcman style rescaling,
inscribed-ball (Landau-number) estimation, and certified counterexample
witnesses, with a reproducible batch-experiment CLI on top.
"""

__version__ = "0.1.0"

from .algebra import (
    NORM_NAME,
    as_matrix,
    as_vector,
    eigen_moduli,
    invert,
    kappa,
    spectral_norm,
)
from .conditioning import (
    ConditionReport,
    SamplerConfig,
    comparability_ratio,
    kappa_at,
    refined_sup,
    sup_kappa,
)
from .counterexamples import (
    CertifiedBound,
    DRWitness,
    HarrisWitness,
    certify_no_ball,
    circle_mean_square,
    duren_rudin_witness,
    harris_witness,
)
from .errors import (
    CenterNotInImage,
    ConfigError,
    DimensionMismatch,
    EmptySample,
    HolomapError,
    ParseError,
    PreconditionFailed,
    SingularMatrix,
    UnsupportedPayload,
    WitnessFailed,
)
from .landau import (
    LandauEstimate,
    MembershipCertificate,
    NewtonConfig,
    NotFound,
    inscribed_lower_bound,
    landau_estimate,
    rescaled_growth,
    solve_membership,
)
from .mapkit import (
    Affine,
    Compose,
    DomainSpec,
    DurenRudin,
    ExpCoord,
    Harris,
    Henon,
    Identity,
    Jet,
    Linear,
    MapExpr,
    PolyCoord,
    Scalar,
    Translation,
    dilate,
    evaluate,
    evaluate_batch,
    jacobian,
    jacobian_batch,
    parse,
    reparametrize,
    to_text,
)
from .renorm import (
    BoundCheck,
    RenormStep,
    bz_sequence,
    bz_step,
    convergence_diagnostic,
    lambda_functional,
)
