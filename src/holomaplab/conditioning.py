"""Condition functionals of holomorphic maps over ball/polydisc domains.

The pointwise functional is kappa(z) = |J(z)| * |J(z)^-1| in the spectral
norm, i.e. sigma_max/sigma_min of the Jacobian.  In one variable it is
identically 1 wherever the derivative does not vanish.  Suprema over a
domain are estimated from below by stratified shell sampling plus a local
hill climb; points where the Jacobian is singular can be skipped and
counted, so maps only conditioned outside an analytic exceptional set
are still usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from ._sampling import BOUNDARY_GAP, MAX_COUNT, sampled_sup, shell_points, subseed
from .errors import DimensionMismatch, PreconditionFailed, SingularMatrix
from .mapkit import DomainSpec, MapExpr, jacobian, jacobian_batch


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: same seed => same sample set."""

    radial_shells: int = 12
    points_per_shell: int = 96
    rng_seed: int = 0
    refine_steps: int = 20

    def __post_init__(self):
        if not (1 <= self.radial_shells <= MAX_COUNT and 1 <= self.points_per_shell <= MAX_COUNT):
            raise PreconditionFailed(f"shell and point counts must lie in [1, {MAX_COUNT}]")
        if not self.refine_steps >= 0:
            raise PreconditionFailed("refine_steps must be >= 0")
        if not self.rng_seed >= 0:
            raise PreconditionFailed("rng_seed must be a nonnegative integer")


@dataclass
class ConditionReport:
    """Lower estimate of a supremum with the sample that attained it."""

    sup_estimate: float
    argmax_point: np.ndarray
    samples_used: int
    skipped_singular: int
    norm_name: str = algebra.NORM_NAME


def kappa_at(m: MapExpr, z) -> float:
    """Pointwise condition number of the Jacobian; +inf where singular."""
    return algebra.kappa(jacobian(m, z).jacobian)


def sup_kappa(m: MapExpr, dom: DomainSpec, cfg: SamplerConfig,
              exclusion_tolerance: float = 1e-12) -> ConditionReport:
    """Sampled lower estimate of sup kappa over the domain.

    Stratified shell samples are refined with a coordinate-wise hill climb
    from the best point.  Points whose Jacobian is singular (relative
    sigma_min below max(exclusion_tolerance, machine threshold)) are
    skipped and counted when exclusion_tolerance > 0; with a zero
    tolerance a singular sample makes the estimate +inf instead.  The
    tolerance must lie in [0, 1): at 1 every Jacobian is singular.
    """
    if dom.dim != m.dim:
        raise DimensionMismatch(f"domain has k={dom.dim}, map has k={m.dim}")
    if not (0 <= exclusion_tolerance < 1):
        raise PreconditionFailed("exclusion_tolerance must lie in [0, 1)")
    rtol = max(algebra.SINGULAR_RTOL, exclusion_tolerance)

    def score(z):
        kvals = algebra.kappa_from_singular_values(
            algebra.singular_values_batch(jacobian_batch(m, z)[1]), rtol)
        return np.where(kvals == np.inf, -np.inf, kvals) if exclusion_tolerance > 0 else kvals

    pts = shell_points(dom, cfg.radial_shells, cfg.points_per_shell,
                       subseed(cfg.rng_seed, "kappa-shells"))
    limit = dom.radius * (1.0 - 0.5 * BOUNDARY_GAP)
    best_pt, best, evals, skipped = sampled_sup(
        score, pts, cfg.refine_steps, 0.1 * dom.radius,
        inside=lambda z: dom.norm(z) <= limit,
    )
    return ConditionReport(best, best_pt, evals, skipped)


def refined_sup(m: MapExpr, a, cfg: SamplerConfig) -> float:
    """Sampled sup of |J(a+z) J(a)^-1| over the closed ball |z| <= (1-|a|)/2.

    This functional only normalizes by the base-point Jacobian, so it can
    stay bounded for maps whose raw kappa degenerates.
    """
    a = algebra.as_vector(a)
    if a.size != m.dim:
        raise DimensionMismatch(f"base point has k={a.size}, map has k={m.dim}")
    na = float(np.linalg.norm(a))
    if na >= 1.0:
        raise PreconditionFailed(f"base point must lie in the open unit ball, |a|={na:.3f}")
    j0_inv = algebra.invert(jacobian(m, a).jacobian)

    rad = 0.5 * (1.0 - na)
    ball = DomainSpec.ball(m.dim, rad)
    offsets = shell_points(ball, cfg.radial_shells, cfg.points_per_shell,
                           subseed(cfg.rng_seed, "refined-sup"))
    _, best, _, _ = sampled_sup(
        lambda off: algebra.spectral_norm_batch(
            algebra.times_batch(jacobian_batch(m, a + off)[1], j0_inv)),
        offsets, cfg.refine_steps, 0.1 * rad,
        inside=lambda offs: ball.norm(offs) <= rad,  # the closed ball
    )
    return best


def comparability_ratio(m: MapExpr, z) -> float:
    """|lambda_max| / |lambda_min| over the Jacobian's eigenvalues.

    Always bounded by kappa_at(m, z), since every eigenvalue modulus lies
    between sigma_min and sigma_max.
    """
    jac = jacobian(m, z).jacobian
    if algebra.kappa(jac) == np.inf:
        raise SingularMatrix(f"Jacobian singular at {z}")
    mods = algebra.eigen_moduli(jac)
    return float(mods[-1] / mods[0])
