"""Brody-Zalcman rescaling engine.

For a holomorphic map on the unit ball the boundary-weighted derivative
functional

    lambda(m) = sup_{|z|<1} (1 - |z|) |J(z)|

is estimated by sampling plus hill climbing.  At a near-maximizer a the
rescaled map

    psi(z) = m(a + B z),   B = J(a)^-1

satisfies psi'(0) = I, and whenever sup kappa <= C the rescaled
derivative is bounded by 2C on |z| <= lambda/(2C), with the intermediate
shift bound |B z| <= (1 - |a|)/2.  Both bounds are checked on a sampled
grid and recorded rather than asserted: a failed check diagnoses an
undersampled lambda or an undersized C, not a mathematical breakdown.
For a sequence of maps the lambda series separates the normal regime
(bounded) from the rescaling regime (lambda growing without bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import algebra
from ._sampling import (ShellDraw, draw_shells, sampled_sup, scale_shells, score_blocks,
                        shell_points, subseed)
from .conditioning import SamplerConfig
from .errors import PreconditionFailed
from .mapkit import Affine, DomainSpec, MapExpr, jacobian, jacobian_batch

# relative slack of the sampled derivative-bound check
BOUND_RTOL = 1e-6
GRID_FACTOR = 0.9  # default share of the validity radius that the check grid covers


@dataclass
class BoundCheck:
    """Sampled verification of the rescaled-derivative and shift bounds."""

    max_jacobian_norm: float
    bound: float
    passed: bool
    worst_point: np.ndarray
    shift_max: float
    shift_limit: float
    shift_ok: bool


@dataclass
class RenormStep:
    """One rescaling record: functional value, base point, normalizing matrix,
    the rescaled map and the radius on which its bounds were checked."""

    lambda_: float
    base_point: np.ndarray
    b_matrix: np.ndarray
    psi: MapExpr
    validity_radius: float
    bound_check: BoundCheck


class _Draws(NamedTuple):
    """What the steps of one sequence share, for one map dimension."""

    lambda_pts: np.ndarray  # lambda_functional's samples of the unit ball
    grid: ShellDraw  # the check grid's normals, scaled by each step to its radius


def _draw(dim: int, cfg: SamplerConfig) -> _Draws:
    ball = DomainSpec.ball(dim, 1.0)
    return _Draws(
        shell_points(ball, cfg.radial_shells, cfg.points_per_shell,
                     subseed(cfg.rng_seed, "lambda-shells")),
        draw_shells(ball, cfg.radial_shells, cfg.points_per_shell,
                    subseed(cfg.rng_seed, "bz-grid")))


def lambda_functional(m: MapExpr, cfg: SamplerConfig, _pts: np.ndarray | None = None):
    """Sampled-and-refined lower estimate of sup (1-|z|)|J(z)| on the unit
    ball, together with the near-maximizer that attained it.  _pts, when
    given, are the samples that cfg draws for m's dimension."""
    dom = DomainSpec.ball(m.dim, 1.0)
    pts = (shell_points(dom, cfg.radial_shells, cfg.points_per_shell,
                        subseed(cfg.rng_seed, "lambda-shells"))
           if _pts is None else _pts)

    def score(z):
        return dom.margin(z) * algebra.spectral_norm_batch(jacobian_batch(m, z)[1])

    best_pt, best, _, _ = sampled_sup(
        score, pts, cfg.refine_steps, 0.1, inside=lambda zs: dom.norm(zs) < 1.0)
    return best, best_pt


def _check_bounds(c_bound: float, grid_factor: float) -> None:
    """The range rules of bz_step's c_bound and grid_factor."""
    if not (1.0 <= c_bound < np.inf):
        raise PreconditionFailed("c_bound must be finite and >= 1 (kappa is never below 1)")
    if not (0.0 < grid_factor < np.inf):
        raise PreconditionFailed("grid_factor must be finite and > 0")


def bz_step(
    m: MapExpr,
    c_bound: float,
    cfg: SamplerConfig,
    grid_factor: float = GRID_FACTOR,
    _draws: _Draws | None = None,
) -> RenormStep:
    """Build one rescaling step and check its derivative bounds.

    c_bound is caller-supplied (typically a sup-kappa estimate plus a
    safety margin); the step does not recompute it.  The recorded
    validity radius is lambda/(2 c_bound); the check grid conservatively
    stays within grid_factor of it.  c_bound must be finite and >= 1 and
    grid_factor finite and > 0; both are checked before lambda is estimated.
    _draws, when given, holds the lambda samples and the grid draw that cfg
    draws for m's dimension.
    """
    _check_bounds(c_bound, grid_factor)
    lambda_pts, grid_draw = (None, None) if _draws is None else _draws
    lam, a = lambda_functional(m, cfg, _pts=lambda_pts)
    b_matrix = algebra.invert(jacobian(m, a).jacobian)
    psi = Affine(a, b_matrix, m)  # structural, so psi evaluates exactly m(a + B z)
    validity = lam / (2.0 * c_bound)

    grid_dom = DomainSpec.ball(m.dim, grid_factor * validity)
    grid = (shell_points(grid_dom, cfg.radial_shells, cfg.points_per_shell,
                         subseed(cfg.rng_seed, "bz-grid"))
            if grid_draw is None else scale_shells(grid_draw, grid_dom.radius))
    # each row's spectral norm of J_psi and shift |B z|, in one pass of blocks
    norms, shifts = score_blocks(lambda block: np.stack(
        [algebra.spectral_norm_batch(jacobian_batch(psi, block)[1]),
         algebra.row_norms(block @ b_matrix.T)], axis=1), grid).T
    imax = int(np.argmax(norms))
    max_norm = float(norms[imax])
    bound = 2.0 * c_bound
    shift_max = float(shifts.max())
    shift_limit = 0.5 * (1.0 - float(np.linalg.norm(a)))
    check = BoundCheck(
        max_jacobian_norm=max_norm,
        bound=bound,
        passed=max_norm <= bound * (1.0 + BOUND_RTOL),
        worst_point=np.array(grid[imax]),
        shift_max=shift_max,
        shift_limit=shift_limit,
        shift_ok=shift_max <= shift_limit + 1e-9,
    )
    return RenormStep(lam, a, b_matrix, psi, validity, check)


def bz_sequence(
    family: Callable[[int], MapExpr],
    n_values: Sequence[int],
    c_bound: float,
    cfg: SamplerConfig,
    grid_factor: float = GRID_FACTOR,
) -> list[RenormStep]:
    """One rescaling step per family member; the lambda series of the result
    shows whether the family escapes (lambda unbounded) or stays normal.

    The members share their sample draws.  The lambda samples of the unit
    ball are drawn once per map dimension, and so is the check grid's draw
    (its normals and their norms, no radius); each member scales the grid
    draw to its own radius grid_factor * lambda / (2 c_bound).  Each step is
    bit for bit the bz_step of its member alone.  c_bound and grid_factor
    obey bz_step's rules, checked before the first member, so an empty
    n_values checks them too.
    """
    _check_bounds(c_bound, grid_factor)
    draws = {}
    steps = []
    for n in n_values:
        m = family(n)
        if m.dim not in draws:
            draws[m.dim] = _draw(m.dim, cfg)
        steps.append(bz_step(m, c_bound, cfg, grid_factor=grid_factor, _draws=draws[m.dim]))
    return steps
