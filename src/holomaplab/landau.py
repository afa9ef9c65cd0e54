"""Inscribed-ball (Landau-number) estimation via Newton membership certificates.

The Landau number of a map on a domain is the supremum of radii r such
that the image contains a Euclidean ball of radius r.  It is estimated
from below by certifying membership of sphere points: a certificate is a
preimage strictly inside the domain whose image matches the target to
tolerance.  Candidate radii form a geometric ladder r0 * g**k from
r0 = tolerance * 1e3; a galloping search (doubling steps, then bisection)
finds a rung lo whose whole direction set certified while rung lo + 1,
started from lo's preimages, did not.  Rung lo is the reported lower
bound r_lo, labeled "sampled": Newton met an absolute residual on a
finite set of directions at the rungs the search tested, so r_lo is not
proven.  Its certificates, with the center's, are the ones returned.
A shell is one Newton batch, warm-started from the preimages of the
highest certified rung scaled to the new radius, whose final residuals
the certificates report; a direction it misses fails the shell.  A
Newton failure is never proof of non-membership, so the upper bound
from rung lo + 1 is heuristic - except for the Harris and Duren-Rudin
maps on the unit polydisc, where the counterexample witnesses supply a
certified bound.  When the ladder's last rung certifies, r_hi is inf,
labeled "ladder_end".

What every ladder shares depends only on the domain, the NewtonConfig, the
direction count and the growth factor: the Newton starts of a membership
search, the sphere directions of a shell and the r0 ladder of rungs.  So
one estimate draws them once for its center candidates, full runs and
climb probes, and one growth series once for all its dilations.  The
center climb is _sampling.coordinate_ascent; a probe searches the shared
r0 ladder from a rung below the incumbent radius, so a probe and a full
run that certify the same rung read the same radius.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import algebra
from ._sampling import MAX_COUNT, coordinate_ascent, interior_points, sphere_directions, subseed
from .counterexamples import certify_no_ball
from .errors import CenterNotInImage, DimensionMismatch, PreconditionFailed
from .mapkit import (
    DomainSpec,
    DurenRudin,
    Harris,
    MapExpr,
    dilate,
    evaluate,
    evaluate_batch,
    jacobian_batch,
)

_DIVERGENCE_FACTOR = 25.0
_MAX_SHELLS = 200_000  # rungs on the ladder, and shells one search may test
MAX_ITERATIONS = 40  # Newton steps per shell
MULTISTART_COUNT = 8  # seeded interior starts of a membership search, after the origin
DOMAIN_MARGIN_MIN = 1e-4  # least distance to the boundary of a certified preimage
GROWTH_FACTOR = 1.05  # default ratio of the radius ladder


@dataclass(frozen=True)
class NewtonConfig:
    """Newton plan: a certificate's residual tolerance and the start seed."""

    tolerance: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 < self.tolerance < np.inf):
            raise PreconditionFailed("tolerance must be finite and > 0")
        if not self.rng_seed >= 0:
            raise PreconditionFailed("rng_seed must be a nonnegative integer")


@dataclass
class MembershipCertificate:
    """Verified preimage: |m(preimage) - target| = residual <= tolerance and
    the preimage keeps domain_margin > 0 to the boundary."""

    target: np.ndarray
    preimage: np.ndarray
    residual: float
    domain_margin: float


@dataclass
class NotFound:
    """Failed membership search; carries the smallest final residual over the
    starts and its point.  Not a proof of non-membership."""

    best_residual: float
    best_point: np.ndarray


@dataclass
class LandauEstimate:
    """Labeled lower bound r_lo and labeled upper bound r_hi for the largest
    ball around `center` inside the image.  r_lo_label is "sampled": Newton
    met an absolute residual on a finite set of sphere directions at r_lo
    and at the radii the search tested below it, which proves nothing.
    shell_history lists (radius, all certified) in test order."""

    center: np.ndarray
    r_lo: float
    r_lo_label: str
    r_hi: float
    r_hi_label: str
    certificates: list
    directions_tested: int
    shell_history: list


class _Draws(NamedTuple):
    """What the ladders of one Landau call share, for one direction count
    and one growth factor."""

    starts: np.ndarray  # a membership search's Newton starts: the origin, then the multistarts
    dirs: np.ndarray  # a shell's sphere directions
    rungs: list  # the ladder r0 * g**k from r0 = tolerance * 1e3, extended as searches climb it


def _newton_starts(dom, cfg):
    origin = np.zeros((1, dom.dim), dtype=np.complex128)
    multistarts = interior_points(dom, MULTISTART_COUNT, subseed(cfg.rng_seed, "newton-starts"))
    return np.concatenate([origin, multistarts])


def _check_ladder(m, dom, direction_count, growth_factor):
    if dom.dim != m.dim:
        raise DimensionMismatch(f"domain has k={dom.dim}, map has k={m.dim}")
    if not (1.0 < growth_factor < np.inf):
        raise PreconditionFailed("growth_factor must be > 1 and finite")
    if not 1 <= direction_count <= MAX_COUNT:
        raise PreconditionFailed(f"direction_count must lie in [1, {MAX_COUNT}]")


def _draw(m, dom, cfg, direction_count) -> _Draws:
    """Draw what the ladders of one call share, on checked arguments."""
    dirs = sphere_directions(direction_count, m.dim, subseed(cfg.rng_seed, "directions"))
    return _Draws(_newton_starts(dom, cfg), dirs, [cfg.tolerance * 1e3])


def solve_membership(m: MapExpr, b, dom: DomainSpec, cfg: NewtonConfig,
                     _starts: np.ndarray | None = None):
    """Newton search for a preimage of b strictly inside the domain.

    Starts: the origin, then seeded interior multistarts (_starts, when the
    caller has drawn them).  All starts run as one shell of _certify_shell;
    the first start, in that order, that certifies gives the
    MembershipCertificate.  Otherwise NotFound carries the smallest finite
    final residual over the starts, or inf and the origin when none is
    finite.
    """
    b = algebra.as_vector(b)
    if b.size != m.dim or dom.dim != m.dim:
        raise DimensionMismatch(
            f"target k={b.size}, domain k={dom.dim}, map k={m.dim}"
        )
    starts = _newton_starts(dom, cfg) if _starts is None else _starts
    ok, z, res, margins = _certify_shell(m, np.tile(b, (len(starts), 1)), starts, dom, cfg)
    if ok.any():
        j = int(np.argmax(ok))
        return MembershipCertificate(b, z[j], float(res[j]), float(margins[j]))
    finite = np.where(np.isfinite(res), res, np.inf)
    j = int(np.argmin(finite))
    best_z = z[j] if finite[j] < np.inf else np.zeros(m.dim, dtype=np.complex128)
    return NotFound(float(finite[j]), best_z)


def _newton_batch(m, targets, warm, dom, cfg):
    """Vectorized Newton across a batch of targets; returns (z, residual)
    with each row's residual |m(z) - target| taken at the z returned.  Each
    iteration evaluates the rows that moved and takes Jacobians only of rows
    above tolerance; a row also retires on a singular Jacobian or when its
    max-abs coordinate escapes.  A row's steps do not depend on the other
    rows, but its escape bound does: 25 * (R + max|target| + 1) takes the
    max over the whole batch, so whether and when a row retires by escape
    depends on the other targets in its batch."""
    z = np.array(warm, dtype=np.complex128)
    res = np.empty(z.shape[0])
    escape = _DIVERGENCE_FACTOR * (dom.radius + float(np.abs(targets).max()) + 1.0)
    moved = np.arange(z.shape[0])  # rows whose residual at z is not known yet
    live = np.ones(z.shape[0], dtype=bool)  # rows that may still take a step
    for it in range(MAX_ITERATIONS + 1):
        f = evaluate_batch(m, z[moved]) - targets[moved]
        res[moved] = np.linalg.norm(f, axis=1)
        step_rows = live[moved] & ~(res[moved] <= cfg.tolerance)
        rem, f_rem = moved[step_rows], f[step_rows]
        if it == MAX_ITERATIONS or rem.size == 0:
            break
        j_rem = jacobian_batch(m, z[rem])[1]
        try:
            step = np.linalg.solve(j_rem, f_rem[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.zeros_like(f_rem)
            for t in range(rem.size):
                try:
                    step[t] = np.linalg.solve(j_rem[t], f_rem[t])
                except np.linalg.LinAlgError:
                    live[rem[t]] = False  # z cannot move
        keep = live[rem]
        moved = rem[keep]
        z[moved] = z[moved] - step[keep]
        live[moved[np.abs(z[moved]).max(axis=1) > escape]] = False
    return z, res


def _certify_shell(m, targets, warm, dom, cfg):
    """Certify a whole shell of targets as one Newton batch from the warm
    starts; returns (ok, z, residual, margin) per target."""
    z, res = _newton_batch(m, targets, warm, dom, cfg)
    margins = np.asarray(dom.margin(z), dtype=float)
    ok = (res <= cfg.tolerance) & (margins >= DOMAIN_MARGIN_MIN)
    return ok, z, res, margins


def inscribed_lower_bound(
    m: MapExpr,
    a,
    dom: DomainSpec,
    cfg: NewtonConfig,
    direction_count: int,
    growth_factor: float = GROWTH_FACTOR,
    _first: int = 0,
    _draws: _Draws | None = None,
) -> LandauEstimate:
    """Sampled inscribed radius around a fixed center a (which must itself
    be certified in the image, else CenterNotInImage), found by galloping
    search over a geometric ladder of radii.

    Rung k of the ladder has radius r0 * growth_factor**k, formed by
    repeated multiplication from r0 = tolerance * 1e3; the search tests no
    rung below rung _first.  A rung certifies when all direction_count
    quasi-uniform sphere points do, in one Newton batch warm-started from
    the preimages of lo, the highest certified rung so far, scaled about
    the center's preimage by the radius ratio (the center's own preimage
    while no rung has certified).
    From lo the search tests rungs lo+1, lo+2, lo+4, ... until one fails,
    then bisects between the last pass and the first fail.  It stops only
    when rung lo+1 failed from lo's own preimages; a lo+1 that failed from
    a lower warm start is tested again, and galloping resumes from it if it
    certifies.  r_lo, the radius of rung lo, is a sampled lower bound, not
    a proven one; r_hi is rung lo+1, labeled "heuristic".  If the ladder's
    last rung, rung _MAX_SHELLS - 1, certified, r_hi is inf labeled
    "ladder_end": the search ran out of rungs, and no shell failed to bound
    the radius from above.  shell_history lists (radius, certified)
    in the order the shells were tested.  The returned certificates are
    the center's followed by those of rung lo; none when no rung
    certified.  _draws, when given, holds the starts, directions and r0
    ladder that the caller drew for this direction_count and growth_factor.
    """
    a = algebra.as_vector(a)
    _check_ladder(m, dom, direction_count, growth_factor)
    draws = _draw(m, dom, cfg, direction_count) if _draws is None else _draws
    center_sol = solve_membership(m, a, dom, cfg, _starts=draws.starts)
    if isinstance(center_sol, NotFound):
        raise CenterNotInImage(
            f"no certificate for center {a}; best residual {center_sol.best_residual:.3e}"
        )
    dirs = draws.dirs
    z_c = center_sol.preimage
    radii = draws.rungs

    def radius(k):
        while len(radii) <= k:
            radii.append(radii[-1] * growth_factor)
        return radii[k]

    top = _MAX_SHELLS - 1  # the ladder's last rung
    lo, best = _first - 1, None  # highest certified rung and its (targets, z, res, margins)
    hi, hi_from = None, None  # lowest failed rung above lo, and the lo it was tested from
    step = 1
    history: list = []
    while len(history) < _MAX_SHELLS:
        if hi is None:
            if lo == top:
                break
            k = min(lo + step, top)
        elif hi == lo + 1:
            if hi_from == lo:
                break
            k = hi
        else:
            k = (lo + hi) // 2
        r = radius(k)
        targets = a + r * dirs
        if best is None:
            warm = np.tile(z_c, (direction_count, 1))
        else:
            warm = z_c + (r / radii[lo]) * (best[1] - z_c)  # lo's preimages, scaled
        ok, z, res, margins = _certify_shell(m, targets, warm, dom, cfg)
        certified = bool(ok.all())
        history.append((r, certified))
        if certified:
            if hi is None:
                step *= 2
            elif k == hi:  # lo + 1 certified on its retest: gallop again from it
                hi, step = None, 1
            lo, best = k, (targets, z, res, margins)
        else:
            hi, hi_from = k, lo
    shell_certs = []
    if best is not None:
        targets, z, res, margins = best
        shell_certs = [
            MembershipCertificate(*row)
            for row in zip(targets, np.array(z), res.tolist(), margins.tolist())
        ]
    return LandauEstimate(
        center=a,
        r_lo=radii[lo] if best is not None else 0.0,
        r_lo_label="sampled",
        r_hi=radii[hi] if hi is not None else np.inf,
        r_hi_label="heuristic" if hi is not None else "ladder_end",
        certificates=[center_sol] + shell_certs,
        directions_tested=int(direction_count),
        shell_history=history,
    )


def _certified_upper_bound(m: MapExpr, dom: DomainSpec, centers):
    """Certified inscribed-ball bound where one exists (shear maps on the
    unit polydisc); None otherwise."""
    if dom.shape == "polydisc" and dom.radius == 1.0 and isinstance(m, (Harris, DurenRudin)):
        pairs = [(c[0], c[1]) for c in centers]
        return certify_no_ball(m, pairs)
    return None


def landau_estimate(
    m: MapExpr,
    dom: DomainSpec,
    cfg: NewtonConfig,
    center_candidates: int = 2,
    direction_count: int | None = None,
    growth_factor: float = GROWTH_FACTOR,
    center_refine_steps: int = 1,
) -> LandauEstimate:
    """Sampled lower bound for the Landau number: best inscribed estimate
    over the image of the origin, seeded random image points, and a hill
    climb of the winning center.  Its r_lo is sampled, as in
    inscribed_lower_bound, not proven.

    center_candidates counts all starting centers, the origin's image
    included; the random candidates are prefix-stable in the count, so the
    estimate never shrinks when more are requested.  The climb is
    coordinate_ascent from the winner, center_refine_steps sweeps from step
    r_lo / 4.  A probe of a climb center searches the r0 ladder from its
    highest rung at or below 0.8 * r_lo (rung 0 if none is that low), so
    it fails fast; only a center whose probe beats the incumbent gets a
    full (from-r0) run, and the reported estimate is always a full run.
    All these runs share one draw of Newton starts, sphere directions and
    r0 ladder.
    """
    direction_count = _check_estimate(m, dom, center_candidates, direction_count,
                                      growth_factor, center_refine_steps)
    draws = _draw(m, dom, cfg, direction_count)
    return _estimate(m, dom, cfg, draws, center_candidates, direction_count, growth_factor,
                     center_refine_steps)


def _check_estimate(m, dom, center_candidates, direction_count, growth_factor,
                    center_refine_steps):
    """Check the arguments of an estimate; returns the direction count, with
    None read as 64 * k."""
    if not 1 <= center_candidates <= MAX_COUNT:
        raise PreconditionFailed(f"center_candidates must lie in [1, {MAX_COUNT}]")
    if not center_refine_steps >= 0:
        raise PreconditionFailed("center_refine_steps must be >= 0")
    if direction_count is None:
        direction_count = 64 * m.dim
    _check_ladder(m, dom, direction_count, growth_factor)
    return direction_count


def _estimate(m, dom, cfg, draws, center_candidates, direction_count, growth_factor,
              center_refine_steps):
    """landau_estimate on checked arguments and the draws of its ladders."""

    def full_run(center):
        return inscribed_lower_bound(
            m, center, dom, cfg, direction_count, growth_factor, _draws=draws
        )

    centers = [evaluate(m, np.zeros(m.dim))]
    if center_candidates > 1:
        pre = interior_points(dom, center_candidates - 1, subseed(cfg.rng_seed, "centers"))
        centers.extend(evaluate_batch(m, pre))

    results = []
    for center in centers:
        try:
            results.append(full_run(center))
        except CenterNotInImage:
            continue
    if not results:
        raise CenterNotInImage("no candidate center could be certified in the image")
    best = max(results, key=lambda est: est.r_lo)

    def score(cands):
        """The climb's rows, in order, up to the first whose full run beats
        best: a probe from the highest r0 rung at or below 0.8 * best.r_lo,
        and a full run where the probe beats best; -inf off the image."""
        nonlocal best
        first = max(0, bisect_right(draws.rungs, 0.8 * best.r_lo) - 1)
        vals = np.full(len(cands), -np.inf)
        for i, cand in enumerate(cands):
            try:
                est = inscribed_lower_bound(m, cand, dom, cfg, direction_count, growth_factor,
                                            _first=first, _draws=draws)
                if est.r_lo > best.r_lo:
                    est = full_run(cand)
            except CenterNotInImage:
                continue
            vals[i] = est.r_lo
            if est.r_lo > best.r_lo:
                best = est
                break
        return vals

    # centers live in the image, not in the domain: every candidate may be scored
    coordinate_ascent(score, best.center, best.r_lo, center_refine_steps, 0.25 * best.r_lo,
                      inside=lambda cands: np.ones(len(cands), dtype=bool))
    certified = _certified_upper_bound(m, dom, [best.center] + centers)
    if certified is not None:
        best = replace(best, r_hi=certified.value, r_hi_label=certified.label)
    return best


def rescaled_growth(
    m: MapExpr,
    r_values: Sequence[float],
    cfg: NewtonConfig,
    center_candidates: int = 1,
    direction_count: int | None = None,
    growth_factor: float = GROWTH_FACTOR,
    center_refine_steps: int = 0,
) -> list[tuple[float, float]]:
    """Inscribed-ball growth of an entire map under dilation: for each R,
    estimate the Landau number of z -> (1/R) m(R z) on the unit ball and
    scale it back, reporting the series (R, R * r_lo(R)) whose growth
    mirrors 'contains balls of arbitrarily large radius'.  Every dilation
    is built, and so every R checked by dilate, and every argument checked
    before the first draw.  The dilations share the unit ball, the seed,
    the directions and the growth factor, so the series draws its starts,
    directions and r0 ladder once."""
    dom = DomainSpec.ball(m.dim, 1.0)
    dilated = [(float(R), dilate(m, R)) for R in r_values]
    direction_count = _check_estimate(m, dom, center_candidates, direction_count,
                                      growth_factor, center_refine_steps)
    draws = _draw(m, dom, cfg, direction_count)
    return [(R, R * _estimate(m_R, dom, cfg, draws, center_candidates, direction_count,
                              growth_factor, center_refine_steps).r_lo)
            for R, m_R in dilated]
