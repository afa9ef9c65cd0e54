"""Inscribed-ball (Landau-number) estimation via Newton membership certificates.

The Landau number of a map on a domain is the supremum of radii r such
that the image contains a Euclidean ball of radius r.  It is estimated
from below by certifying membership of sphere points: a certificate is a
preimage strictly inside the domain whose image matches the target to
tolerance.  Candidate radii form a geometric ladder r0 * g**k from
r0 = tolerance * 1e3; a galloping search (doubling steps, then bisection)
finds a rung lo whose whole direction set certified while rung lo + 1,
started from lo's preimages, did not.  A full search starts on the rung
below its linearized radius: with z_c the center's certified preimage, the
highest rung at or below START_FRACTION * sigma_min(J(z_c)) * margin(z_c).
From there it gallops up by 1, 2, 4, ... rungs when that rung certifies,
and down by 1, 2, 4, ... from cold starts at z_c until a rung does when it
fails; a guess not above r0 or a non-finite J(z_c) leaves rung 0 as the
start.  Rung lo is the reported lower
bound r_lo, labeled "sampled": Newton met an absolute residual on a
finite set of directions at the rungs the search tested, so r_lo is not
proven.  A shell is one Newton batch, warm-started from the preimages of
the highest certified rung scaled to the new radius; a direction it
misses fails the shell.  Each Newton step solves its rows' systems with
algebra.solve_batch, and a row whose Jacobian is exactly singular retires
unmoved.  A Newton failure is never proof of non-membership, so the upper
bound from rung lo + 1 is heuristic - except for the Harris and
Duren-Rudin maps on the unit polydisc, where the counterexample witnesses
supply a certified bound.  When the ladder's last rung certifies, r_hi is
inf, labeled "ladder_end".

The Newton starts, sphere directions and r0 ladder depend only on the
domain, the NewtonConfig, the direction count and the growth factor, so an
estimate or growth series draws them once.  The center climb is
_sampling.coordinate_ascent; a probe searches the shared ladder from a rung
below the incumbent radius, and one that beats the incumbent replaces it.
The center candidates (of every dilation of a growth series too, each row
on its own z -> (1/R) m(R z)) and each climb sweep's probes run as one
lockstep search: the search state is per-search rung indices, and each
round's targets and warm starts are broadcast into one Newton batch, in
which no row depends on another.  Certificates are formed only for the
estimate a public call returns, once its search ends; until then every
search, the climb's probes included, carries r_lo and its shells alone.
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
START_FRACTION = 0.8  # a full search starts at this fraction of its linearized radius


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


def _grow(rungs, growth_factor, k):
    """Extend the shared ladder rungs through rung k, in chunks: each rung is
    the one below times growth_factor (inf past the float range)."""
    if k >= len(rungs):
        size = min(_MAX_SHELLS, max(k + 1, 2 * len(rungs), 1024)) - len(rungs)
        chain = np.concatenate([rungs[-1:], np.full(size, float(growth_factor))])
        with np.errstate(over="ignore"):
            rungs += np.multiply.accumulate(chain)[1:].tolist()


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


def _target(m, b, dom):
    """b as a complex vector of the map's and the domain's dimension."""
    b = algebra.as_vector(b)
    if b.size != m.dim or dom.dim != m.dim:
        raise DimensionMismatch(f"target k={b.size}, domain k={dom.dim}, map k={m.dim}")
    return b


def solve_membership(m: MapExpr, b, dom: DomainSpec, cfg: NewtonConfig):
    """Newton search for a preimage of b strictly inside the domain.

    Starts: the origin, then seeded interior multistarts, as one shell of
    _certify_shell; the first that certifies gives the
    MembershipCertificate.  Otherwise NotFound carries the smallest finite
    final residual over the starts, or inf and the origin when none is
    finite.
    """
    b = _target(m, b, dom)
    starts = _newton_starts(dom, cfg)
    ok, z, res, margins = _certify_shell(m, np.tile(b, (len(starts), 1)), starts, dom, cfg)
    if ok.any():
        j = int(np.argmax(ok))
        return MembershipCertificate(b, z[j], float(res[j]), float(margins[j]))
    finite = np.where(np.isfinite(res), res, np.inf)
    j = int(np.argmin(finite))
    best_z = z[j] if finite[j] < np.inf else np.zeros(m.dim, dtype=np.complex128)
    return NotFound(float(finite[j]), best_z)


class _Dilations(MapExpr):
    """z -> (1/R) m(R z) with one R per batch row: on each row the float
    operations of dilate(m, R), so an overflowed row may hold inf, not NaN.
    R and 1/R stay complex to skip a cast.  take(rows) keeps the given rows."""

    dim = property(lambda self: self.m.dim)

    def __init__(self, m, R):
        self.m = m
        self._scale = np.asarray(R, dtype=complex)
        self._inverse = (1.0 / R).astype(complex)

    def apply(self, coords):
        inner = tuple(c * self._scale for c in coords)
        return tuple(y * self._inverse for y in self.m.apply(inner))

    def take(self, rows):  # each entry is its row's own product: a slice keeps its bits
        out = object.__new__(_Dilations)
        out.m, out._scale, out._inverse = self.m, self._scale[rows], self._inverse[rows]
        return out


def _newton_batch(m, targets, warm, dom, cfg):
    """Vectorized Newton across a batch of targets; returns (z, residual)
    with each row's residual |m(z) - target| taken at the z returned.  Only
    the running rows are evaluated, kept compact, and only those above
    tolerance take Jacobians; a row writes its z and residual back by id
    when it drops out, the rest at the end.  A row retires where its
    Jacobian is exactly singular (solve_batch leaves it unsolved) or its
    max-abs coordinate is not within 25 * (R + max_j |target_j| + 1) for
    its own target (so a NaN row retires too).  No row's run depends on the
    other rows of its batch; a per-row dilation keeps the running rows'."""
    zc, tc, mc = np.array(warm, dtype=np.complex128), targets, m  # the running rows
    z, res, ids = np.empty_like(zc), np.empty(len(zc)), None  # ids None: every row, in order
    live = True  # per running row: solved and within its escape bound
    for it in range(MAX_ITERATIONS + 1):
        f = evaluate_batch(mc, zc) - tc
        r = algebra.row_norms(f)
        go = live & ~(r <= cfg.tolerance)  # the rows that step: above tolerance or NaN
        steps = np.count_nonzero(go)
        if it == MAX_ITERATIONS or not steps:
            break
        if it == 0:
            escape = _DIVERGENCE_FACTOR * (dom.radius + algebra.row_max_abs(tc) + 1.0)
        if steps < len(go):  # the others retire
            idx = np.arange(len(go)) if ids is None else ids
            z[idx[~go]], res[idx[~go]] = zc[~go], r[~go]
            ids, zc, tc, escape, f = idx[go], zc[go], tc[go], escape[go], f[go]
            mc = m.take(ids) if isinstance(m, _Dilations) else m
        step, solved = algebra.solve_batch(jacobian_batch(mc, zc)[1], f)
        zc = zc - step  # an unsolved row's step is 0: it retires at its next residual
        live = solved & (algebra.row_max_abs(zc) <= escape)
    if ids is None:
        return zc, r
    z[ids], res[ids] = zc, r
    return z, res


def _certify_shell(m, targets, warm, dom, cfg):
    """Certify a whole shell of targets as one Newton batch from the warm
    starts; returns (ok, z, residual, margin) per target.  An escaped row's
    overflow to inf or NaN fails it quietly, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
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
) -> LandauEstimate:
    """Sampled inscribed radius around a fixed center a (which must itself
    be certified in the image, else CenterNotInImage, whose message carries
    solve_membership's best residual and its point's domain margin), found
    by galloping search over a geometric ladder of radii.

    Rung k has radius r0 * growth_factor**k, by repeated multiplication
    from r0 = tolerance * 1e3.  A rung certifies when all direction_count
    quasi-uniform sphere points do, in one Newton batch warm-started from
    the preimages of lo, the highest certified rung so far, scaled about
    the center's preimage z_c by the radius ratio (z_c itself while no rung
    has certified).  The search tests first its start rung g, the highest
    rung at or below START_FRACTION * sigma_min(J(z_c)) * margin(z_c)
    (rung 0 when that is not above r0 or J(z_c) is not finite; the last
    rung when it lies past the ladder): if g certifies, it tests g+1, then
    lo+2, lo+4, ...; if g fails, it tests g-1, g-3, g-7, ... (never below
    rung 0) from z_c until one certifies.  Then it bisects between the last
    pass and the first fail.  It stops only when rung lo+1 failed from lo's
    own preimages; a lo+1 that failed from a lower warm start is tested
    again, and galloping resumes from it if it certifies.  r_lo, rung lo's
    radius, is a sampled lower bound, not a proven one; r_hi is rung lo+1,
    labeled "heuristic", or inf labeled "ladder_end" when the last rung,
    _MAX_SHELLS - 1, certified: no shell bounded the radius from above.
    shell_history lists (radius, certified) in test order.  The
    certificates are the center's, then rung lo's (none when no rung
    certified).  This is _ladders on one center, on draws of its own.
    """
    a = algebra.as_vector(a)
    _check_ladder(m, dom, direction_count, growth_factor)
    est = _ladders(m, [a], dom, cfg, growth_factor, _draw(m, dom, cfg, direction_count))[0]
    if est is None:
        nf = solve_membership(m, a, dom, cfg)
        raise CenterNotInImage(f"no certificate for center {a}; best residual "
                               f"{nf.best_residual:.3e} at domain margin "
                               f"{float(dom.margin(nf.best_point)):.3e}")
    return _keep(est)


def _ladders(m, centers, dom, cfg, growth_factor, draws, first=0, scales=None):
    """inscribed_lower_bound around each of centers on the shared draws, in
    lockstep.  A full search (first = 0) tests its start rung first; a
    probe (first > 0) tests rung first, then rungs lo+2, lo+4, ... above
    each pass until one fails, and no rung below first.  The membership
    searches form one _certify_shell batch, then each round certifies the
    next shell of every running search as one, n rows per search, broadcast
    from the searches' arrays.  With scales, center i's search runs on
    z -> (1/R) m(R z), R = scales[i], through a per-row dilation.  No row's
    run depends on its batch, so each search is the one its center runs
    alone.  Returns, per center, its LandauEstimate, whose certificates
    stay the batch rows (targets, z, residual, margin) of the center and of
    rung lo until _keep forms them, or None where no start certified the
    center."""
    centers = [_target(m, a, dom) for a in centers]
    if not centers:
        return []
    starts, dirs, rungs = draws
    s, n, k = len(starts), len(dirs), m.dim
    scales = None if scales is None else np.asarray(scales, dtype=float)

    def on(ladders, rows):  # the map of a batch of rows per ladder
        return m if scales is None else _Dilations(m, np.repeat(scales[ladders], rows))

    a = np.array(centers)
    search = _certify_shell(on(slice(None), s), np.repeat(a, s, axis=0),
                            np.tile(starts, (len(a), 1)), dom, cfg)
    ok, zs, res, margins = (x.reshape(len(a), s, *x.shape[1:]) for x in search)
    found = np.flatnonzero(ok.any(axis=1))  # the searches, by center
    out = [None] * len(a)
    j = ok[found].argmax(axis=1)  # each search's first start that certifies
    rows = [[(a[i, None], zs[i, jj, None], res[i, jj, None], margins[i, jj, None])]
            for i, jj in zip(found, j)]  # each search's certificate rows
    a, z_c, count = a[found, None], zs[found, j, None], len(found)  # a, z_c: (count, 1, k)
    # per search: the highest certified rung lo, the lowest failed rung hi
    # above it (-1 for none), the lo that hi was tested from, the gallop step
    # (at first, from lo = first - 1 to the rung the search tests first)
    lo, hi, hi_from, step = [first - 1] * count, [-1] * count, [0] * count, [1] * count
    if first == 0 and count:  # a full search tests its start rung first
        step = [g + 1 for g in _start_rungs(on(found, 1), z_c[:, 0], margins[found, j], rungs,
                                            growth_factor)]
    history, top, run = [[] for _ in found], _MAX_SHELLS - 1, range(count)

    def scaled(qs, radii, sel):  # rung lo's preimages of searches qs, scaled to radii about z_c
        ratio = np.array([radius / rungs[lo[q]] for q, radius in zip(qs, radii)])
        return z_c[sel] + ratio[:, None, None] * (np.stack([rows[q][1][1] for q in qs]) - z_c[sel])

    for _ in range(_MAX_SHELLS):  # a search tests at most _MAX_SHELLS shells
        nxt = []  # (search, rung) of each running search
        for q in run:
            l, h = lo[q], hi[q]
            if h < 0 and l < top:  # galloping up
                nxt.append((q, min(l + step[q], top)))
            elif l < first < h:  # no rung certified below a failed start: galloping down
                nxt.append((q, max(h - step[q], first)))
            elif h > l + 1:  # bisecting
                nxt.append((q, (l + h) // 2))
            elif h >= 0 and hi_from[q] != l:  # lo + 1 failed from below: test it again
                nxt.append((q, h))
        if not nxt:
            break
        run, rung = (list(x) for x in zip(*nxt))
        _grow(rungs, growth_factor, max(rung))
        radii = [rungs[i] for i in rung]
        sel = run if len(run) < count else slice(None)
        targets = a[sel] + np.array(radii)[:, None, None] * dirs
        hot = [i for i, q in enumerate(run) if lo[q] >= first]  # the searches that certified a rung
        if len(hot) == len(run):
            warm = scaled(run, radii, sel)
        else:  # a search with no certified rung starts from its center's preimage
            warm = np.repeat(z_c[sel], n, axis=1)
            if hot:
                qs = [run[i] for i in hot]
                warm[hot] = scaled(qs, [radii[i] for i in hot], qs)
        batch = _certify_shell(on(found[sel], n), targets.reshape(-1, k), warm.reshape(-1, k),
                               dom, cfg)
        ok, z, res, margins = (x.reshape(len(run), n, *x.shape[1:]) for x in batch)
        for i, (q, radius, rq, c) in enumerate(zip(run, radii, rung, ok.all(axis=1).tolist())):
            history[q].append((radius, c))
            if not c:
                if lo[q] < first:  # gallop down from a failed start rung: steps 1, 2, 4, ...
                    step[q] = 1 if hi[q] < 0 else 2 * step[q]
                hi[q], hi_from[q] = rq, lo[q]
                continue
            if hi[q] < 0:  # from a start rung above first, gallop up with step 1
                step[q] = 1 if lo[q] < first < rq else 2 * step[q]
            elif rq == hi[q]:  # lo + 1 certified on its retest: gallop again from it
                hi[q], step[q] = -1, 1
            lo[q], rows[q][1:] = rq, [(targets[i], z[i], res[i], margins[i])]
    for q, i in enumerate(found):
        r_lo, r_hi = rungs[lo[q]] if lo[q] >= first else 0.0, rungs[hi[q]] if hi[q] >= 0 else np.inf
        out[i] = LandauEstimate(centers[i], r_lo, "sampled", r_hi,
                                "heuristic" if hi[q] >= 0 else "ladder_end", tuple(rows[q]), n,
                                history[q])
    return out


def _start_rungs(m, z_c, margins, rungs, growth_factor):
    """The rung each full search tests first, from its center's preimages z_c
    (on m, one row each) and their domain margins: the highest rung at or
    below START_FRACTION * sigma_min(J(z_c)) * margin, or rung 0 where that
    guess is not above r0 or J(z_c) is not finite.  The ladder grows to the
    largest guess (at most to its last rung), and each rung is found by
    bisection."""
    guess = np.zeros(len(z_c))
    with np.errstate(over="ignore", invalid="ignore"):
        jac = jacobian_batch(m, z_c)[1]
        fin = np.isfinite(jac).all(axis=(1, 2))  # a non-finite row may raise or give NaN
        if fin.any():
            sigma_min = algebra.singular_values_batch(jac[fin])[:, -1]
            guess[fin] = START_FRACTION * sigma_min * margins[fin]
    guess = guess.tolist()
    while rungs[-1] <= max(guess) and len(rungs) < _MAX_SHELLS:
        _grow(rungs, growth_factor, len(rungs))
    return [bisect_right(rungs, x) - 1 if x > rungs[0] else 0 for x in guess]


def _keep(est):
    """est with its certificates formed from the batch rows _ladders left."""
    return replace(est, certificates=[
        MembershipCertificate(*row) for t, z, res, margins in est.certificates
        for row in zip(t, np.array(z), res.tolist(), margins.tolist())])


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
    highest rung at or below 0.8 * r_lo (rung 0 if none is that low); a
    probe that beats the incumbent becomes it.  Only the center candidates
    get full searches, from the start rungs of their linearized radii.  The
    certificates of the estimate returned are the only ones formed.
    """
    direction_count = _check_estimate(m, dom, center_candidates, direction_count,
                                      growth_factor, center_refine_steps)
    draws = _draw(m, dom, cfg, direction_count)
    return _keep(_estimate(m, dom, cfg, draws, center_candidates, growth_factor,
                           center_refine_steps)[0])


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


def _estimate(m, dom, cfg, draws, center_candidates, growth_factor, center_refine_steps,
              dilations=None):
    """landau_estimate on checked arguments and the draws of its ladders, as
    a one-item list; with dilations, pairs (R, dilate(m, R)), the estimate
    of each dilated map.  The center candidates of every map run in one
    lockstep call on m; each map then climbs from its best on its own."""
    maps = [(None, m)] if dilations is None else dilations
    groups = [[evaluate(m_R, np.zeros(m.dim))] for _, m_R in maps]  # each map's candidates
    if center_candidates > 1:
        pre = interior_points(dom, center_candidates - 1, subseed(cfg.rng_seed, "centers"))
        for (_, m_R), g in zip(maps, groups):
            g.extend(evaluate_batch(m_R, pre))
    scales = None if dilations is None else [R for (R, _), g in zip(maps, groups) for _ in g]
    runs = _ladders(m, sum(groups, []), dom, cfg, growth_factor, draws, 0, scales)
    out = []
    for (_, m_R), g in zip(maps, groups):
        results = [est for est in runs[:len(g)] if est is not None]
        runs = runs[len(g):]
        if not results:
            raise CenterNotInImage("no candidate center could be certified in the image")
        best = max(results, key=lambda est: est.r_lo)
        out.append(_climb(m_R, dom, cfg, draws, growth_factor, center_refine_steps, best, g))
    return out


def _climb(m, dom, cfg, draws, growth_factor, center_refine_steps, best, centers):
    """The estimate's center climb from best, the best run of its candidate
    centers, and the certified upper bound where the map has one."""

    def score(cands):
        """The climb's rows, in order, up to the first whose probe beats
        best, which becomes best: the probes of each sweep, from the highest
        r0 rung at or below 0.8 * best.r_lo, run in one lockstep call; -inf
        off the image."""
        nonlocal best
        first = max(0, bisect_right(draws.rungs, 0.8 * best.r_lo) - 1)
        vals = np.full(len(cands), -np.inf)
        for start in range(0, len(cands), 4 * m.dim):  # one sweep's probes at a time
            sweep = cands[start:start + 4 * m.dim]
            ests = _ladders(m, sweep, dom, cfg, growth_factor, draws, first)
            for i, est in enumerate(ests, start):
                if est is not None:
                    vals[i] = est.r_lo
                    if est.r_lo > best.r_lo:
                        best = est
                        return vals
        return vals

    # centers live in the image, not in the domain: every candidate may be scored
    coordinate_ascent(score, best.center, best.r_lo, center_refine_steps, 0.25 * best.r_lo,
                      inside=lambda cands: np.ones(len(cands), dtype=bool))
    if dom.shape == "polydisc" and dom.radius == 1.0 and isinstance(m, (Harris, DurenRudin)):
        # a shear map on the unit polydisc: its witnesses certify r_hi
        certified = certify_no_ball(m, [(c[0], c[1]) for c in [best.center] + centers])
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
    before the first draw, which all dilations share.  The ladders of every
    dilation's center candidates run in lockstep on m, each row of a Newton
    batch through its own dilation; the center climbs run per dilation."""
    dom = DomainSpec.ball(m.dim, 1.0)
    dilated = [(float(R), dilate(m, R)) for R in r_values]
    direction_count = _check_estimate(m, dom, center_candidates, direction_count,
                                      growth_factor, center_refine_steps)
    draws = _draw(m, dom, cfg, direction_count)
    ests = _estimate(m, dom, cfg, draws, center_candidates, growth_factor, center_refine_steps,
                     dilated)
    return [(R, R * est.r_lo) for (R, _), est in zip(dilated, ests)]
