"""Deterministic sampling machinery shared by the estimators.

Everything here is a pure function of explicit integer seeds.  The point
families are prefix-stable: asking for more points extends a sample set
without changing the points already generated, so sweeps over sample
sizes behave monotonically.  A shell sample is drawn, then scaled: the
draw (draw_shells) reads no radius and fills one buffer with the sample's
rows, the center's zero row first and then each shell's complex normals v
in their own rows, with their domain norms n beside them; the scale
(scale_shells) forms the points r * v / n of each shell radius r.
shell_points is one draw and one scale in place, in the draw's buffer, so
a sample costs one array of its own size.  A caller that samples one shape
at many radii draws once and scales the draw into a fresh array for each
radius, with the bits of shell_points at that radius.
Sampled suprema are scored by one batch function: the samples are scored
in blocks of SCORE_BLOCK rows, so that the temporaries of one block stay
in cache.  The hill climb scores ahead:
a sweep from a point is scored in one batch together with the sweeps at
halved steps that would follow it if none moved, a ladder of at most
SCORE_BLOCK rows, and its domain test is one mask call.  After a move, the
rest of that sweep from the new point and the ladder that would follow it
form the next batch.  Rows score independently of their batch, so neither
the blocks nor the ladders change a value or a count.
"""

from __future__ import annotations

import hashlib
from functools import cache
from typing import NamedTuple

import numpy as np

from .algebra import row_norms
from .errors import EmptySample

# outermost shell sits at radius * (1 - BOUNDARY_GAP)
BOUNDARY_GAP = 1e-3

# rows per scoring block: for 4096 points of C^2 a dual gradient is 128 KiB
# and the Jacobians 256 KiB, so one block's temporaries stay in a 2 MiB L2
# cache, where one scoring of the whole sample set would stream them
SCORE_BLOCK = 4096

# interior_points draws at radii <= INTERIOR_PULLBACK * radius
INTERIOR_PULLBACK = 0.7

STEP_FLOOR = 1e-14  # a hill climb sweeps at no step below STEP_FLOOR * max(1, step0)

# the largest count that may size an array (shells, points per shell, sphere
# directions, center candidates): far above a dense sample set's 30,721 points
MAX_COUNT = 10**6


def subseed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed derived from (seed, label)."""
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def shell_radii(radius: float, shells: int) -> np.ndarray:
    """Shell radii whose boundary gaps (1 - r/radius) run geometrically from
    1 down to 1e-3; the innermost shell is the center itself."""
    if shells < 1:
        raise ValueError("need at least one shell")
    if shells == 1:
        return np.zeros(1)
    gaps = 10.0 ** (-3.0 * np.arange(shells) / (shells - 1.0))
    return radius * (1.0 - gaps)


class ShellDraw(NamedTuple):
    """The radius-free part of a shell sample of one domain shape."""

    shells: int
    per_shell: int
    v: np.ndarray  # (1 + (shells - 1) * per_shell, k): a zero center row, then
    # each shell's complex normals in its own per_shell rows
    n: np.ndarray  # (len(v), 1): each row's domain norm (1 for the center)


def draw_shells(dom, shells: int, per_shell: int, seed: int) -> ShellDraw:
    """Draw shell_points' normals for dom's shape and dimension into one
    buffer; its radius is not read.  Shell 0 is the center at every radius,
    so it draws none: its row is zero."""
    k = dom.dim
    v = np.empty((1 + (shells - 1) * per_shell, k), dtype=np.complex128)
    n = np.empty((len(v), 1))
    v[0], n[0] = 0.0, 1.0
    for i in range(1, shells):
        rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 211, i]))
        g = rng.standard_normal((per_shell, 2 * k))
        lo = 1 + (i - 1) * per_shell
        rows = v[lo:lo + per_shell]
        np.multiply(1j, g[:, k:], out=rows)
        rows += g[:, :k]  # the bits of g[:, :k] + 1j * g[:, k:]
        n[lo:lo + per_shell, 0] = dom.norm(rows)
    return ShellDraw(shells, per_shell, v, n)


def scale_shells(draw: ShellDraw, radius: float, out=None) -> np.ndarray:
    """The shell sample of a draw at radius: the center, then each shell's
    points r * v / n, or one center row where r rounds to 0.  Each shell is
    computed in its rows of out, a fresh array by default; out=draw.v
    scales the draw in place, which then holds the sample and no longer
    the normals.  Returns the rows of out that the sample fills."""
    per = draw.per_shell
    radii = shell_radii(radius, draw.shells)[1:]
    if out is None:
        out = np.empty((1 + sum(per if r != 0.0 else 1 for r in radii), draw.v.shape[1]),
                       dtype=np.complex128)
    out[0] = 0.0
    stop = 1
    for i, r in enumerate(radii):
        src = slice(1 + i * per, 1 + (i + 1) * per)
        if r == 0.0:
            out[stop] = 0.0
            stop += 1
            continue
        # rows never start after src, so in place each shell reads its
        # normals before a later shell's rows overwrite them; a shell moved
        # up by a center row reads a copy, because numpy multiplies partly
        # overlapping operands in its loop without FMA, which can give an
        # underflowed zero the other sign
        rows, v = out[stop:stop + per], draw.v[src]
        if stop != src.start and np.may_share_memory(rows, v):
            v = v.copy()
        np.divide(np.multiply(r, v, out=rows), draw.n[src], out=rows)
        stop += per
    return out[:stop]


def shell_points(dom, shells: int, per_shell: int, seed: int) -> np.ndarray:
    """Stratified sample of a ball/polydisc domain: per_shell points on each
    sphere of shell_radii.  Prefix-stable in per_shell (per-shell child
    streams, row-major draws).  The draw, then the scale to dom's radius in
    the draw's buffer."""
    draw = draw_shells(dom, shells, per_shell, seed)
    return scale_shells(draw, dom.radius, out=draw.v)


@cache
def _phi(d: int) -> float:
    # generalized golden ratio: unique positive root of x**(d+1) = x + 1
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return x


def kronecker_uniforms(n: int, d: int, seed: int) -> np.ndarray:
    """First n points of a seeded additive-recurrence low-discrepancy sequence
    in (0,1)^d; prefix-stable in n."""
    alpha = (1.0 / _phi(d)) ** np.arange(1, d + 1)
    shift = np.random.default_rng(
        np.random.SeedSequence([seed & (2**63 - 1), 977])
    ).random(d)
    u = (shift + np.outer(np.arange(1, n + 1), alpha)) % 1.0
    return np.clip(u, 1e-12, 1.0 - 1e-12)


def sphere_directions(n: int, k: int, seed: int) -> np.ndarray:
    """n quasi-uniform unit vectors on the Euclidean sphere of C^k
    (low-discrepancy uniforms -> Box-Muller -> normalize; prefix-stable)."""
    u = kronecker_uniforms(n, 2 * k, seed)
    g = np.empty((n, 2 * k))
    for j in range(k):
        r = np.sqrt(-2.0 * np.log(u[:, 2 * j]))
        g[:, 2 * j] = r * np.cos(2.0 * np.pi * u[:, 2 * j + 1])
        g[:, 2 * j + 1] = r * np.sin(2.0 * np.pi * u[:, 2 * j + 1])
    v = g[:, :k] + 1j * g[:, k:]
    return v / row_norms(v)[:, None]


def interior_points(dom, n: int, seed: int) -> np.ndarray:
    """n points of the domain at radii <= INTERIOR_PULLBACK * radius.  Each index draws
    from its own child stream, so the family is prefix-stable in n; the rows are then
    normalized and scaled in one pass, with the float operations of one row alone."""
    k = dom.dim
    g, u = np.empty((n, 2 * k)), np.empty(n)
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 499, i]))
        g[i] = rng.standard_normal(2 * k)
        u[i] = rng.random() ** (1.0 / (2 * k))  # C's pow: numpy's power may round otherwise
    v = g[:, :k] + 1j * g[:, k:]
    # a vector's np.linalg.norm takes a BLAS dot of each part
    norm = (np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
            if dom.shape == "ball" else np.abs(v).max(axis=1))
    return (dom.radius * INTERIOR_PULLBACK * u)[:, None] * (v / norm[:, None])


def score_blocks(score, pts):
    """score(pts) computed on consecutive blocks of SCORE_BLOCK rows (the
    last may be shorter) and concatenated; score maps (N, k) points to (N,)
    values, or to (N, c) rows of c values, row by row."""
    if len(pts) <= SCORE_BLOCK:
        return score(pts)
    return np.concatenate([score(pts[i:i + SCORE_BLOCK])
                           for i in range(0, len(pts), SCORE_BLOCK)])


def _kept(vals):
    """Mask of the scores that count: -inf and NaN mark excluded points."""
    return vals > -np.inf


def _first_gain(score, inside, cands, best):
    """Score the candidates that inside passes, as one batch, up to the
    first that beats best.  Returns (its row in cands or None, the best
    value, evaluations, excluded), counting the rows up to that one."""
    batch = np.flatnonzero(inside(cands))
    if not batch.size:
        return None, best, 0, 0
    vals = score(cands[batch])
    better = np.flatnonzero(vals > best)
    used = int(better[0]) + 1 if better.size else len(batch)
    excluded = int(np.count_nonzero(~_kept(vals[:used])))
    if not better.size:
        return None, best, used, excluded
    return int(batch[used - 1]), float(vals[used - 1]), used, excluded


def coordinate_ascent(score, x0, best: float, steps: int, step0: float, inside):
    """Deterministic first-improvement hill climb over the real coordinates
    of a complex vector, from x0 whose score is best.

    A sweep at step h tries (j, +h), (j, -h), (j, +ih), (j, -ih) for each
    coordinate j in turn and moves on every improvement; h halves after a
    sweep without one.  No sweep runs at an h below STEP_FLOOR * max(1,
    step0), the first included.  The climb scores ahead: a sweep from a
    point and the sweeps at h/2, h/4, ... that would follow if none moved
    form a ladder, cut where the steps run out or where h would fall below
    the floor.  After a move at position p of a sweep, one batch holds the
    rest of that sweep, rebuilt from the new point, and then the ladder
    that would follow it if the rest did not move.  A batch passes
    SCORE_BLOCK rows only where it is one sweep, or the rest of one, and
    4k > SCORE_BLOCK.
    inside maps a batch's (M, k) candidates to a mask of those the climb
    may score; it must give each row the answer it gives that row alone.
    The candidates that pass are scored as one batch and walked in order to
    the first improvement.  Rows score independently of their batch, so the
    point and value are those of scoring one candidate at a time.  No row
    after the first that beats best is read, so a scorer may stop there.
    Returns (point, value, evaluations, excluded), counting only the
    candidates up to each move, as that climb would score them.
    """
    x = np.array(x0, dtype=np.complex128)
    evals = excluded = 0
    h = float(step0)
    floor = STEP_FLOOR * max(1.0, float(step0))
    # sweep position p moves coordinate p // 4 by the (p % 4)-th step; flat
    # indexes that entry in a sweep's (4k, k) candidates
    n = 4 * x.size
    sweep = np.arange(n)
    flat = sweep * x.size + sweep // 4
    left = int(steps)
    pos = n  # the sweep at h from x goes on at position pos; n: it has ended
    while True:
        # the batch: the rest of the sweep at h from x, then the ladder that
        # follows if none of it moves, within SCORE_BLOCK rows
        cap = min(left, (SCORE_BLOCK - n + pos) // n if pos < n else max(1, SCORE_BLOCK // n))
        ladder = [h] if cap > 0 and h >= floor else []
        while 0 < len(ladder) < cap and 0.5 * ladder[-1] >= floor:
            ladder.append(0.5 * ladder[-1])
        if pos == n and not ladder:
            break
        hs = np.array([h, *ladder])
        deltas = np.stack([hs, -hs, 1j * hs, -1j * hs], axis=1)[:, sweep % 4]
        cands = np.repeat(x[None], deltas.size, axis=0)
        cands.reshape(len(hs), -1)[:, flat] += deltas
        row, best, used, excl = _first_gain(score, inside, cands[pos:], best)
        evals += used
        excluded += excl
        if row is None:
            left -= len(ladder)
            h = 0.5 * ladder[-1] if ladder else h
            pos = n
            continue
        # level 0 is the rest of the sweep at h; level i > 0 the ladder's
        # (i - 1)-th sweep, after i - 1 sweeps that did not move
        level, p = divmod(pos + row, n)
        if level:
            left -= level
            h = ladder[level - 1]
        x = cands[pos + row]
        pos = p + 1
    return x, best, evals, excluded


def sampled_sup(score, pts, steps: int, step0: float, inside):
    """Sampled lower estimate of the sup of a batch scorer.

    score maps (N, k) points to (N,) values; -inf or NaN marks an excluded
    point.  The samples are scored in blocks of SCORE_BLOCK rows
    (score_blocks); the best sample is refined by coordinate_ascent, which
    scores a ladder of sweeps as one batch and tests it with the mask
    function inside.  Returns (point, value, evaluations, excluded),
    where the counts cover the samples and the climb; the climb's start
    counts once more, as its first evaluation.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing rows score quietly
        vals = score_blocks(score, pts)
        kept = _kept(vals)
        excluded = len(pts) - int(np.count_nonzero(kept))
        if excluded == len(pts):
            raise EmptySample(f"all {len(pts)} sampled points were excluded")
        idx = int(np.argmax(np.where(kept, vals, -np.inf)))
        best_pt, best = np.array(pts[idx]), float(vals[idx])
        if steps <= 0 or best == np.inf:
            return best_pt, best, len(pts), excluded
        best_pt, best, evals, climb_excluded = coordinate_ascent(
            score, best_pt, best, steps, step0, inside)
    return best_pt, best, len(pts) + 1 + evals, excluded + climb_excluded
