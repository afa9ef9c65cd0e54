"""Deterministic sampling machinery shared by the estimators.

Everything here is a pure function of explicit integer seeds.  The point
families are prefix-stable: asking for more points extends a sample set
without changing the points already generated, so sweeps over sample
sizes behave monotonically.  Sampled suprema are scored by one batch
function, for the samples and for each hill-climb candidate alike.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import EmptySample

# outermost shell sits at radius * (1 - BOUNDARY_GAP)
BOUNDARY_GAP = 1e-3


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


def shell_points(dom, shells: int, per_shell: int, seed: int) -> np.ndarray:
    """Stratified sample of a ball/polydisc domain: per_shell points on each
    sphere of shell_radii.  Prefix-stable in per_shell (per-shell child
    streams, row-major draws)."""
    k = dom.dim
    blocks = []
    for i, r in enumerate(shell_radii(dom.radius, shells)):
        if r == 0.0:
            blocks.append(np.zeros((1, k), dtype=np.complex128))
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 211, i]))
        g = rng.standard_normal((per_shell, 2 * k))
        v = g[:, :k] + 1j * g[:, k:]
        if dom.shape == "ball":
            scale = np.linalg.norm(v, axis=1)
        else:
            scale = np.abs(v).max(axis=1)
        blocks.append(r * v / scale[:, None])
    return np.concatenate(blocks, axis=0)


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
    return v / np.linalg.norm(v, axis=1)[:, None]


def interior_points(dom, n: int, seed: int, pullback: float = 0.7) -> np.ndarray:
    """n points of the domain at radii <= pullback * radius.  Each index draws
    from its own child stream, so the family is prefix-stable in n."""
    k = dom.dim
    pts = np.empty((n, k), dtype=np.complex128)
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 499, i]))
        g = rng.standard_normal(2 * k)
        v = g[:k] + 1j * g[k:]
        v = v / (np.linalg.norm(v) if dom.shape == "ball" else np.abs(v).max())
        r = dom.radius * pullback * rng.random() ** (1.0 / (2 * k))
        pts[i] = r * v
    return pts


def coordinate_ascent(objective, x0, steps: int, step0: float, inside):
    """Deterministic coordinate-wise hill climb over the real coordinates of a
    complex vector.  objective returns -inf to reject a point; inside guards
    the domain.  Returns (best_point, best_value)."""
    x = np.array(x0, dtype=np.complex128)
    best = objective(x)
    h = float(step0)
    for _ in range(int(steps)):
        moved = False
        for j in range(x.size):
            for delta in (h, -h, 1j * h, -1j * h):
                cand = x.copy()
                cand[j] += delta
                if not inside(cand):
                    continue
                val = objective(cand)
                if val > best:
                    best, x, moved = val, cand, True
        if not moved:
            h *= 0.5
            if h < 1e-14 * max(1.0, float(step0)):
                break
    return x, best


def sampled_sup(score, pts, steps: int, step0: float, inside):
    """Sampled lower estimate of the sup of a batch scorer.

    score maps (N, k) points to (N,) values, -inf marking an excluded point.
    The best sample is refined by coordinate_ascent, which scores each
    candidate as a batch of one.  Returns (point, value, evaluations,
    excluded), where the counts cover the samples and the climb.
    """
    vals = score(pts)
    excluded = int(np.count_nonzero(vals == -np.inf))
    if excluded == len(pts):
        raise EmptySample(f"all {len(pts)} sampled points were excluded")
    idx = int(np.argmax(vals))
    best_pt, best = np.array(pts[idx]), float(vals[idx])
    evals, climb_excluded = 0, 0

    def objective(x):
        nonlocal evals, climb_excluded
        val = float(score(x[None])[0])
        evals += 1
        climb_excluded += val == -np.inf
        return val

    if steps > 0 and best != np.inf:
        pt, val = coordinate_ascent(objective, best_pt, steps, step0, inside)
        if val > best:
            best_pt, best = pt, val
    return best_pt, best, len(pts) + evals, excluded + climb_excluded
