"""Certified inequality witnesses for the two classical shear maps whose
polydisc images pinch every sufficiently large ball.

Harris map g(z, w) = (z + n w^2, w) on the unit polydisc.  If the image
contained a ball of radius delta centered at (alpha0, beta0) then for
every |zeta| < delta the two preimages of (alpha0, beta0) and
(alpha0, beta0 + zeta) would force

    n |zeta| |2 beta0 + zeta| <= 2.

Aligning zeta with beta0 (zeta = s delta e^{i arg beta0}, s < 1) makes
|2 beta0 + zeta| = 2|beta0| + |zeta|, so the left side reaches at least
n s^2 delta^2; whenever n delta^2 > 2 an s < 1 exists whose value
exceeds 2, and that zeta is a certificate that no such ball fits.
Consequently any inscribed ball has radius at most sqrt(2/n).

Duren-Rudin map f(z, w) = (z, w + (z/delta)^2) on the unit polydisc.
Containment of the circle {(u + delta e^{i theta}, v)} in the image
would force

    g(theta) = |(delta^2 v - u^2) - 2 u delta e^{i theta}
                - delta^2 e^{2 i theta}| < delta^2   for all theta,

but the mean of g^2 over a period equals
|delta^2 v - u^2|^2 + 4 |u|^2 delta^2 + delta^4 >= delta^4 (the Fourier
energy of a degree-2 trigonometric polynomial), so max g >= delta^2.  A
theta attaining g(theta) >= delta^2 certifies that the circle, hence any
closed ball of radius delta around (u, v), escapes the image.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed, WitnessFailed
from .mapkit import DurenRudin, Harris, MapExpr, to_text

DR_GRID, DR_REFINEMENTS = 1024, 40  # duren_rudin_witness: angles, golden-section steps


@dataclass
class HarrisWitness:
    """A zeta with |zeta| < delta violating n |zeta| |2 beta0 + zeta| <= 2."""

    n: int
    delta: float
    center: tuple
    zeta: complex
    violation: float


@dataclass
class DRWitness:
    """An angle where the circle polynomial reaches its mean-square floor."""

    delta: float
    center: tuple
    theta_star: float
    circle_value: float


@dataclass
class CertifiedBound:
    """Analytic upper bound on the largest inscribed-ball radius, tagged
    certified because a witness succeeded at every probed center; witnesses
    holds them in center order."""

    value: float
    label: str
    witness_count: int
    map_text: str
    witnesses: list


def harris_witness(n: int, delta: float, alpha0: complex, beta0: complex) -> HarrisWitness:
    """Certificate that no ball B((alpha0, beta0), delta) fits in the image.

    Requires n * delta^2 > 2.  The first coordinate of the center is
    irrelevant to the inequality and recorded only for the report.
    """
    n = int(n)
    delta = float(delta)
    alpha0, beta0 = complex(alpha0), complex(beta0)
    if not n * delta**2 > 2.0:
        raise PreconditionFailed(
            f"harris witness needs n*delta^2 > 2, got {n * delta ** 2:.6g}"
        )
    beta_abs = abs(beta0)
    phase = cmath.phase(beta0) if beta0 != 0 else 0.0
    # smallest s solving n s delta (2|beta0| + s delta) = 2 along the aligned ray
    disc = math.sqrt((n * beta_abs * delta) ** 2 + 2.0 * n * delta**2)
    s_min = (-n * beta_abs * delta + disc) / (n * delta**2)
    s = max(0.99, 0.5 * (1.0 + s_min))
    zeta = s * delta * cmath.exp(1j * phase)
    violation = n * abs(zeta) * abs(2.0 * beta0 + zeta)
    if not (violation > 2.0 and abs(zeta) < delta):
        raise WitnessFailed(
            f"harris witness construction failed: violation={violation}, |zeta|={abs(zeta)}"
        )
    return HarrisWitness(n, delta, (alpha0, beta0), zeta, float(violation))


def circle_mean_square(delta: float, u: complex, v: complex) -> float:
    """Exact theta-mean of g(theta)^2: Fourier energy of the circle polynomial."""
    delta = float(delta)
    u, v = complex(u), complex(v)
    c0 = delta**2 * v - u**2
    return abs(c0) ** 2 + 4.0 * abs(u) ** 2 * delta**2 + delta**4


def duren_rudin_witness(delta: float, u: complex, v: complex) -> DRWitness:
    """Maximize g over a grid of DR_GRID angles with DR_REFINEMENTS
    golden-section steps on the best bracket; the maximum is guaranteed to
    reach delta^2."""
    delta = float(delta)
    if not delta > 0:
        raise PreconditionFailed("delta must be positive")
    u, v = complex(u), complex(v)
    c0 = delta**2 * v - u**2
    c1 = -2.0 * u * delta
    c2 = -(delta**2)

    def g(theta):
        e = np.exp(1j * np.asarray(theta))
        return np.abs(c0 + c1 * e + c2 * e * e)

    thetas = -np.pi + 2.0 * np.pi * np.arange(DR_GRID) / DR_GRID
    values = g(thetas)
    best = int(np.argmax(values))
    theta_star, best_val = float(thetas[best]), float(values[best])

    # golden-section ascent on the bracket around the best grid angle
    lo = theta_star - 2.0 * np.pi / DR_GRID
    hi = theta_star + 2.0 * np.pi / DR_GRID
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = float(g(x1)), float(g(x2))
    for _ in range(DR_REFINEMENTS):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = float(g(x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = float(g(x1))
        for x, fx in ((x1, f1), (x2, f2)):
            if fx > best_val:
                theta_star, best_val = float(x), float(fx)
    if best_val < delta**2 - 1e-9:
        raise WitnessFailed(
            f"circle maximum {best_val} fell below delta^2 = {delta ** 2}"
        )
    return DRWitness(delta, (u, v), theta_star, best_val)


def certify_no_ball(map_node: MapExpr, centers) -> CertifiedBound:
    """Run the matching witness at every center; on universal success return
    the analytic inscribed-ball upper bound (sqrt(2/n) for the Harris map,
    delta for the Duren-Rudin map), tagged certified.  Every center must be
    a pair of finite complex numbers."""
    centers = [(complex(c[0]), complex(c[1])) for c in centers]
    if not centers:
        raise PreconditionFailed("need at least one center to certify")
    if not np.isfinite(centers).all():
        raise PreconditionFailed("center coordinates must be finite")
    if isinstance(map_node, Harris):
        bound = math.sqrt(2.0 / map_node.n)
        delta_test = bound * (1.0 + 1e-6)
        witnesses = [harris_witness(map_node.n, delta_test, c[0], c[1]) for c in centers]
    elif isinstance(map_node, DurenRudin):
        bound = map_node.delta
        witnesses = [duren_rudin_witness(bound, c[0], c[1]) for c in centers]
    else:
        raise PreconditionFailed(
            f"certified bounds exist only for harris/durenrudin maps, got {to_text(map_node)}"
        )
    return CertifiedBound(bound, "certified", len(centers), to_text(map_node), witnesses)
