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
would force g(theta) < delta^2 for all theta, where

    g(theta) = |c0 + c1 e^{i theta} + c2 e^{2 i theta}|,
    c0 = delta^2 v - u^2,   c1 = -2 u delta,   c2 = -delta^2.

At theta0 = (arg c0 - pi)/2, a = c0 + c2 e^{2 i theta0} has modulus
|c0| + delta^2, and with b = c1 e^{i theta0} the parallelogram law
|a + b|^2 + |a - b|^2 = 2 |a|^2 + 2 |b|^2 makes the larger of
g(theta0) = |a + b| and g(theta0 + pi) = |a - b| at least |a| >= delta^2.
That angle certifies that the circle, hence any closed ball of radius
delta around (u, v), escapes the image.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed, WitnessFailed
from .mapkit import DurenRudin, Harris, MapExpr, to_text


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
    """An angle theta_star where the circle polynomial g reaches at least
    |c0| + delta^2 >= delta^2; circle_value is g(theta_star), not the maximum
    of g, and inf where g passes the float range."""

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
    power = n * (delta * delta)
    if not power > 2.0:
        raise PreconditionFailed(f"harris witness needs n*delta^2 > 2, got {power:.6g}")
    phase = math.atan2(beta0.imag, beta0.real) if beta0 != 0 else 0.0
    # smallest s solving n s delta (2|beta0| + s delta) = 2 along the aligned
    # ray, in a form with no cancellation and no overflowing square
    a = n * math.hypot(beta0.real, beta0.imag) * delta
    s_min = 2.0 / (a + math.hypot(a, math.sqrt(2.0 * power)))
    s = max(0.99, 0.5 * (1.0 + s_min))
    zeta = s * delta * cmath.exp(1j * phase)
    # |2 beta0 + zeta| from a quarter of it, which cannot overflow
    violation = n * abs(zeta) * (4.0 * abs(0.5 * beta0 + 0.25 * zeta))
    if not (violation > 2.0 and abs(zeta) < delta):
        raise WitnessFailed(
            f"harris witness construction failed: violation={violation}, |zeta|={abs(zeta)}"
        )
    return HarrisWitness(n, delta, (alpha0, beta0), zeta, float(violation))


def duren_rudin_witness(delta: float, u: complex, v: complex) -> DRWitness:
    """g at theta0 = (arg c0 - pi)/2 or theta0 + pi, whichever is larger: at
    least |c0| + delta^2, less a relative 5e-13 off a knife edge.  Computed
    at the scale s = 2^e of max(delta, |Re u|, |Im u|): delta/s and u/s with
    v kept give g/s^2 at the same angles, so no square overflows;
    circle_value is inf where g passes the float range."""
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise PreconditionFailed("delta must be finite and positive")
    u, v = complex(u), complex(v)
    e = math.frexp(max(delta, abs(u.real), abs(u.imag)))[1]
    d = math.ldexp(delta, -e)
    us = complex(math.ldexp(u.real, -e), math.ldexp(u.imag, -e))
    c0 = d * d * v - us * us
    # arg c0, from 2^1000 c0 where its terms underflow (cmath.phase raises)
    w = c0 if max(abs(c0.real), abs(c0.imag)) >= 2.0**-900 else (
        (d * 2.0**500) ** 2 * v - (us * 2.0**500) ** 2)
    theta = (math.atan2(w.imag, w.real) - math.pi) / 2.0
    eu = math.frexp(max(abs(u.real), abs(u.imag)))[1]
    un = complex(math.ldexp(u.real, -eu), math.ldexp(u.imag, -eu))  # us may underflow

    # g(theta)^2 - g(theta + pi)^2 = 4 Re(a conj b), of the sign of
    # q = Re(a conj bn), picks the larger value without comparing rounded
    # moduli.  Where b is nearly perpendicular to a the rounding of theta
    # could flip that sign: step off; any step below pi/4 keeps |a| >= d^2.
    for theta in (theta, theta + 1e-6):
        z = cmath.exp(1j * theta)
        a, bn = c0 - d * d * z * z, -un * z  # c0 + c2 e^{2 i theta}; c1 e^{i theta}, scaled
        q = (a * bn.conjugate()).real
        if abs(q) >= 1e-10 * math.hypot(a.real, a.imag) * abs(bn):
            break
    b = -2.0 * us * d * z
    if q < 0:
        theta, b = theta + math.pi, -b
    h = (a + b) * 0.5  # |a + b| / 2, finite though d^2 v may reach the float range
    g = math.hypot(h.real, h.imag)
    if not g >= 0.5 * d * d * (1.0 - 1e-12):
        raise WitnessFailed(f"circle value {2 * g} fell below delta^2 = {d * d} at scale 2^{e}")
    value = math.ldexp(g, 2 * e + 1) if math.frexp(g)[1] + 2 * e + 1 <= 1024 else math.inf
    return DRWitness(delta, (u, v), theta, value)


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
