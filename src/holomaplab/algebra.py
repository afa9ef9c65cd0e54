"""Dense complex linear algebra for small k x k Jacobian matrices.

The operator norm used throughout the package is the spectral norm
(largest singular value), so the condition number is
kappa = sigma_max / sigma_min.  Matrices whose sigma_min falls below a
relative threshold are treated as singular and map to kappa = +inf
rather than an error, which lets samplers skip the exceptional set of a
map instead of aborting.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

NORM_NAME = "spectral"

# relative sigma_min threshold under which a matrix counts as singular
SINGULAR_RTOL = 1e-14


def as_vector(entries) -> np.ndarray:
    """Validate and convert to a 1-d complex128 vector (k >= 1, finite entries)."""
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a nonempty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(entries) -> np.ndarray:
    """Validate and convert to a square complex128 matrix with finite entries."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def spectral_norm(a) -> float:
    """Largest singular value; 0.0 for the zero matrix."""
    return float(singular_values(a)[0])


def invert(a, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    """Matrix inverse; raises SingularMatrix when sigma_min <= rtol * sigma_max."""
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= rtol * s[0]:
        raise SingularMatrix(
            f"sigma_min {s[-1]:.3e} <= {rtol:g} * sigma_max {s[0]:.3e}"
        )
    return np.linalg.inv(a)


def kappa(a, rtol: float = SINGULAR_RTOL) -> float:
    """Spectral condition number sigma_max / sigma_min in [1, +inf]."""
    s = singular_values(a)
    if s[0] == 0.0 or s[-1] <= rtol * s[0]:
        return float("inf")
    return max(float(s[0] / s[-1]), 1.0)


def eigen_moduli(a) -> np.ndarray:
    """Moduli of the eigenvalues, sorted ascending."""
    return np.sort(np.abs(np.linalg.eigvals(as_matrix(a))))


def singular_values_batch(mats) -> np.ndarray:
    """Singular values (descending) for a stack of square matrices -> (..., k)."""
    return np.linalg.svd(np.asarray(mats, dtype=np.complex128), compute_uv=False)


def spectral_norm_batch(mats) -> np.ndarray:
    return singular_values_batch(mats)[..., 0]


def kappa_batch(mats, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    """Vectorized kappa; +inf where singular per the rtol threshold."""
    return kappa_from_singular_values(singular_values_batch(mats), rtol)


def kappa_from_singular_values(s, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    """kappa from descending singular values (..., k); +inf where singular."""
    smax, smin = s[..., 0], s[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(smin <= rtol * smax, np.inf, smax / np.maximum(smin, 1e-300))
    return np.maximum(out, 1.0)
