"""Dense complex linear algebra for small k x k Jacobian matrices.

The operator norm used throughout the package is the spectral norm
(largest singular value), so the condition number is
kappa = sigma_max / sigma_min.  One rule, in kappa_from_singular_values
alone, decides singularity: sigma_min <= rtol * sigma_max (rtol =
SINGULAR_RTOL, or a caller's looser one).  A singular matrix has kappa =
+inf rather than an error, which lets samplers skip the exceptional set of
a map instead of aborting; invert raises SingularMatrix there.

Singular values of a stack of 2 x 2 matrices [[a, b], [c, d]] come from a
closed form in real arithmetic.  With row sums of squares p = |a|^2 + |b|^2
and r = |c|^2 + |d|^2, cross term q = a conj(c) + b conj(d) and
f = p + r (the squared Frobenius norm):

    sigma_max^2 = (f + sqrt((p - r)^2 + 4 |q|^2)) / 2
    sigma_min   = |ad - bc| / sigma_max

Both terms of sigma_max^2 are nonnegative, so it is accurate to a few
ulps; sigma_min carries an absolute error of a few ulps of sigma_max, as
LAPACK's does.  A row whose f is NaN, infinite or outside
[2^-480, 2^480] goes to np.linalg.svd instead, as one subset of the
stack: inside that range no square or product overflows, and where
|ad - bc|^2 underflows the error it leaves is far below an ulp of
sigma_max.  So extreme scales keep LAPACK's accuracy, and a NaN Jacobian
still raises numpy's LinAlgError.  Every step is elementwise and which
path a row takes depends on that row's entries alone, so a row's singular
values do not depend on the batch it is computed in; there is no
batch-size threshold.  spectral_norm_batch takes sigma_max alone from the
same expressions, without the determinant, so its rows have the bits of
the first column of singular_values_batch.  Stacks of any other k go to
np.linalg.svd unchanged.  The single-matrix functions call the batch
kernel on a stack of one, so a pointwise value equals the row a batched
scorer computes for the same matrix, bit for bit.
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


def as_scalar(value, kind=complex):
    """Convert to a finite Python complex (or float, with kind=float)."""
    x = kind(value)
    if not np.isfinite(x):
        raise ValueError(f"scalar {x!r} must be finite")
    return x


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
    return singular_values_batch(as_matrix(a)[None])[0]


def spectral_norm(a) -> float:
    """Largest singular value; 0.0 for the zero matrix."""
    return float(singular_values(a)[0])


def invert(a) -> np.ndarray:
    """Matrix inverse; raises SingularMatrix where kappa is +inf."""
    a = as_matrix(a)
    s = singular_values(a)
    if kappa_from_singular_values(s) == np.inf:
        raise SingularMatrix(
            f"sigma_min {s[-1]:.3e} <= {SINGULAR_RTOL:g} * sigma_max {s[0]:.3e}"
        )
    return np.linalg.inv(a)


def kappa(a) -> float:
    """Spectral condition number sigma_max / sigma_min in [1, +inf]."""
    return float(kappa_from_singular_values(singular_values(a)))


def eigen_moduli(a) -> np.ndarray:
    """Moduli of the eigenvalues, sorted ascending."""
    return np.sort(np.abs(np.linalg.eigvals(as_matrix(a))))


# squared Frobenius norms outside this range go to LAPACK
_FRO2_MIN, _FRO2_MAX = 2.0 ** -480, 2.0 ** 480


def singular_values_batch(mats) -> np.ndarray:
    """Singular values (descending) for a stack of square matrices -> (..., k).
    A row with a NaN entry raises LinAlgError; a row with +-inf entries but
    no NaN gives NaN without raising."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.shape[-2:] != (2, 2):
        return np.linalg.svd(mats, compute_uv=False)
    return _singular_values_2x2(mats.reshape(-1, 2, 2)).reshape(mats.shape[:-1])


def _components(m):
    """The eight real rows ar, ai, br, bi, cr, ci, dr, di of (n, 2, 2) matrices."""
    return np.ascontiguousarray(m).reshape(len(m), 4).view(np.float64).T


def _sigma_max_2x2(ar, ai, br, bi, cr, ci, dr, di, out=None):
    """sigma_max by the closed form of the module docstring, and the mask of
    the rows to redo with LAPACK: those whose f is NaN, infinite or outside
    the safe range.  Call it under np.errstate."""
    p = ar * ar + ai * ai + br * br + bi * bi
    r = cr * cr + ci * ci + dr * dr + di * di
    qr = ar * cr + ai * ci + br * dr + bi * di
    qi = ai * cr - ar * ci + bi * dr - br * di
    f, g = p + r, p - r
    smax = np.sqrt(0.5 * (f + np.sqrt(g * g + 4.0 * (qr * qr + qi * qi))), out=out)
    return smax, ~((f >= _FRO2_MIN) & (f <= _FRO2_MAX))


def _singular_values_2x2(m) -> np.ndarray:
    """(n, 2, 2) -> (n, 2) by the closed form of the module docstring."""
    ar, ai, br, bi, cr, ci, dr, di = c = _components(m)
    out = np.empty((len(m), 2))
    with np.errstate(all="ignore"):  # rows outside the safe range are redone below
        smax, lapack = _sigma_max_2x2(*c, out=out[:, 0])
        det_r = ar * dr - ai * di - br * cr + bi * ci
        det_i = ar * di + ai * dr - br * ci - bi * cr
        np.minimum(np.sqrt(det_r * det_r + det_i * det_i) / smax, smax, out=out[:, 1])
    if lapack.any():
        out[lapack] = np.linalg.svd(m[lapack], compute_uv=False)
    return out


def _spectral_norm_2x2(m) -> np.ndarray:
    """(n, 2, 2) -> (n,): sigma_max alone, with the bits of
    _singular_values_2x2(m)[:, 0]."""
    with np.errstate(all="ignore"):  # rows outside the safe range are redone below
        smax, lapack = _sigma_max_2x2(*_components(m))
    if lapack.any():
        smax[lapack] = np.linalg.svd(m[lapack], compute_uv=False)[:, 0]
    return smax


def times_batch(mats, b) -> np.ndarray:
    """mats @ b for a stack (n, k, k) and one (k, k) matrix b.  einsum forms
    each row in C; a stacked matmul of 2 x 2 blocks costs 6-8x more at
    n = 32k."""
    return np.einsum("nij,jk->nik", mats, b)


def spectral_norm_batch(mats) -> np.ndarray:
    """Largest singular value of each matrix of a stack -> (...,); the
    2 x 2 closed form skips the determinant that sigma_min needs.  NaN and
    infinite entries behave as in singular_values_batch."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.shape[-2:] != (2, 2):
        return np.linalg.svd(mats, compute_uv=False)[..., 0]
    return _spectral_norm_2x2(mats.reshape(-1, 2, 2)).reshape(mats.shape[:-2])


def kappa_batch(mats) -> np.ndarray:
    """Vectorized kappa; +inf where singular."""
    return kappa_from_singular_values(singular_values_batch(mats))


def kappa_from_singular_values(s, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    """kappa from descending singular values (..., k); +inf where singular:
    sigma_min <= rtol * sigma_max, the package's one singularity test."""
    smax, smin = s[..., 0], s[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(smin <= rtol * smax, np.inf, smax / np.maximum(smin, 1e-300))
    return np.maximum(out, 1.0)
