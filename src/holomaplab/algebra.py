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
sigma_max.  So extreme scales keep LAPACK's accuracy.  A row that is not
finite goes to LAPACK too, which raises LinAlgError or gives that row NaN
(as for [[inf+nanj, 0], [0, 1]]), so callers filter such rows first, as
landau._start_rungs does.  Every step is elementwise and which path a row
takes depends on that row's entries alone, so a row's singular values do
not depend on the batch it is computed in; there is no batch-size
threshold.  spectral_norm_batch takes sigma_max alone from the
same expressions, without the determinant, so its rows have the bits of
the first column of singular_values_batch.  Stacks of any other k go to
np.linalg.svd unchanged.  The single-matrix functions call the batch
kernel on a stack of one, so a pointwise value equals the row a batched
scorer computes for the same matrix, bit for bit.

solve_batch solves a stack of 2 x 2 systems by Cramer's rule in complex
arithmetic: with det = ad - bc, x = (d f1 - b f2, a f2 - c f1) / det
(Ortega & Rheinboldt 1970 for the Newton step it serves).  A row keeps the
closed form only where |det| lies in [2^-480, 2^480] (False for NaN) and
x1 + x2 is finite, which a non-finite right-hand side never gives.
Every other row, and every row of any other k, goes to np.linalg.solve as
one subset, row by row if that subset holds an exactly singular matrix.  A
row that LAPACK finds exactly singular comes back unsolved, with x = 0.  So
NaN, infinite, zero-determinant and extreme-scale rows keep LAPACK's bits.
The closed form never divides by a determinant outside the range, so it
raises no numpy warning, and which path a row takes depends on that row
alone: there is no batch-size threshold, and a row's solution does not
depend on its batch.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

NORM_NAME = "spectral"

# relative sigma_min threshold under which a matrix counts as singular
SINGULAR_RTOL = 1e-14


def row_norms(z):
    """np.linalg.norm(z, axis=-1) of complex z, bit for bit: numpy adds a row
    of fewer than 8 squares in order, here column by column, not row by row."""
    s = (z.conj() * z).real
    if s.shape[-1] >= 8:
        return np.sqrt(np.add.reduce(s, axis=-1))
    return np.sqrt(reduce(np.add, [s[..., j] for j in range(s.shape[-1])]))


def row_max_abs(z):
    """np.abs(z).max(axis=-1), column by column: a max rounds nothing."""
    a = np.abs(z)
    return reduce(np.maximum, [a[..., j] for j in range(a.shape[-1])])


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


# squared Frobenius norms and determinants outside this range go to LAPACK
_SAFE_MIN, _SAFE_MAX = 2.0 ** -480, 2.0 ** 480


def singular_values_batch(mats) -> np.ndarray:
    """Singular values (descending) for a stack of square matrices -> (..., k).
    A row that is not finite goes to LAPACK, which raises LinAlgError or
    gives that row NaN; callers filter such rows first."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.shape[-2:] != (2, 2):
        return np.linalg.svd(mats, compute_uv=False)
    return _singular_values_2x2(mats.reshape(-1, 2, 2)).reshape(mats.shape[:-1])


def _components(m):
    """The eight real rows ar, ai, br, bi, cr, ci, dr, di of (n, 2, 2) matrices,
    as views where m is the (2, 2, n) layout of jacobian_batch and times_batch
    seen as (n, 2, 2)."""
    a, b, c, d = m.transpose(1, 2, 0).reshape(4, -1)
    return a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag


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
    return smax, ~((f >= _SAFE_MIN) & (f <= _SAFE_MAX))


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
    n = 32k.  The result has the memory layout of mats, so a stack in
    jacobian_batch's (k, k, n) layout gives one too: einsum from that
    layout into a C-contiguous result takes about 2.4x as long at n = 4096,
    and from a C-contiguous stack into that layout about 4.7x."""
    return np.einsum("nij,jk->nik", mats, b, out=np.empty_like(mats, dtype=np.complex128))


def spectral_norm_batch(mats) -> np.ndarray:
    """Largest singular value of each matrix of a stack -> (...,); the
    2 x 2 closed form skips the determinant that sigma_min needs.  A row
    that is not finite raises or gives NaN, as in singular_values_batch."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.shape[-2:] != (2, 2):
        return np.linalg.svd(mats, compute_uv=False)[..., 0]
    return _spectral_norm_2x2(mats.reshape(-1, 2, 2)).reshape(mats.shape[:-2])


def solve_batch(mats, rhs):
    """Solve mats @ x = rhs for a stack (n, k, k) and right-hand sides (n, k)
    -> (x, solved), x (n, k) and solved (n,) bool.  k = 2 rows take the
    closed form of the module docstring where it is safe; the others go to
    LAPACK.  An exactly singular row has solved False and x = 0."""
    m = np.asarray(mats, dtype=np.complex128)
    f = np.asarray(rhs, dtype=np.complex128)
    if m.shape[-1] != 2:
        return _lapack_solve(m, f)
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    f1, f2 = f[:, 0], f[:, 1]
    x = np.empty_like(f)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are redone below
        det = a * d - b * c
        size = np.abs(det)
        solved = (size >= _SAFE_MIN) & (size <= _SAFE_MAX)  # so far, by the closed form
        det = np.where(solved, det, 1.0)  # never divide by a determinant out of range
        np.divide(d * f1 - b * f2, det, out=x[:, 0])
        np.divide(a * f2 - c * f1, det, out=x[:, 1])
        solved &= np.isfinite(x[:, 0] + x[:, 1])  # x not finite, or near overflow
    if not solved.all():
        rest = ~solved
        x[rest], solved[rest] = _lapack_solve(m[rest], f[rest])
    return x, solved


def _lapack_solve(m, f):
    """np.linalg.solve on a stack, and row by row where it holds an exactly
    singular matrix; such a row gets x = 0 and solved False."""
    try:
        return np.linalg.solve(m, f[..., None])[..., 0], np.ones(len(f), dtype=bool)
    except np.linalg.LinAlgError:
        x, solved = np.zeros_like(f), np.ones(len(f), dtype=bool)
        for t in range(len(f)):
            try:
                x[t] = np.linalg.solve(m[t], f[t])
            except np.linalg.LinAlgError:
                solved[t] = False
        return x, solved


def kappa_from_singular_values(s, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    """kappa from descending singular values (..., k); +inf where singular:
    sigma_min <= rtol * sigma_max, the package's one singularity test."""
    smax, smin = s[..., 0], s[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(smin <= rtol * smax, np.inf, smax / np.maximum(smin, 1e-300))
    return np.maximum(out, 1.0)
