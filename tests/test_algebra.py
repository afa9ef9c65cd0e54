import numpy as np
import pytest

from holomaplab import algebra
from holomaplab.errors import DimensionMismatch, SingularMatrix

# closed form: kappa([[1,3],[0,1]]) = sigma_max^2 = ((3+sqrt(13))/2)^2 since det = 1
KAPPA_SHEAR_13 = (11.0 + 3.0 * np.sqrt(13.0)) / 2.0


def random_unitary(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSpectralNorm:
    """The spectral norm is the first singular value."""

    def test_identity(self):
        assert algebra.singular_values(np.eye(2))[0] == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert algebra.singular_values(np.diag([2.0, 0.5]))[0] == pytest.approx(2.0, abs=1e-14)

    def test_antidiagonal(self):
        assert algebra.singular_values([[0, 3], [1, 0]])[0] == pytest.approx(3.0, abs=1e-13)

    def test_zero_matrix(self):
        assert algebra.singular_values(np.zeros((3, 3)))[0] == 0.0

    def test_relative_accuracy_small_k(self):
        rng = np.random.default_rng(11)
        for k in range(1, 9):
            d = np.sort(rng.random(k))[::-1] + 0.1
            a = random_unitary(k, rng) @ np.diag(d) @ random_unitary(k, rng)
            assert algebra.singular_values(a)[0] == pytest.approx(d[0], rel=1e-12)


class TestInvert:
    def test_identity(self):
        assert np.allclose(algebra.invert(np.eye(2)), np.eye(2), atol=0)

    def test_diagonal(self):
        assert np.allclose(algebra.invert(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]), atol=1e-15)

    def test_antidiagonal_closed_form(self):
        inv = algebra.invert([[0, 0.5], [1, 0]])
        assert np.allclose(inv, [[0, 1], [2, 0]], atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            algebra.invert([[1, 1], [1, 1]])
        with pytest.raises(SingularMatrix):
            algebra.invert(np.zeros((2, 2)))

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            res = algebra.singular_values(a @ algebra.invert(a) - np.eye(4))[0]
            assert res <= 1e-10 * algebra.kappa(a)

    def test_double_inversion(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = np.array([1.0, 10.0 ** (-6 * rng.random()), 10.0 ** (-3 * rng.random())])
            a = random_unitary(3, rng) @ np.diag(d) @ random_unitary(3, rng)
            assert algebra.kappa(a) <= 1e6
            back = algebra.invert(algebra.invert(a))
            assert algebra.singular_values(back - a)[0] <= 1e-9 * algebra.singular_values(a)[0]


class TestKappa:
    def test_identity(self):
        assert algebra.kappa(np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert algebra.kappa(np.diag([2.0, 0.5])) == pytest.approx(4.0, abs=1e-13)

    def test_shear_closed_form(self):
        # oracle: explicit 2x2 SVD of [[1,3],[0,1]] computed by hand
        assert algebra.kappa([[1, 3], [0, 1]]) == pytest.approx(KAPPA_SHEAR_13, rel=1e-12)

    def test_singular_is_inf(self):
        assert algebra.kappa([[1, 1], [1, 1]]) == np.inf
        assert algebra.kappa(np.zeros((2, 2))) == np.inf

    def test_at_least_one_and_unitary_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = random_unitary(3, rng)
            s = (0.1 + rng.random()) * np.exp(2j * np.pi * rng.random())
            assert abs(algebra.kappa(s * u) - 1.0) <= 1e-10
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert algebra.kappa(a) >= 1.0

    def test_submultiplicative_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = algebra.singular_values(a @ b)[0]
            rhs = algebra.singular_values(a)[0] * algebra.singular_values(b)[0]
            assert lhs <= rhs * (1 + 1e-12)


class TestValidation:
    def test_vector_shape(self):
        with pytest.raises(DimensionMismatch):
            algebra.as_vector([[1, 2], [3, 4]])
        with pytest.raises(DimensionMismatch):
            algebra.as_vector([])

    def test_matrix_shape(self):
        with pytest.raises(DimensionMismatch):
            algebra.as_matrix([[1, 2, 3], [4, 5, 6]])

    def test_finite_entries(self):
        for value in (np.inf, complex(0, -np.inf), np.nan):
            with pytest.raises(ValueError):
                algebra.as_scalar(value)
        with pytest.raises(ValueError):
            algebra.as_vector([1.0, np.inf])
        with pytest.raises(ValueError):
            algebra.as_matrix([[np.nan, 0], [0, 1]])


def _cstack(rng, n, k=2):
    return rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))


def _families(rng):
    """Named stacks of 2 x 2 matrices that the closed form must handle."""
    rank1 = np.einsum("ni,nj->nij", _cstack(rng, 40)[:, 0], _cstack(rng, 40)[:, 1])
    nearly = [rank1[:8] + 10.0 ** -e * _cstack(rng, 8) for e in range(3, 16)]
    return {
        "random": _cstack(rng, 200),
        "diagonal": _cstack(rng, 40) * np.eye(2),
        "antidiagonal": _cstack(rng, 40) * np.array([[0, 1], [1, 0]]),
        "rank1": rank1,
        "zero": np.zeros((3, 2, 2), complex),
        "nearly_singular": np.concatenate(nearly),
        "scaled_1e200": 1e200 * _cstack(rng, 20),
        "scaled_1e-200": 1e-200 * _cstack(rng, 20),
    }


FAMILIES = _families(np.random.default_rng(8))

# row scales that send a 2 x 2 matrix down each path of singular_values_batch
# and solve_batch: the closed form, or LAPACK for zero and extreme-scale rows
ROW_SCALES = (1.0, 0.0, 1e-200, 1e200, 2.0 ** -241, 2.0 ** 239, 1e-3)


class TestSingularValuesBatch:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_agrees_with_lapack(self, family):
        mats = FAMILIES[family]
        ours = algebra.singular_values_batch(mats)
        ref = np.linalg.svd(mats, compute_uv=False)
        assert ours.shape == ref.shape
        assert (np.abs(ours - ref) <= 1e-13 * ref[:, :1]).all()
        assert (ours[:, 0] >= ours[:, 1]).all()
        if family.startswith("scaled") or family == "zero":
            # outside the closed form's range: LAPACK's own values
            assert ours.tobytes() == ref.tobytes()

    def test_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mats = np.concatenate([FAMILIES["random"][:40], FAMILIES["rank1"][:10],
                               FAMILIES["nearly_singular"]])
        ours = algebra.singular_values_batch(mats)
        ref = np.linalg.svd(mats, compute_uv=False)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for a, s, r in zip(mats, ours, ref):
                exact = mpmath.svd_c(mpmath.matrix(a.tolist()), compute_uv=False)
                exact = np.sort([float(x) for x in exact])[::-1]
                # as accurate as LAPACK: a few ulps of sigma_max, absolute
                assert np.abs(s - exact).max() <= 4 * eps * exact[0]
                assert np.abs(r - exact).max() <= 4 * eps * exact[0]
        # kappa within 4 eps kappa, relative, of a 200-bit SVD of the same float
        # matrix, up to kappa = 1e14 at scales 1e-3 and 1e3; rtol=0, since the
        # default SINGULAR_RTOL makes kappa = 1e14 infinite
        rng = np.random.default_rng(12)
        kappas, scales = np.repeat([1.0, 1e4, 1e8, 1e12, 1e14], 20), np.tile([1e-3, 1e3], 50)
        mats = np.array([s * random_unitary(2, rng) @ np.diag([1.0, 1.0 / k])
                         @ random_unitary(2, rng) for k, s in zip(kappas, scales)])
        ours = algebra.kappa_from_singular_values(algebra.singular_values_batch(mats), rtol=0)
        with mpmath.workprec(200):
            for a, k in zip(mats, ours):
                sv = mpmath.svd_c(mpmath.matrix(a.tolist()), compute_uv=False)
                exact = max(sv) / min(sv)
                assert abs(k - exact) <= 4 * eps * exact * exact

    def test_nan_row_raises_like_lapack(self):
        mats = _cstack(np.random.default_rng(10), 5)
        mats[2, 1, 0] = complex(np.nan, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            algebra.singular_values_batch(mats)

    def test_inf_row_matches_lapack(self):
        # LAPACK returns NaN singular values for an infinite entry rather
        # than raising; the row goes to LAPACK and keeps that behaviour
        mats = _cstack(np.random.default_rng(11), 5)
        mats[3, 0, 1] = np.inf
        ours = algebra.singular_values_batch(mats)
        assert np.isnan(ours[3]).all()
        assert ours[3].tobytes() == np.linalg.svd(mats[3:4], compute_uv=False)[0].tobytes()
        assert np.isfinite(np.delete(ours, 3, axis=0)).all()

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_sizes_are_lapack_bit_for_bit(self, k):
        mats = _cstack(np.random.default_rng(12), 17, k)
        ref = np.linalg.svd(mats, compute_uv=False)
        assert algebra.singular_values_batch(mats).tobytes() == ref.tobytes()

    def test_leading_dimensions(self):
        mats = _cstack(np.random.default_rng(13), 12).reshape(3, 4, 2, 2)
        ours = algebra.singular_values_batch(mats)
        assert ours.shape == (3, 4, 2)
        assert ours.tobytes() == algebra.singular_values_batch(mats.reshape(12, 2, 2)).tobytes()

    def test_single_matrix_functions_use_the_batch_rows(self):
        mats = _cstack(np.random.default_rng(14), 30)
        rows = algebra.singular_values_batch(mats)
        kappas = algebra.kappa_from_singular_values(rows)
        for a, s, k in zip(mats, rows, kappas):
            assert algebra.singular_values(a).tobytes() == s.tobytes()
            assert np.float64(algebra.kappa(a)).tobytes() == k.tobytes()


class TestSpectralNormBatch:
    """sigma_max alone, with the bits of the first singular value."""

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_first_singular_value_bit_for_bit(self, family):
        mats = FAMILIES[family]
        ref = algebra.singular_values_batch(mats)[:, 0]
        assert algebra.spectral_norm_batch(mats).tobytes() == ref.tobytes()

    def test_edge_of_the_closed_form_range(self):
        # squared Frobenius norms on both sides of 2^-480 and 2^480
        rng = np.random.default_rng(15)
        base = _cstack(rng, 40)
        base /= np.sqrt((np.abs(base) ** 2).sum(axis=(1, 2)))[:, None, None]
        scales = 2.0 ** np.array([-241.0, -240.0, -239.9, 239.9, 240.0, 241.0, 600.0, -600.0])
        mats = np.concatenate([s * base for s in scales])
        ref = algebra.singular_values_batch(mats)[:, 0]
        assert algebra.spectral_norm_batch(mats).tobytes() == ref.tobytes()

    def test_inf_row(self):
        mats = _cstack(np.random.default_rng(16), 5)
        mats[1, 1, 1] = complex(0.0, -np.inf)
        ours = algebra.spectral_norm_batch(mats)
        assert np.isnan(ours[1])
        assert ours.tobytes() == algebra.singular_values_batch(mats)[:, 0].tobytes()

    def test_nan_row_raises_like_lapack(self):
        mats = _cstack(np.random.default_rng(17), 5)
        mats[0, 0, 1] = complex(0.0, np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            algebra.spectral_norm_batch(mats)

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_sizes(self, k):
        mats = _cstack(np.random.default_rng(18), 17, k)
        ref = algebra.singular_values_batch(mats)[..., 0]
        assert algebra.spectral_norm_batch(mats).tobytes() == ref.tobytes()

    def test_leading_dimensions(self):
        mats = _cstack(np.random.default_rng(19), 12).reshape(3, 4, 2, 2)
        ours = algebra.spectral_norm_batch(mats)
        assert ours.shape == (3, 4)
        assert ours.tobytes() == algebra.singular_values_batch(mats)[..., 0].tobytes()


# rows that are not finite go to LAPACK, which raises on some and gives
# others NaN: callers filter them first
NON_FINITE_ROWS = {
    "inf+nanj_inf": [[complex(np.inf, np.nan), 0], [0, np.inf]],
    "inf+nanj_one": [[complex(np.inf, np.nan), 0], [0, 1]],
    "nan+infj": [[complex(np.nan, np.inf), 1], [1, 1]],
    "nan": [[np.nan, 0], [0, 1]],
}


@pytest.mark.parametrize("row", list(NON_FINITE_ROWS))
@pytest.mark.parametrize("fn", [algebra.singular_values_batch, algebra.spectral_norm_batch],
                         ids=["singular_values", "spectral_norm"])
def test_a_non_finite_row_raises_or_is_all_nan(fn, row):
    mats = _cstack(np.random.default_rng(20), 4)
    mats[2] = NON_FINITE_ROWS[row]
    try:
        out = fn(mats)
    except np.linalg.LinAlgError:
        return
    assert np.isnan(out[2]).all()
    assert np.isfinite(np.delete(out, 2, axis=0)).all()


def _lapack_rows(mats, rhs):
    """np.linalg.solve row by row -> (x, solved); x = 0 where it raises."""
    x, solved = np.zeros_like(rhs), np.ones(len(rhs), dtype=bool)
    for t in range(len(rhs)):
        try:
            x[t] = np.linalg.solve(mats[t], rhs[t])
        except np.linalg.LinAlgError:
            solved[t] = False
    return x, solved


def _closed_form_rows(mats, rhs):
    """The rows solve_batch solves by Cramer's rule, where no solution
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0])
    return (size >= 2.0 ** -480) & (size <= 2.0 ** 480) & np.isfinite(rhs).all(axis=1)


class TestSolveBatch:
    @pytest.mark.parametrize("scale", ROW_SCALES)
    @pytest.mark.parametrize("family", ["random", "diagonal", "antidiagonal", "rank1",
                                        "nearly_singular"])
    def test_closed_form_error_bounds(self, family, scale):
        # Cramer's rule is forward stable for k = 2 (Higham 2002, 1.10.1): on
        # a closed-form row the normwise backward error
        # |f - A x| / (|A| |x| + |f|) is at most 4 eps kappa(A), and x lies
        # within 8 eps kappa(A) |x_lapack| of LAPACK's solution.  Every other
        # row has LAPACK's bits.
        mats = scale * FAMILIES[family]
        rhs = _cstack(np.random.default_rng(20), len(mats))[:, 0]
        x, solved = algebra.solve_batch(mats, rhs)
        ref, ref_solved = _lapack_rows(mats, rhs)
        fast = _closed_form_rows(mats, rhs)
        if scale == 1.0 and family == "random":
            assert fast.all()
        assert x[~fast].tobytes() == ref[~fast].tobytes()
        assert np.array_equal(solved[~fast], ref_solved[~fast])
        assert solved[fast].all()
        # a rank-1 row whose rounded determinant is not 0 takes the closed
        # form, though LAPACK may meet an exact zero pivot on it
        both = fast & ref_solved
        a, x, ref, f = mats[both], x[both], ref[both], rhs[both]
        eps = np.finfo(float).eps
        kappa = np.linalg.cond(a)
        norm_a = np.linalg.norm(a, 2, axis=(1, 2))
        residual = np.linalg.norm(f - np.einsum("nij,nj->ni", a, x), axis=1)
        scale_x = norm_a * np.linalg.norm(x, axis=1) + np.linalg.norm(f, axis=1)
        assert (residual <= 4 * eps * kappa * scale_x).all()
        gap = np.linalg.norm(x - ref, axis=1)
        assert (gap <= 8 * eps * kappa * np.linalg.norm(ref, axis=1)).all()

    def test_exactly_singular_rows_come_back_unsolved(self):
        rng = np.random.default_rng(21)
        mats = np.concatenate([
            np.array([[[0, 0], [0, 0]], [[1, 0], [2, 0]], [[1, 2], [2, 4]]], complex),
            _cstack(rng, 2)])
        rhs = _cstack(rng, 5)[:, 0]
        x, solved = algebra.solve_batch(mats, rhs)
        assert solved.tolist() == [False, False, False, True, True]
        assert not x[:3].any()
        ref = algebra.solve_batch(mats[3:], rhs[3:])[0]
        assert x[3:].tobytes() == ref.tobytes()

    def test_non_finite_and_out_of_range_rows_have_lapack_bits(self):
        rng = np.random.default_rng(22)
        base = _cstack(rng, 12)
        base /= np.sqrt(np.abs(base[:, 0, 0] * base[:, 1, 1] - base[:, 0, 1] * base[:, 1, 0])
                        )[:, None, None]  # |det| = 1, up to rounding
        # |det| = 2^(+-479.8) inside the range, 2^(+-480.2) and 2^(+-482) beyond
        mats = base * 2.0 ** np.array([0, -241, 241, -239.9, 239.9, 0, 0, 0, 0, 0, -240.1,
                                       240.1])[:, None, None]
        mats[5, 0, 1] = complex(np.nan, 0.0)
        mats[6, 1, 1] = np.inf
        mats[7, 1, 0] = complex(0.0, -np.inf)
        rhs = _cstack(rng, 12)[:, 0]
        rhs[8, 0] = np.nan
        rhs[9, 1] = complex(np.inf, 1.0)
        x, solved = algebra.solve_batch(mats, rhs)
        ref, ref_solved = _lapack_rows(mats, rhs)
        lapack = ~_closed_form_rows(mats, rhs)
        assert lapack.tolist() == [False, True, True, False, False] + [True] * 7
        assert x[lapack].tobytes() == ref[lapack].tobytes()
        assert np.array_equal(solved, ref_solved)

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_sizes_are_lapack_bit_for_bit(self, k):
        rng = np.random.default_rng(23)
        mats, rhs = _cstack(rng, 17, k), _cstack(rng, 17, k)[:, 0]
        mats[4] = 0.0  # an exactly singular row: the stack goes row by row
        mats[9, 0, 0] = np.nan
        x, solved = algebra.solve_batch(mats, rhs)
        ref, ref_solved = _lapack_rows(mats, rhs)
        assert x.tobytes() == ref.tobytes()
        assert np.array_equal(solved, ref_solved) and solved.sum() == 16
        x, _ = algebra.solve_batch(np.delete(mats, 4, axis=0), np.delete(rhs, 4, axis=0))
        assert x.tobytes() == np.delete(ref, 4, axis=0).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_no_warning(self):
        rng = np.random.default_rng(24)
        mats = np.concatenate([s * _cstack(rng, 3) for s in ROW_SCALES + (1e300,)])
        mats[0, 0, 0] = np.nan
        mats[1, 1, 0] = np.inf
        mats[2] = [[1, 2], [2, 4]]
        rhs = 1e300 * _cstack(rng, len(mats))[:, 0]
        rhs[18, 1] = np.inf
        solved = algebra.solve_batch(mats, rhs)[1]
        assert solved.tolist() == [True, True, False] + [False] * 3 + [True] * 18  # 0 * rows 3-5


class TestRowReductions:
    """row_norms and row_max_abs reduce the last axis column by column, with
    the bits of numpy's reductions over it."""

    @staticmethod
    def rows(shape, rng):
        # every ROW_SCALES magnitude, and NaN, inf and -0 entries
        z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * rng.choice(
            ROW_SCALES, size=shape)
        flat = z.reshape(-1)
        for value, share in ((np.nan, 0.02), (np.inf, 0.02), (complex(-0.0, -0.0), 0.05)):
            flat[rng.random(flat.size) < share] = value
        return z

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 32])
    def test_numpy_bits(self, k):
        rng = np.random.default_rng(k)
        for shape in [(2000, k), (k,), (3, 5, k), (0, k)]:
            z = self.rows(shape, rng)
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.asarray(algebra.row_norms(z)).tobytes() == np.asarray(
                    np.linalg.norm(z, axis=-1)).tobytes()
                assert np.asarray(algebra.row_max_abs(z)).tobytes() == np.asarray(
                    np.abs(z).max(axis=-1)).tobytes()
