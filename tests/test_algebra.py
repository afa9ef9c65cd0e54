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
    def test_identity(self):
        assert algebra.spectral_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert algebra.spectral_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0, abs=1e-14)

    def test_antidiagonal(self):
        assert algebra.spectral_norm([[0, 3], [1, 0]]) == pytest.approx(3.0, abs=1e-13)

    def test_zero_matrix(self):
        assert algebra.spectral_norm(np.zeros((3, 3))) == 0.0

    def test_relative_accuracy_small_k(self):
        rng = np.random.default_rng(11)
        for k in range(1, 9):
            d = np.sort(rng.random(k))[::-1] + 0.1
            a = random_unitary(k, rng) @ np.diag(d) @ random_unitary(k, rng)
            assert algebra.spectral_norm(a) == pytest.approx(d[0], rel=1e-12)


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
            res = algebra.spectral_norm(a @ algebra.invert(a) - np.eye(4))
            assert res <= 1e-10 * algebra.kappa(a)

    def test_double_inversion(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = np.array([1.0, 10.0 ** (-6 * rng.random()), 10.0 ** (-3 * rng.random())])
            a = random_unitary(3, rng) @ np.diag(d) @ random_unitary(3, rng)
            assert algebra.kappa(a) <= 1e6
            back = algebra.invert(algebra.invert(a))
            assert algebra.spectral_norm(back - a) <= 1e-9 * algebra.spectral_norm(a)


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
            lhs = algebra.spectral_norm(a @ b)
            rhs = algebra.spectral_norm(a) * algebra.spectral_norm(b)
            assert lhs <= rhs * (1 + 1e-12)


class TestEigenModuli:
    def test_identity(self):
        assert np.allclose(algebra.eigen_moduli(np.eye(2)), [1, 1], atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(algebra.eigen_moduli(np.diag([2.0, 0.5])), [0.5, 2.0], atol=1e-14)

    def test_antidiagonal_hand_roots(self):
        # oracle: roots of lambda^2 = 0.5
        mods = algebra.eigen_moduli([[0, 0.5], [1, 0]])
        assert np.allclose(mods, [np.sqrt(0.5)] * 2, atol=1e-14)

    def test_ratio_bounded_by_kappa(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mods = algebra.eigen_moduli(a)
            assert mods[-1] / mods[0] <= algebra.kappa(a) + 1e-10


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
        assert algebra.as_scalar(1e308, float) == 1e308
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
        kappas = algebra.kappa_batch(mats)
        for a, s, k in zip(mats, rows, kappas):
            assert algebra.singular_values(a).tobytes() == s.tobytes()
            assert algebra.spectral_norm(a) == s[0]
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
