import math
import sys

import numpy as np
import pytest

from holomaplab import (
    DurenRudin,
    Harris,
    Henon,
    certify_no_ball,
    duren_rudin_witness,
    harris_witness,
)
from holomaplab.errors import PreconditionFailed, WitnessFailed


def circle_values(delta, u, v, n=10_000):
    theta = np.linspace(-np.pi, np.pi, n, endpoint=False)
    e = np.exp(1j * theta)
    return np.abs((delta**2 * v - u**2) - 2 * u * delta * e - delta**2 * e * e)


def circle_value_at(delta, u, v, theta):
    e = np.exp(1j * theta)
    return abs((delta**2 * v - u**2) - 2 * u * delta * e - delta**2 * e * e)


class TestHarrisWitness:
    def test_unit_delta_center_origin(self):
        w = harris_witness(3, 1.0, 0, 0)
        assert w.zeta == pytest.approx(0.99)
        assert w.violation == pytest.approx(3 * 0.99 * 0.99, rel=1e-12)
        assert w.violation > 2

    def test_first_center_coordinate_irrelevant(self):
        w0 = harris_witness(3, 1.0, 0, 0)
        w1 = harris_witness(3, 1.0, 5 + 2j, 0)
        assert w1.zeta == w0.zeta
        assert w1.violation == w0.violation

    def test_nonzero_beta_against_sweep_oracle(self):
        # oracle: dense sweep of s, phi maximizing n |zeta| |2 beta0 + zeta|
        n, delta, beta0 = 5, 0.7, 0.3 + 0j
        w = harris_witness(n, delta, 0, beta0)
        ss = np.linspace(1e-4, 1 - 1e-9, 100)
        ph = np.linspace(-np.pi, np.pi, 100, endpoint=False)
        S, P = np.meshgrid(ss, ph)
        Z = S * delta * np.exp(1j * P)
        sweep_max = (n * np.abs(Z) * np.abs(2 * beta0 + Z)).max()
        assert w.violation > 2
        assert w.violation <= sweep_max + 1e-6
        assert abs(w.zeta) < delta

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            harris_witness(3, 0.5, 0, 0)  # n delta^2 = 0.75 <= 2

    def test_stored_fields_reverify(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            delta = np.sqrt(2.0 / n) * (1 + rng.random())
            beta0 = rng.standard_normal() + 1j * rng.standard_normal()
            alpha0 = rng.standard_normal() + 1j * rng.standard_normal()
            w = harris_witness(n, delta, alpha0, beta0)
            assert abs(w.zeta) < w.delta
            assert w.n * abs(w.zeta) * abs(2 * w.center[1] + w.zeta) == pytest.approx(
                w.violation, rel=1e-13
            )
            assert w.violation > 2

    @pytest.mark.parametrize("beta0", [1e200 * (1 + 1j), 1.7e308 * (1 + 1j)])
    def test_far_centers(self, beta0):
        w = harris_witness(3, 1.0, 0, beta0)
        assert abs(w.zeta) < 1.0
        assert w.violation > 2

    def test_nan_fails_the_witness(self):
        with pytest.raises(WitnessFailed):
            harris_witness(3, 1.0, 0, complex(math.nan, 0))

    def test_tight_precondition_margin(self):
        n = 3
        delta = np.sqrt(2.0 / n) * (1 + 1e-6)
        w = harris_witness(n, delta, 0, 0)
        assert w.violation > 2


class TestDurenRudinWitness:
    def test_degenerate_center_constant_modulus(self):
        # u = v = 0 leaves g(theta) = delta^2 for every theta
        w = duren_rudin_witness(1.0, 0, 0)
        assert w.circle_value == pytest.approx(1.0, abs=1e-12)

    def test_aligned_unit_terms(self):
        # delta=1, (u,v)=(0,1): max |1 - e^{2 i theta}| = 2 at theta = +/- pi/2
        w = duren_rudin_witness(1.0, 0, 1)
        assert w.circle_value == pytest.approx(2.0, abs=1e-9)
        assert abs(abs(w.theta_star) - np.pi / 2) <= 1e-5

    def test_generic_center_against_sweep_oracle(self):
        # the witness is g at the two-angle pick, at least |c0| + delta^2,
        # and no longer the maximum of g (about 0.58082 here)
        delta, u, v = 0.5, 0.2 + 0.1j, -0.3
        w = duren_rudin_witness(delta, u, v)
        floor = abs(delta**2 * v - u**2) + delta**2
        assert w.circle_value >= floor * (1 - 1e-12)
        assert w.circle_value <= circle_values(delta, u, v).max() + 1e-9
        assert w.circle_value == pytest.approx(0.580493534092, abs=1e-9)

    def test_floor_on_random_centers(self):
        rng = np.random.default_rng(33)
        for delta in (0.5, 1.0, 2.0):
            for _ in range(40):
                u = rng.standard_normal() + 1j * rng.standard_normal()
                v = rng.standard_normal() + 1j * rng.standard_normal()
                w = duren_rudin_witness(delta, u, v)
                floor = abs(delta**2 * v - u**2) + delta**2
                assert w.circle_value >= floor * (1 - 1e-12)
                assert w.circle_value == pytest.approx(
                    circle_value_at(delta, u, v, w.theta_star), rel=1e-12)

    @pytest.mark.parametrize("delta, u, v, value", [
        (1.0, 0, 1e300, 1e300),
        (1e100, 0, 1e-300j, 1e200),
        (1.0, 1e200 * (1 + 1j), 0, math.inf),
        (1e200, 0, 0, math.inf),
        (1e200, 1e200 * (1 + 1j), -1e300j, math.inf),
        (1.7e308, 1.7e308 * (1 + 1j), 1.7e308 * (1 - 1j), math.inf),
    ])
    def test_far_centers(self, delta, u, v, value):
        # g past the float range reads inf; the angle stays finite
        w = duren_rudin_witness(delta, u, v)
        assert math.isfinite(w.theta_star)
        assert w.circle_value == pytest.approx(value, rel=1e-12)

    def test_nan_fails_the_witness(self):
        with pytest.raises(WitnessFailed):
            duren_rudin_witness(1.0, 0, complex(math.nan, 0))

    def test_two_angles_clear_delta_squared_in_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.complex_numbers(allow_nan=False, allow_infinity=False)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        # b = c1 e^{i theta0} perpendicular to a, |u| << eps delta and
        # |c0| << eps |c1|: the rounding of theta0 alone decides which of
        # the two angles clears delta^2
        @hypothesis.example(1.0, -1e-20, 2e-40)
        @hypothesis.example(1.0, 1e-20 * (1 + 1j), 4e-40j)
        # c0 = delta^2 v underflows at the scale of delta
        @hypothesis.example(1.0, 0j, -5e-324j)
        # u / delta underflows at the scale of delta
        @hypothesis.example(5.617791046444737e306, -1.192092896e-07, 0j)
        @hypothesis.example(1e300, -1e-30, 0j)
        # |v| passes the float range, its parts do not
        @hypothesis.example(4.2176927686998644e-122, 0j,
                            1.628875903599352e308 + 1.7188310887803305e308j)
        @hypothesis.given(
            # every delta DurenRudin accepts: delta and 1/delta finite
            st.floats(min_value=2.0**-1023, max_value=sys.float_info.max),
            finite, finite)
        def check(delta, u, v):
            w = duren_rudin_witness(delta, u, v)
            assert math.isfinite(w.theta_star)
            # g^2 - delta^4 expanded with |e| = 1, so that no delta^4 cancels:
            # at this precision c0 and c1 are exact and every term that can
            # vanish does so exactly
            with mpmath.workprec(6000):
                d, u, v = mpmath.mpf(delta), mpmath.mpc(u), mpmath.mpc(v)
                c0, c1, e = d * d * v - u * u, -2 * u * d, mpmath.expj(w.theta_star)
                excess = (abs(c0) ** 2 + abs(c1) ** 2
                          + 2 * mpmath.re(c0 * mpmath.conj(c1 * e) - d * d * c0 / (e * e)
                                          - d * d * c1 / e))
                assert excess >= 0
                g = mpmath.sqrt(excess + d**4)
                if w.circle_value == math.inf:
                    assert g > sys.float_info.max * (1 - 1e-12)
                elif g > sys.float_info.min:
                    assert abs(w.circle_value - g) <= 1e-12 * g

        check()

    def test_parseval_identity_on_grid(self):
        # 1024 samples integrate a degree-2 trigonometric polynomial exactly
        rng = np.random.default_rng(34)
        for _ in range(50):
            delta = 0.25 + 2 * rng.random()
            u = rng.standard_normal() + 1j * rng.standard_normal()
            v = rng.standard_normal() + 1j * rng.standard_normal()
            grid_mean = np.mean(circle_values(delta, u, v, n=1024) ** 2)
            # Parseval: |c0|^2 + |c1|^2 + |c2|^2
            exact = abs(delta**2 * v - u**2) ** 2 + 4 * abs(u) ** 2 * delta**2 + delta**4
            assert grid_mean == pytest.approx(exact, rel=1e-8)


class TestCertifyNoBall:
    def test_harris_hundred_random_centers(self):
        rng = np.random.default_rng(35)
        centers = [
            (rng.standard_normal() + 1j * rng.standard_normal(),
             rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(100)
        ]
        bound = certify_no_ball(Harris(3), centers)
        assert bound.value == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
        assert bound.label == "certified"
        assert bound.witness_count == 100

    def test_duren_rudin_hundred_random_centers(self):
        rng = np.random.default_rng(36)
        centers = [
            (rng.standard_normal() + 1j * rng.standard_normal(),
             rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(100)
        ]
        bound = certify_no_ball(DurenRudin(1.0), centers)
        assert bound.value == 1.0
        assert bound.label == "certified"

    @pytest.mark.parametrize("m", [Harris(3), Harris(10**300), DurenRudin(1.0),
                                   DurenRudin(1e200)])
    def test_far_centers(self, m):
        far = 1e200 * (1 + 1j)
        bound = certify_no_ball(m, [(0, 0), (0, far), (far, 0), (far, 1e300j)])
        assert bound.label == "certified"
        assert bound.witness_count == 4

    def test_single_center(self):
        bound = certify_no_ball(Harris(3), [(0, 0)])
        assert bound.value == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    def test_unsupported_map(self):
        with pytest.raises(PreconditionFailed):
            certify_no_ball(Henon(0.5), [(0, 0)])

    def test_empty_centers(self):
        with pytest.raises(PreconditionFailed):
            certify_no_ball(Harris(3), [])

    @pytest.mark.parametrize("m", [Harris(3), DurenRudin(1.0)])
    @pytest.mark.parametrize("center", [(np.nan, 0), (0, complex(0, np.inf))])
    def test_non_finite_center(self, m, center):
        with pytest.raises(PreconditionFailed):
            certify_no_ball(m, [(0, 0), center])
