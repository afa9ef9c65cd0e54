import re

import numpy as np
import pytest

from holomaplab import (
    Affine,
    Compose,
    DomainSpec,
    DurenRudin,
    ExpCoord,
    Harris,
    Henon,
    Identity,
    Linear,
    PolyCoord,
    Scalar,
    Translation,
    dilate,
    evaluate,
    evaluate_batch,
    jacobian,
    jacobian_batch,
    parse,
    to_text,
)
from holomaplab import _grammar
from holomaplab.errors import DimensionMismatch, ParseError, PreconditionFailed


def ball_points(n, k, radius, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 2 * k))
    v = g[:, :k] + 1j * g[:, k:]
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * rng.random(n)[:, None] ** (1 / (2 * k)) * v


BUILTINS = [
    Identity(2),
    Linear([[2, 1], [0, 1]]),
    Translation([0.3, 0.1j]),
    Henon(0.5),
    Harris(3),
    DurenRudin(1.0),
    ExpCoord(0.1, 2),
]


class TestEvaluate:
    def test_henon_direct_substitution(self):
        out = evaluate(Henon(0.5), [0.2, 0.1])
        assert np.allclose(out, [0.09, 0.2], atol=1e-15)

    def test_identity_complex_point(self):
        z = np.array([0.3, -0.4j])
        assert np.array_equal(evaluate(Identity(2), z), z)

    def test_harris_direct_substitution(self):
        assert np.allclose(evaluate(Harris(3), [0, 1]), [3, 1], atol=0)

    def test_durenrudin(self):
        out = evaluate(DurenRudin(0.5), [0.25, 0.1])
        assert np.allclose(out, [0.25, 0.1 + 0.25], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(Henon(0.5), [0.1, 0.2, 0.3])

    def test_batch_matches_pointwise(self):
        pts = ball_points(64, 2, 0.9, 1)
        for m in BUILTINS:
            batch = evaluate_batch(m, pts)
            single = np.array([evaluate(m, z) for z in pts])
            assert np.array_equal(batch, single)


class TestJacobian:
    def test_henon_at_origin(self):
        jet = jacobian(Henon(0.25 + 0.5j), [0, 0])
        assert np.allclose(jet.jacobian, [[0, 0.25 + 0.5j], [1, 0]], atol=0)

    def test_identity_anywhere(self):
        jet = jacobian(Identity(3), [0.1, 0.2j, -0.3])
        assert np.array_equal(jet.jacobian, np.eye(3))

    def test_durenrudin_half(self):
        jet = jacobian(DurenRudin(1.0), [0.5, 0.0])
        assert np.allclose(jet.jacobian, [[1, 0], [1, 1]], atol=1e-15)

    def test_batch_matches_pointwise(self):
        pts = ball_points(32, 2, 0.9, 2)
        for m in BUILTINS:
            values, jacs = jacobian_batch(m, pts)
            for i, z in enumerate(pts):
                jet = jacobian(m, z)
                assert np.array_equal(values[i], jet.value)
                assert np.array_equal(jacs[i], jet.jacobian)

    def test_finite_difference_agreement(self):
        # central differences along the real axis of each input coordinate
        h = 1e-5
        rng = np.random.default_rng(3)
        maps = BUILTINS + [
            Compose(Henon(0.5), ExpCoord(0.1, 2)),
            Scalar(2.0, Compose(Harris(2), Translation([0.05, -0.02j]))),
            Affine([0.1, 0.0], 0.5 * np.eye(2), Compose(DurenRudin(2.0), Henon(-0.3))),
        ]
        for m in maps:
            pts = ball_points(100, m.dim, 0.9, rng.integers(10**6))
            _, jacs = jacobian_batch(m, pts)
            for j in range(m.dim):
                e = np.zeros(m.dim)
                e[j] = h
                fd = (evaluate_batch(m, pts + e) - evaluate_batch(m, pts - e)) / (2 * h)
                assert np.abs(fd - jacs[:, :, j]).max() <= 1e-7


class TestReparametrize:
    """Affine(a, B, m) is the structural z -> m(a + B z) that bz_step builds."""

    def test_identity_shift(self):
        a = np.array([0.1, 0.2j])
        r = Affine(a, np.eye(2), Identity(2))
        z = np.array([0.05, -0.03])
        assert np.allclose(evaluate(r, z), a + z, atol=0)

    def test_linear_inverse_gives_identity_jacobian(self):
        A = np.array([[2.0, 1.0], [0.5j, 1.0]])
        r = Affine(np.zeros(2), np.linalg.inv(A), Linear(A))
        assert np.abs(jacobian(r, [0.1, 0.2]).jacobian - np.eye(2)).max() <= 1e-14

    def test_henon_hand_example(self):
        # m(a + B z) at z = (0.1, 0) with B = [[0,2],[1,0]] hits m(0, 0.1) = (0.05, 0)
        r = Affine([0, 0], [[0, 2], [1, 0]], Henon(0.5))
        assert np.allclose(evaluate(r, [0.1, 0]), [0.05, 0], atol=1e-16)

    def test_exact_on_grid(self):
        rng = np.random.default_rng(8)
        vals = np.array([0, 0.3, -0.2 + 0.1j, 0.25j, -0.15 - 0.05j])
        grid = np.array([[x, y] for x in vals for y in vals])
        for m in [Henon(0.5), Harris(2), Compose(Henon(0.5), ExpCoord(0.2, 2))]:
            a = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            r = Affine(a, B, m)
            lhs = evaluate_batch(r, grid)
            rhs = np.array([evaluate(m, a + B @ z) for z in grid])
            scale = np.abs(rhs).max() + 1.0
            assert np.abs(lhs - rhs).max() <= 1e-13 * scale


class TestDilate:
    def test_identity_semantics(self):
        d = dilate(Identity(2), 7.0)
        pts = ball_points(32, 2, 1.0, 4)
        assert np.abs(evaluate_batch(d, pts) - pts).max() <= 1e-15

    def test_henon_formula(self):
        # (1/R) henon(R z) = (R z^2 + b w, z)
        R, b = 3.0, 0.5
        d = dilate(Henon(b), R)
        for z, w in [(0.2, 0.1), (0.1j, -0.3), (-0.25, 0.5j)]:
            out = evaluate(d, [z, w])
            assert np.allclose(out, [R * z * z + b * w, z], atol=1e-15)

    def test_expcoord_jacobian_at_zero(self):
        c = 0.3 + 0.1j
        d = dilate(ExpCoord(c, 2), 5.0)
        assert np.abs(jacobian(d, [0, 0]).jacobian - c * np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("R", [0.0, -2.0, np.inf, np.nan, 1e-320])
    def test_factor_and_inverse_must_be_finite(self, R):
        with pytest.raises(PreconditionFailed):
            dilate(Identity(2), R)

    def test_dilate_one_is_identity_on_grid(self):
        m = Compose(Henon(0.5), ExpCoord(0.2, 2))
        d = dilate(m, 1.0)
        pts = ball_points(64, 2, 0.9, 5)
        assert np.array_equal(evaluate_batch(d, pts), evaluate_batch(m, pts))


class TestParse:
    def test_named_builtin(self):
        assert parse("henon(b=0.5)") == Henon(0.5)

    def test_composed_family(self):
        m = parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))")
        assert m == Compose(Henon(0.5), ExpCoord(0.1, 2))

    def test_poly_tuple_equals_henon_on_grid(self):
        p = parse("(z1^2 + 0.5*z2, z1)")
        h = Henon(0.5)
        xs = np.linspace(-0.9, 0.9, 10)
        grid = np.array([[x + 0.1j * y, y - 0.05j * x] for x in xs for y in xs])
        assert np.abs(evaluate_batch(p, grid) - evaluate_batch(h, grid)).max() <= 1e-13

    def test_complex_literals(self):
        assert parse("henon(b=1+2i)") == Henon(1 + 2j)
        assert parse("henon(b=-0.5-0.25i)") == Henon(-0.5 - 0.25j)
        assert parse("henon(b=2i)") == Henon(2j)
        assert parse("scalar(s=i, identity(k=1))") == Scalar(1j, Identity(1))

    def test_vectors_and_matrices(self):
        m = parse("affine([0.1, 1+1i], [[1, 0], [0, 2]], identity(k=2))")
        assert m == Affine([0.1, 1 + 1j], [[1, 0], [0, 2]], Identity(2))

    def test_dilate_sugar(self):
        assert parse("dilate(2.0, henon(b=0.5))") == dilate(Henon(0.5), 2.0)

    def test_whitespace_insensitive(self):
        assert parse(" compose( henon( b = 0.5 ) , identity( k = 2 ) ) ") == Compose(
            Henon(0.5), Identity(2)
        )

    def test_error_position_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse("henon(b=0.5")
        assert err.value.position == 11
        with pytest.raises(ParseError):
            parse("frobnicate(x=1)")
        with pytest.raises(ParseError):
            parse("(z1, z3)")  # variable beyond dimension
        with pytest.raises(ParseError):
            parse("henon(b=0.5) trailing")
        with pytest.raises(ParseError, match=re.escape("missing parameter(s) <map>")):
            parse("compose(henon(b=0.5))")
        with pytest.raises(ParseError) as err:
            parse("henon(b=0.5, identity(k=2))")  # more arguments than fields
        assert err.value.position == 11
        with pytest.raises(ParseError) as err:
            parse("compose(henon(b=0.5), identity(k=3))")  # the constructor's check
        assert err.value.position == 0

    def test_resource_caps(self, monkeypatch):
        # each product counts the term pairs it walks: a capped text fails
        # having walked at most MAX_PRODUCT_PAIRS pairs in any one product
        walked = []

        class Counted(dict):
            def items(self):
                for item in super().items():
                    walked[-1] += 1
                    yield item

        mul = _grammar._Poly.__mul__

        def counted_mul(a, b):
            walked.append(0)
            b_counted = _grammar._Poly()
            b_counted.terms = Counted(b.terms)
            return mul(a, b_counted)

        monkeypatch.setattr(_grammar._Poly, "__mul__", counted_mul)

        def rejected(text):
            walked.clear()
            with pytest.raises(ParseError) as err:
                parse(text)
            assert max(walked, default=0) <= _grammar.MAX_PRODUCT_PAIRS, text
            return err.value

        assert rejected("(z1^100000, z2)").position == 4
        assert not walked
        for text in (
            "(z1^65, z2)",
            "(z1^64^64, z2)",  # chained powers: the expanded exponent is capped too
            "(z1^40 * z1^40, z2)",
            "((z1 + z2)^64^64, z2)",
            "((1 + z1 + z2 + z3 + z4)^20, z2, z3, z4)",  # 10,626 terms
            "((1 + z1)^64 * (1 + z2)^63, z2)",  # 4160 terms
            "((1 + z1)^63 * (1 + z2)^63 + z3, z2, z3)",  # 4097 terms, from the sum
            "identity(k=33)",
            "expcoord(c=0.1, k=33)",
            # capped at the parse: dilate's scalar and identity(k) are cheap to
            # build, but a Jacobian of the map holds k x k entries per point
            "dilate(2, identity(k=1000000000000))",
            "identity(k=1e400)",
            "(z1^1e400, z2)",
        ):
            rejected(text)
        # every factor and the product stay under the term cap, but the last
        # product would walk 1,056^2 term pairs
        rejected("(((1+z1)^32*(1+z2)^31)*((1+z1)^32*(1+z2)^31), z2)")
        assert walked[-1] == 0
        assert parse("(z1^64, z2)") == PolyCoord([[((64, 0), 1)], [((0, 1), 1)]])
        assert len(parse("((1 + z1)^63 * (1 + z2)^63, z2)").polys[0]) == 4096
        assert parse("identity(k=32)").dim == 32
        assert parse("expcoord(c=0.1, k=32)").dim == 32

    @pytest.mark.parametrize("form", [
        "tuple", "linear", "translation", "affine", "identity", "expcoord"])
    def test_every_map_form_has_the_dimension_cap(self, form):
        def text(k):
            eye = "[" + ", ".join(
                "[" + ", ".join("1" if i == j else "0" for j in range(k)) + "]"
                for i in range(k)) + "]"
            zeros = "[" + ", ".join(["0"] * k) + "]"
            return {
                "tuple": "(" + ", ".join(f"z{j + 1}" for j in range(k)) + ")",
                "linear": f"linear(a={eye})",
                "translation": f"translation(t={zeros})",
                # an affine map has its inner map's dimension, so the inner
                # one fails first
                "affine": f"affine({zeros}, {eye}, identity(k={k}))",
                "identity": f"identity(k={k})",
                "expcoord": f"expcoord(c=0.1, k={k})",
            }[form]

        assert parse(text(32)).dim == _grammar.MAX_DIM == 32
        with pytest.raises(ParseError, match="map dimension exceeds 32") as err:
            parse(text(33))
        assert err.value.position == (text(33).index("identity") if form == "affine" else 0)

    @pytest.mark.parametrize("text, position", [("é", 0), ("henon(b=²)", 8), ("(z1, z²)", 6)])
    def test_non_ascii_characters(self, text, position):
        # str.isalpha and str.isdigit accept these; the grammar does not
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    def test_roundtrip_all_constructors(self):
        maps = BUILTINS + [
            Scalar(0.5 - 0.25j, Henon(1j)),
            Compose(Harris(4), ExpCoord(0.2j, 2)),
            Affine([0.1, -0.2j], [[1, 0.5], [0, 1]], Henon(0.5)),
            PolyCoord([[((2, 0), 1.0), ((0, 1), 0.5)], [((1, 0), 1.0)]]),
            dilate(Compose(Henon(0.5), ExpCoord(2.0, 2)), 4.0),
            parse("(z1^2 + (0.5+0.5i)*z2 + 1, z2^3)"),
            Compose(ExpCoord(1000, 2), Scalar(1e308, Identity(2))),  # large, finite
        ]
        for m in maps:
            assert parse(to_text(m)) == m

    def test_keywords_in_any_order_then_positionals(self):
        assert parse("expcoord(k=2, c=0.1)") == ExpCoord(0.1, 2)
        with pytest.raises(ParseError):
            parse("scalar(henon(b=0.5), s=2)")  # a keyword after a positional
        with pytest.raises(ParseError):
            parse("henon(b=0.5, b=0.5)")


class TestEquality:
    def test_signed_zeros_compare_and_hash_equal(self):
        a, b = Linear([[1, 0], [0, 1]]), Linear([[1, -0.0], [0, 1]])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_type_and_fields_decide(self):
        assert Henon(0.5) != Henon(0.25)
        assert Identity(2) != Identity(3)
        assert Compose(Henon(0.5), Identity(2)) != Compose(Identity(2), Henon(0.5))
        assert Linear(np.eye(2)) != Translation([1, 0])
        assert Affine([0, 0], np.eye(2), Henon(0.5)) != Affine([0, 0], np.eye(2), Harris(1))


class TestConstructorRanges:
    @pytest.mark.parametrize("build", [
        lambda: Harris(0),
        lambda: Harris(-3),
        lambda: Harris(10**400),  # past the float range
        lambda: DurenRudin(0.0),
        lambda: DurenRudin(-1.0),
        lambda: DurenRudin(1e-320),  # 1/delta overflows
        lambda: DurenRudin(np.inf),
        lambda: DurenRudin(np.nan),
        lambda: Scalar(0, Identity(2)),
        lambda: PolyCoord([[((-1, 0), 1.0)], [((0, 1), 1.0)]]),
        lambda: Henon(np.inf),
        lambda: ExpCoord(np.nan, 2),
        lambda: Scalar(np.inf, Identity(2)),
        lambda: Linear([[np.inf, 0], [0, 1]]),
        lambda: Translation([np.nan, 0]),
        lambda: Affine([0, 0], [[np.inf, 0], [0, 1]], Identity(2)),
        lambda: PolyCoord([[((1, 0), np.inf)], [((0, 1), 1.0)]]),
    ], ids=["harris-0", "harris-negative", "harris-huge", "durenrudin-0",
            "durenrudin-negative", "durenrudin-tiny", "durenrudin-inf", "durenrudin-nan",
            "scalar-0", "polycoord-negative-exponent", "henon-inf", "expcoord-nan",
            "scalar-inf", "linear-inf", "translation-nan", "affine-inf", "polycoord-inf"])
    def test_bad_argument_raises_precondition_failed(self, build):
        with pytest.raises(PreconditionFailed):
            build()


class TestDomainSpec:
    def test_ball_membership(self):
        dom = DomainSpec.ball(2, 1.0)
        assert dom.margin([0.5, 0.5]) > 0
        assert dom.margin([0.8, 0.7]) < 0  # norm > 1
        assert dom.margin([0.6, 0.0]) == pytest.approx(0.4)

    def test_polydisc_membership(self):
        dom = DomainSpec.polydisc(2, 1.0)
        assert dom.margin([0.9, 0.9]) > 0
        assert dom.margin([1.1, 0.0]) < 0
        assert dom.margin([0.9, 0.3]) == pytest.approx(0.1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            DomainSpec("cube", 1.0, 2)
        with pytest.raises(ValueError):
            DomainSpec.ball(2, 0.0)
        for radius in (np.inf, np.nan, -1.0):
            with pytest.raises(PreconditionFailed):
                DomainSpec.ball(2, radius)
