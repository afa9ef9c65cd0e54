"""Property tests: a row's Jacobian, singular values and the other scorer
steps do not depend on the batch they are computed in.  The sampled sups
score the samples in blocks and each hill-climb sweep as one batch, so the
blocks change nothing and the batched climb follows the
one-candidate-at-a-time climb only if this holds; that equivalence is
checked here too, on arbitrary scorers.  The dual numbers' (k, N) gradient
layout is checked bit for bit against the (N, k) layout it replaced, and a
Landau ladder run in a lockstep batch against its search alone."""

import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from holomaplab import (  # noqa: E402
    Affine,
    Compose,
    DomainSpec,
    DurenRudin,
    ExpCoord,
    Harris,
    Henon,
    Identity,
    Linear,
    Scalar,
    NewtonConfig,
    Translation,
    dilate,
    evaluate_batch,
    inscribed_lower_bound,
    jacobian_batch,
    parse,
    to_text,
)
from holomaplab import landau, mapkit  # noqa: E402
from holomaplab._sampling import coordinate_ascent, interior_points  # noqa: E402
from holomaplab.errors import CenterNotInImage  # noqa: E402
from holomaplab.algebra import singular_values_batch, solve_batch, times_batch  # noqa: E402
from holomaplab.mapkit import MapExpr  # noqa: E402
from test_algebra import ROW_SCALES  # noqa: E402
from test_conditioning import as_mask, sequential_climb  # noqa: E402

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, unit, unit)
vec2 = st.lists(cplx, min_size=2, max_size=2).map(np.array)
mat2 = st.lists(cplx, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))

builtins = st.one_of(
    st.just(Identity(2)),
    st.builds(Henon, cplx),
    st.builds(Harris, st.integers(1, 12)),
    st.builds(DurenRudin, st.floats(0.1, 2.0)),
    st.builds(ExpCoord, cplx, st.just(2)),
    st.builds(Linear, mat2),
    st.builds(Translation, vec2),
    st.just(parse("(z1^2 + 3*z2, z1*z2 - z2^3)")),
)


def _extend(children):
    return st.one_of(
        st.builds(Compose, children, children),
        st.builds(Scalar, cplx.filter(lambda c: c != 0), children),
        st.builds(Affine, vec2, mat2, children),
        st.builds(dilate, children, st.floats(0.2, 2.0)),
    )


maps = st.recursive(builtins, _extend, max_leaves=4)


@st.composite
def points_and_splits(draw):
    n = draw(st.integers(1, 24))
    rows = draw(st.lists(vec2, min_size=n, max_size=n))
    cuts = sorted(set(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=4))))
    return np.array(rows), [c for c in cuts if c < n]


@st.composite
def mixed_stacks(draw, n):
    mats = draw(st.lists(mat2, min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from(ROW_SCALES), min_size=n, max_size=n))
    return np.array([s * a for s, a in zip(scales, mats)])


def _singular_values(stack):
    """singular_values_batch of a stack whose rows are all finite; None for
    any other stack.  algebra sends a row that is not finite to LAPACK,
    which raises LinAlgError or gives that row NaN singular values; a NaN
    beside an inf in one row can give NaN (test_algebra's
    NON_FINITE_ROWS).  So a stack that returns is asserted to give every
    row that is not finite all NaN."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    try:
        sv = singular_values_batch(stack)
    except np.linalg.LinAlgError:
        assert not finite.all()
        return None
    assert np.isnan(sv[~finite]).all()
    return sv if finite.all() else None


def _rows(m, pts, mixed, j0_inv):
    with np.errstate(over="ignore", invalid="ignore"):  # _OVERFLOW overflows on purpose
        values, jacs = jacobian_batch(m, pts)
        product = times_batch(jacs, j0_inv)  # refined_sup's J(a + off) J(a)^-1
        return (values, jacs, _singular_values(jacs), product,
                _singular_values(product), _singular_values(mixed))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_rows(whole, part, lo, hi):
    # values, Jacobians and products bit for bit, NaN rows included; singular
    # values wherever the whole stack has them (then every part has them)
    for w, p in zip(whole, part):
        if w is not None:
            assert _same_bits(w[lo:hi], p)


# exp(1000) overflows: the first and last rows get NaN Jacobians
_OVERFLOW = (Compose(ExpCoord(1.0, 2), Scalar(1000.0, Identity(2))),
             (np.array([[1, 0], [0.1, 0.2j], [0.5j, 1]]), [1]))


# a mixed row [[inf+nanj, 0], [0, 1]] returns NaN singular values, no raise
_INF_NAN_ROW = (Identity(2), (np.array([[0.1, 0.2j], [0.5j, 1]]), [1]), np.eye(2),
                np.array([[[complex(np.inf, np.nan), 0], [0, 1]], np.eye(2)]))


@settings(max_examples=150, deadline=None)
@given(maps, points_and_splits(), mat2, mixed_stacks(24))
@example(*_OVERFLOW, np.eye(2), np.ones((24, 2, 2)))
@example(*_INF_NAN_ROW)
def test_rows_do_not_depend_on_the_batch(m, data, j0_inv, mixed):
    pts, cuts = data
    mixed = mixed[:len(pts)]
    whole = _rows(m, pts, mixed, j0_inv)
    for i in range(len(pts)):
        _same_rows(whole, _rows(m, pts[i:i + 1], mixed[i:i + 1], j0_inv), i, i + 1)
    for lo, hi in zip([0] + cuts, cuts + [len(pts)]):
        _same_rows(whole, _rows(m, pts[lo:hi], mixed[lo:hi], j0_inv), lo, hi)


# rows down every path of solve_batch: exactly singular, NaN, infinite, a
# non-finite right-hand side, extreme scales and the closed form
_SPECIAL = (np.array([[[0, 0], [0, 0]], [[1, 2], [2, 4]], [[np.nan, 0], [0, 1]],
                      [[1, 0], [np.inf, 1]], [[1, 1j], [0, 2]], [[1e200, 0], [0, 1e200]],
                      [[0.5, 0.1], [0.2j, 0.3]]], complex),
            np.array([[1, 1], [1, -1], [1, 0], [0, 1], [np.inf, 0], [1e200, 1], [1j, 2]]))


@settings(max_examples=150, deadline=None)
@given(mixed_stacks(24), points_and_splits())
@example(_SPECIAL[0], (_SPECIAL[1], [2, 5]))
def test_solutions_do_not_depend_on_the_batch(mixed, data):
    rhs, cuts = data
    mats = mixed[:len(rhs)]
    x, solved = solve_batch(mats, rhs)
    parts = [(i, i + 1) for i in range(len(rhs))] + list(zip([0] + cuts, cuts + [len(rhs)]))
    for lo, hi in parts:
        px, psolved = solve_batch(mats[lo:hi], rhs[lo:hi])
        assert _same_bits(x[lo:hi], px) and _same_bits(solved[lo:hi], psolved)


@settings(max_examples=400, deadline=None)
@given(maps)
@example(Affine([0.0, -0.0], [[1.0, -0.0], [0.0, 1.0]], Linear([[-0.0, 1.0], [1.0, 0.0]])))
def test_text_round_trip_keeps_equality_and_hash(m):
    back = parse(to_text(m))
    assert back == m
    assert hash(back) == hash(m)


@settings(max_examples=150, deadline=None)
@given(points_and_splits())
def test_scorer_steps_do_not_depend_on_the_batch(data):
    # the Brody-Zalcman functional weights each row by 1 - |z|, and sup
    # kappa's climb tests a sweep's candidates with one DomainSpec.norm
    # call; the refined-sup product is covered by
    # test_rows_do_not_depend_on_the_batch
    pts, cuts = data
    whole = np.linalg.norm(pts, axis=1)
    doms = (DomainSpec.ball(2, 1.0), DomainSpec.polydisc(2, 1.0))
    for i in range(len(pts)):
        assert _same_bits(whole[i:i + 1], np.linalg.norm(pts[i:i + 1], axis=1))
        for dom in doms:
            assert _same_bits(dom.norm(pts)[i], dom.norm(pts[i]))
    for lo, hi in zip([0] + cuts, cuts + [len(pts)]):
        assert _same_bits(whole[lo:hi], np.linalg.norm(pts[lo:hi], axis=1))


_PINNED_PTS = np.random.default_rng(3).standard_normal((16, 2, 2)) @ np.array([1, 1j])


@settings(max_examples=150, deadline=None)
@given(maps, points_and_splits())
@example(parse("linear(a=[[0.3+0.7i, -0.2+0.1i], [0.5-0.4i, 1.1+0.3i]])"), (_PINNED_PTS, []))
@example(parse("affine([0.1+0.2i, -0.3i], [[0.3+0.7i, 0.2i], [0.5-0.4i, 1.1]], "
               "(z1^3 + (0.3-0.2i)*z2^2, z1*z2^2 - z2^3))"), (_PINNED_PTS, []))
@example(parse("henon(b=0.3+0.4i)"), (_PINNED_PTS, []))
@example(parse("expcoord(c=0.1+0.3i, k=2)"), (_PINNED_PTS, []))
@example(parse("scalar(s=0.3+0.7i, harris(n=3))"), (_PINNED_PTS, []))
def test_both_evaluators_give_the_same_values(m, data):
    # Newton's residuals come from evaluate_batch and its steps from
    # jacobian_batch, so the two must agree bit for bit
    pts, _ = data
    assert _same_bits(jacobian_batch(m, pts)[0], evaluate_batch(m, pts))


class _ConstFirst(MapExpr):
    """(1, z2) with a Python constant as first coordinate, so the evaluators
    must broadcast it over the batch."""

    dim = 2

    def apply(self, coords):
        return (1.0, coords[1])

    def __repr__(self):
        return "_ConstFirst()"


@settings(max_examples=50, deadline=None)
@given(points_and_splits())
def test_constant_coordinate_broadcasts(data):
    pts, _ = data
    n = len(pts)
    for m in (_ConstFirst(), parse("(1, z2)")):
        out = m.apply(tuple(pts[:, j] for j in range(2)))
        expected = np.stack(
            [np.broadcast_to(np.asarray(c, dtype=np.complex128), (n,)) for c in out], axis=1)
        assert _same_bits(evaluate_batch(m, pts), expected)
        values, jacs = jacobian_batch(m, pts)
        assert _same_bits(values, expected)
        assert _same_bits(jacs, np.broadcast_to(np.array([[0, 0], [0, 1]], complex), (n, 2, 2)))


# The (N, k) dual layout that mapkit used before it stored gradients as
# (k, N), kept verbatim as the reference for the layout test below.


def _row(x):
    """Broadcast a value over the trailing derivative axis."""
    x = np.asarray(x)
    return x if x.ndim == 0 else x[..., None]


class _RowDual:
    """Value plus complex gradient row for forward-mode differentiation."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        if isinstance(other, _RowDual):
            return _RowDual(self.val + other.val, self.der + other.der)
        return _RowDual(self.val + other, self.der)

    __radd__ = __add__

    def __neg__(self):
        return _RowDual(-self.val, -self.der)

    def __sub__(self, other):
        if isinstance(other, _RowDual):
            return _RowDual(self.val - other.val, self.der - other.der)
        return _RowDual(self.val - other, self.der)

    def __rsub__(self, other):
        return _RowDual(other - self.val, -self.der)

    def __mul__(self, other):
        if isinstance(other, _RowDual):
            return _RowDual(
                self.val * other.val,
                _row(self.val) * other.der + _row(other.val) * self.der,
            )
        return _RowDual(self.val * other, _row(other) * self.der)

    __rmul__ = __mul__


def _row_exp(x):
    if isinstance(x, _RowDual):
        ev = np.exp(x.val)
        return _RowDual(ev, _row(ev) * x.der)
    return np.exp(x)


def row_jacobian_batch(m, pts):
    """Values (N, k) and Jacobians (N, k, k) at N points in one dual pass."""
    Z = np.asarray(pts, dtype=np.complex128)
    n, k = Z.shape
    duals = []
    for j in range(k):
        der = np.zeros((n, k), dtype=np.complex128)
        der[:, j] = 1.0
        duals.append(_RowDual(Z[:, j], der))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mapkit, "_exp", _row_exp)  # ExpCoord's exp of a dual
        out = m.apply(tuple(duals))
    values = np.empty((n, k), dtype=np.complex128)
    jacs = np.empty((n, k, k), dtype=np.complex128)
    for i, o in enumerate(out):
        if isinstance(o, _RowDual):
            values[:, i] = o.val
            jacs[:, i, :] = o.der
        else:
            values[:, i] = o
            jacs[:, i, :] = 0.0
    return values, jacs


_LAYOUT_PTS = np.random.default_rng(5).standard_normal((97, 2, 2)) @ np.array([1, 1j])


@st.composite
def layout_points(draw):
    n = draw(st.sampled_from([1, 3, 97]))
    return np.array(draw(st.lists(vec2, min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(maps, layout_points())
@example(_ConstFirst(), _LAYOUT_PTS)
@example(parse("(1, z2)"), _LAYOUT_PTS[:3])
@example(parse("compose(henon(b=0.3+0.4i), expcoord(c=0.1+0.3i, k=2))"), _LAYOUT_PTS)
def test_gradient_layout_keeps_the_bits(m, pts):
    # every dual operation is the same elementwise operation in either layout
    values, jacs = jacobian_batch(m, pts)
    ref_values, ref_jacs = row_jacobian_batch(m, pts)
    assert _same_bits(values, ref_values)
    assert _same_bits(jacs, ref_jacs)


SCORE_VALUES = (-np.inf, np.inf, np.nan, 0.0, 0.5, 1.0, 2.0)


@st.composite
def scorers(draw):
    """Pure batch scorers whose values tie often and include -inf, +inf and
    NaN: either a hash of each row's bytes into a drawn table, or a
    quantized distance to a drawn target with an excluded half-space."""
    if draw(st.booleans()):
        table = draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=6))

        def score(z):
            return np.array([table[zlib.crc32(row.tobytes()) % len(table)] for row in z])
    else:
        target = draw(cplx)
        q = draw(st.sampled_from([1.0, 4.0, 16.0]))
        cut = draw(st.floats(-1.0, 2.0))

        def score(z):
            vals = -np.round(q * np.abs(z - target).sum(axis=1))
            return np.where(z[:, 0].real > cut, -np.inf, vals)

    return score


@settings(max_examples=200, deadline=None)
@given(scorers(), st.integers(1, 3), st.data())
def test_batched_climb_follows_the_sequential_climb(score, k, data):
    x0 = np.array(data.draw(st.lists(cplx, min_size=k, max_size=k)))
    # up to 20 steps, so the ladder of halved sweeps runs long; from 1e-13
    # the 1e-14 floor cuts it after four levels
    steps = data.draw(st.integers(1, 20))
    step0 = data.draw(st.sampled_from([1e-13, 0.05, 0.1, 0.3, 1.0]))
    radius = data.draw(st.floats(0.5, 2.0))
    inside = lambda z: np.linalg.norm(z) <= radius

    ref_pt, ref_val, ref_evals, ref_excluded = sequential_climb(score, x0, steps, step0, inside)
    calls = []

    def counted(z):
        calls.append(len(z))
        return score(z)

    start = float(score(x0[None])[0])
    pt, val, evals, excluded = coordinate_ascent(counted, x0, start, steps, step0,
                                                 as_mask(inside))
    assert _same_bits(pt, ref_pt)
    assert _same_bits(np.float64(val), np.float64(ref_val))
    # the reference also scored (and may have excluded) the start
    assert evals == ref_evals - 1
    assert excluded == ref_excluded - (not start > -np.inf)
    assert len(calls) <= ref_evals - 1


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(["harris3", "henon"]), seed=st.integers(0, 2**32 - 1),
       first=st.sampled_from([0, 40, 150]), growth=st.sampled_from([1.02, 1.05, 1.3]),
       inside=st.integers(0, 8), data=st.data())
def test_each_ladder_in_a_batch_is_its_search_alone(case, seed, first, growth, inside, data):
    # 0-8 centers in the image and one far outside it, searched in lockstep
    # from rung first: each entry is the search of its center alone (None
    # for the one outside, which inscribed_lower_bound rejects), and a kept
    # entry forms the certificates of that run
    m, dom = {"harris3": (Harris(3), DomainSpec.polydisc(2, 1.0)),
              "henon": (Henon(0.5), DomainSpec.ball(2, 0.9))}[case]
    cfg = NewtonConfig(tolerance=1e-8, rng_seed=seed)
    centers = list(evaluate_batch(m, interior_points(dom, inside, seed))) if inside else []
    outside = data.draw(st.integers(0, inside))
    centers.insert(outside, np.array([50.0, 50.0], complex))
    out = landau._ladders(m, centers, dom, cfg, growth, landau._draw(m, dom, cfg, 16), first)
    assert len(out) == len(centers) and out[outside] is None
    for i, (center, est) in enumerate(zip(centers, out)):
        if i == outside:
            with pytest.raises(CenterNotInImage):
                inscribed_lower_bound(m, center, dom, cfg, 16, growth)
            continue
        alone = landau._keep(landau._ladders(m, [center], dom, cfg, growth,
                                             landau._draw(m, dom, cfg, 16), first)[0])
        assert [(r.hex(), ok) for r, ok in est.shell_history] == [
            (r.hex(), ok) for r, ok in alone.shell_history]
        assert (est.r_lo.hex(), est.r_hi.hex(), est.r_hi_label) == (
            alone.r_lo.hex(), alone.r_hi.hex(), alone.r_hi_label)
        assert est.center.tobytes() == alone.center.tobytes()
        kept = landau._keep(est)
        assert len(kept.certificates) == len(alone.certificates)
        for c, d in zip(kept.certificates, alone.certificates):
            assert c.target.tobytes() == d.target.tobytes()
            assert c.preimage.tobytes() == d.preimage.tobytes()
            assert (c.residual.hex(), c.domain_margin.hex()) == (
                d.residual.hex(), d.domain_margin.hex())
